"""Golden CLI outputs: every case must reproduce its stored JSON payload.

Each case runs ``polycal.cli.main`` on inputs built here (catalog bundles
from ``demo`` plus a few hand-written documents) and compares the exit code
and payload with ``tests/golden/<case>.json``: strings, booleans and
integers exactly, floats to 1e-12 (relative, absolute near 0).  The goldens
pin behaviour across refactors; regenerate them only for an intended output
change, naming the cases that change:

    PYTHONPATH=src python tests/test_golden.py --write certify-l_shape-r0 ...

This rewrites only the named goldens and prints each file whose content
changed; a bare ``--write`` regenerates every golden.
"""

from __future__ import annotations

import json
import math
import os
import sys

import pytest

from polycal.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
REL_TOL = ABS_TOL = 1e-12

L_DIRECTIONS = "[[1,0],[0,1]]"
CROSS_DIRECTIONS = "[[1,0,0],[0,1,0],[-1,0,0],[0,-1,0]]"
CATALOG = {
    "plane_disk": [],
    "y_line": [],
    "y_times_r": [],
    "tetrahedral_cone": [],
    "custom_net_cone": ["--directions", CROSS_DIRECTIONS, "--weights", "[1,2,1,2]"],
}
DEMOS = {f"{name}-r{k}": ["demo", name, "--refine", str(k), *extra]
         for name, extra in CATALOG.items() for k in (0, 1)}
DEMOS["l_shape-r0"] = ["demo", "custom_net_cone", "--directions", L_DIRECTIONS]
DEMOS["plane_disk9-r0"] = ["demo", "plane_disk", "--sectors", "9", "--radius", "2.5"]

TRIANGLE = {"ambient_dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]], "simplices": [[0, 1, 2]]}
TRIANGLE_BOUNDARY = {
    "dimension": 1,
    "group": {"kind": "multivector", "ambient_dim": 2, "grade": 1},
    "terms": [
        {"simplex": [0, 1], "coeff": [1.0, 0.0]},
        {"simplex": [1, 2], "coeff": [-math.sqrt(0.5), math.sqrt(0.5)]},
        {"simplex": [0, 2], "coeff": [0.0, -1.0]},
    ],
}
REAL_BOUNDARY = {
    "dimension": 0,
    "group": {"kind": "real"},
    "terms": [{"simplex": [0], "coeff": -1.0}, {"simplex": [2], "coeff": 1.0}],
}
FILES = {
    "triangle": TRIANGLE,
    "triangle_boundary": TRIANGLE_BOUNDARY,
    "real_boundary": REAL_BOUNDARY,
    "group23": {"kind": "subgroup", "generators": [2.0, 3.0]},
}


def _cases():
    cases = {f"demo-{label}": argv for label, argv in DEMOS.items() if label.endswith("r0")}
    for label in DEMOS:
        cases[f"certify-{label}"] = ["certify", "--in", f"@{label}"]
    cases["certify-solver-tetrahedral_cone-r0"] = [
        "certify", "--in", "@tetrahedral_cone-r0", "--with-solver"]
    for label in DEMOS:
        cases[f"stationarity-{label}"] = ["stationarity", "--in", f"@{label}"]
        cases[f"chainify-{label}"] = ["chainify", "--in", f"@{label}"]
    cases["flatnorm-triangle-boundary"] = [
        "flatnorm", "--in", "@triangle", "--in", "@triangle_boundary"]
    cases["minimize-triangle-real"] = ["minimize", "--in", "@triangle", "--in", "@real_boundary"]
    cases["validate-plane_disk9-r0"] = ["validate", "--in", "@plane_disk9-r0"]
    cases["groupnorm-23"] = ["groupnorm", "--in", "@group23", "--coords=-1,1", "--ball", "4"]
    cases["deform-tetrahedral_cone-r0"] = [
        "deform", "--in", "@tetrahedral_cone-r0", "--trials", "40", "--magnitude", "0.1",
        "--seed", "7"]
    cases["deform-y_times_r-r1"] = [
        "deform", "--in", "@y_times_r-r1", "--trials", "10", "--magnitude", "0.05", "--seed", "3"]
    return cases


CASES = _cases()


def _build_inputs(work_dir):
    paths = {}
    for label, argv in DEMOS.items():
        paths[label] = os.path.join(work_dir, f"{label}.json")
        if main([*argv, "--out", paths[label]]) != 0:
            raise RuntimeError(f"demo {label} failed")
    for label, doc in FILES.items():
        paths[label] = os.path.join(work_dir, f"{label}.json")
        with open(paths[label], "w") as handle:
            json.dump(doc, handle)
    return paths


def run_case(name, paths, work_dir):
    """Exit code and payload of one case, read back from its --out file."""
    argv = [paths[a[1:]] if a.startswith("@") else a for a in CASES[name]]
    out = os.path.join(work_dir, f"{name}.out.json")
    code = main([*argv, "--out", out])
    with open(out) as handle:
        return {"code": code, "payload": json.load(handle)}


def _mismatch(got, want, where="$"):
    """First path at which two JSON values differ, or None."""
    if isinstance(want, float) or isinstance(got, float):
        if type(got) not in (int, float) or type(want) not in (int, float):
            return f"{where}: {got!r} != {want!r}"
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return f"{where}: {got!r} != {want!r}"
        return None
    if type(got) is not type(want):
        return f"{where}: type {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            return f"{where}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            found = _mismatch(got[key], want[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list):
        if len(got) != len(want):
            return f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            found = _mismatch(g, w, f"{where}[{i}]")
            if found:
                return found
        return None
    return None if got == want else f"{where}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    work_dir = str(tmp_path_factory.mktemp("golden"))
    return _build_inputs(work_dir), work_dir


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, inputs):
    paths, work_dir = inputs
    with open(os.path.join(GOLDEN_DIR, f"{name}.json")) as handle:
        want = json.load(handle)
    got = run_case(name, paths, work_dir)
    assert _mismatch(got, want) is None, _mismatch(got, want)


def test_mismatch_detects_differences():
    assert _mismatch({"a": [1.0, "x", True]}, {"a": [1.0 + 1e-14, "x", True]}) is None
    assert _mismatch({"a": 1.0}, {"a": 1.0 + 1e-9}) is not None
    assert _mismatch({"a": 1e-13}, {"a": 0.0}) is None
    assert _mismatch({"a": True}, {"a": 1}) is not None
    assert _mismatch({"a": "x"}, {"a": "y"}) is not None
    assert _mismatch({"a": [1]}, {"a": [1, 2]}) is not None
    assert _mismatch({"a": 1}, {"b": 1}) is not None


def _write_goldens(names):
    """Regenerate the named goldens, or all of them; print the files that changed."""
    import tempfile

    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown golden case(s): {', '.join(unknown)}")
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as work_dir:
        paths = _build_inputs(work_dir)
        for name in sorted(names or CASES):
            result = run_case(name, paths, work_dir)
            text = json.dumps(result, sort_keys=True, separators=(",", ":")) + "\n"
            path = os.path.join(GOLDEN_DIR, f"{name}.json")
            if not os.path.exists(path) or open(path).read() != text:
                with open(path, "w") as handle:
                    handle.write(text)
                print(f"changed {os.path.relpath(path)}")


if __name__ == "__main__" and sys.argv[1:2] == ["--write"]:
    _write_goldens(sys.argv[2:])
