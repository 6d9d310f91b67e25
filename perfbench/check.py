"""Output checker: judges each operation against closed-form references.

Nothing here imports polycal.  Every reference is either a closed form
(catalog masses) or computed here from the operation's own input data
(flat-norm chains), so a defect in the program cannot also move its
reference.  ``judge`` returns ``None`` for a correct operation and a short
reason otherwise; every reason counts as one failed operation.

Run ``python3 perfbench/check.py`` to self-test the checker: a correct
payload must pass, and a corrupted payload or a wrong verdict must fail.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

CERTIFY_TOL = 1e-9      # phi and mass against the closed form, relative
SOLVER_TOL = 1e-5       # oracle objective against the closed form, relative
FLAT_TOL = 1e-8         # phi <= F <= M slack, absolute as in the CLI
TRIANGLE_TOL = 1e-6     # unit right triangle flat norm against 0.5
DEMO_TOL = 1e-12        # generated varifold mass against the closed form, relative


def catalog_mass(name: str, sectors: int = 6) -> float:
    """Closed-form mass of a unit-radius catalog truncation."""
    if name == "tetrahedral_cone":
        return 2.0 * math.sqrt(2.0)
    if name == "y_line":
        return 3.0
    if name == "y_times_r":
        return 3.0  # 3 * radius * height, both 1
    if name == "plane_disk":
        return sectors / 2.0 * math.sin(2.0 * math.pi / sectors)
    raise ValueError(f"no closed form for {name!r}")


def catalog_base_count(name: str, sectors: int = 6) -> int:
    """Weighted top simplices of the unrefined catalog entry."""
    return {"tetrahedral_cone": 6, "y_times_r": 6, "y_line": 3, "plane_disk": sectors}[name]


def _rel_close(value, ref, tol) -> bool:
    return value is not None and math.isfinite(value) and abs(value - ref) <= tol * abs(ref)


def _check_certify(payload, code, expect):
    if expect["verdict"] != "calibrated-minimizer":
        if code != expect["code"]:
            return f"exit {code}, expected {expect['code']}"
        if payload.get("conclusion") != expect["verdict"]:
            return f"verdict {payload.get('conclusion')!r}, expected {expect['verdict']!r}"
        return None
    if code != 0:
        return f"exit {code}, expected 0"
    if payload.get("conclusion") != "calibrated-minimizer":
        return f"verdict {payload.get('conclusion')!r}, expected 'calibrated-minimizer'"
    checks = {c["name"]: c for c in payload.get("checks", [])}
    if not checks or not all(c["pass"] for c in checks.values()):
        return "a check of a calibrated-minimizer did not pass"
    ref = expect["mass"]
    prov = payload.get("provenance", {})
    if not _rel_close(prov.get("varifold_mass"), ref, CERTIFY_TOL):
        return f"mass {prov.get('varifold_mass')!r} misses closed form {ref!r}"
    # the payload reports |phi - mass|; with mass on the closed form this
    # bounds phi within twice the tolerance
    equality = checks.get("calibration-equality")
    if equality is None or not equality["residual"] <= CERTIFY_TOL * ref:
        return "phi misses the closed-form mass"
    if expect.get("with_solver"):
        solver = prov.get("solver", {})
        if not solver.get("ran") or solver.get("status") != "converged":
            return f"solver status {solver.get('status')!r}, expected 'converged'"
        if not _rel_close(solver.get("objective"), ref, SOLVER_TOL):
            return f"solver objective {solver.get('objective')!r} misses closed form {ref!r}"
    return None


def _check_flatnorm(payload, code, expect):
    if code != 0:
        return f"exit {code}, expected 0"
    if payload.get("passed") is not True:
        return "flat-norm report did not pass"
    flat = payload.get("flat_value")
    if flat is None or not math.isfinite(flat):
        return f"flat norm {flat!r} is not finite"
    ref_mass, ref_phi = expect["mass"], expect["phi"]
    if not abs(payload.get("mass", math.nan) - ref_mass) <= CERTIFY_TOL * max(1.0, ref_mass):
        return f"mass {payload.get('mass')!r} misses reference {ref_mass!r}"
    if ref_phi is not None:
        got_phi = payload.get("phi")
        if got_phi is None or not abs(got_phi - ref_phi) <= CERTIFY_TOL * max(1.0, ref_mass):
            return f"phi {got_phi!r} misses reference {ref_phi!r}"
        if flat < ref_phi - FLAT_TOL:
            return f"flat norm {flat!r} below phi {ref_phi!r}"
    if flat > ref_mass + FLAT_TOL:
        return f"flat norm {flat!r} above mass {ref_mass!r}"
    if expect.get("flat") is not None and not abs(flat - expect["flat"]) <= TRIANGLE_TOL:
        return f"flat norm {flat!r} misses reference {expect['flat']!r}"
    return None


def _check_demo(payload, code, expect):
    if code != 0:
        return f"exit {code}, expected 0"
    verts = np.asarray(payload["complex"]["vertices"], dtype=float)
    entries = payload["varifold"]["weights"]
    if len(entries) != expect["count"]:
        return f"{len(entries)} weighted simplices, expected {expect['count']}"
    tris = np.asarray([e["simplex"] for e in entries], dtype=int)
    weights = np.asarray([e["c"] for e in entries], dtype=float)
    if tris.shape[1] != 3:
        return "expected a 2-dimensional varifold"
    a, b, c = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    total = float(weights @ areas)
    if not _rel_close(total, expect["mass"], DEMO_TOL):
        return f"generated mass {total!r} misses closed form {expect['mass']!r}"
    if expect.get("base"):
        with open(expect["base"]) as handle:
            base = json.load(handle)["complex"]["vertices"]
        if not {tuple(v) for v in base} <= {tuple(v) for v in verts.tolist()}:
            return "a base vertex moved or vanished in the refinement"
    return None


_CHECKERS = {"certify": _check_certify, "flatnorm": _check_flatnorm, "demo": _check_demo}


def judge(expect: dict, code, out_path: str):
    """None when the operation's exit code and output match; else a reason."""
    if code is None:
        return "raised"
    if not os.path.exists(out_path):
        return f"exit {code} and no output written"
    try:
        with open(out_path) as handle:
            payload = json.load(handle)
        return _CHECKERS[expect["kind"]](payload, code, expect)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"


# ---------------------------------------------------------------------------
# self-test

def _good_certify(ref):
    return {
        "checks": [
            {"name": "stationarity", "pass": True, "residual": 1e-15, "tol": 1e-9},
            {"name": "calibration-equality", "pass": True, "residual": 1e-15, "tol": 1e-9},
        ],
        "conclusion": "calibrated-minimizer",
        "provenance": {"varifold_mass": ref, "solver": {"ran": False}},
    }


def selftest(work_dir: str):
    """Correct payloads pass; corrupted payloads and wrong verdicts fail.

    Returns the list of cases that were judged wrongly (empty on success).
    """
    ref = catalog_mass("tetrahedral_cone")
    certify = {"kind": "certify", "mass": ref, "verdict": "calibrated-minimizer", "code": 0}
    unbalanced = dict(certify, verdict="boundary-not-in-gamma", code=1)
    flat = {"kind": "flatnorm", "mass": 2.0, "phi": 1.0, "flat": None}
    corrupted = _good_certify(ref)
    corrupted["provenance"]["varifold_mass"] = ref * (1 + 1e-6)
    wrong_verdict = _good_certify(ref)
    wrong_verdict["conclusion"] = "not-calibrated"
    unbalanced_ok = dict(_good_certify(ref), conclusion="boundary-not-in-gamma")
    demo = {
        "complex": {"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]},
        "varifold": {"weights": [{"simplex": [0, 1, 2], "c": 1.0}]},
    }
    cases = [
        ("correct certify", certify, 0, _good_certify(ref), True),
        ("corrupted mass", certify, 0, corrupted, False),
        ("wrong verdict", certify, 1, wrong_verdict, False),
        ("right verdict, wrong exit code", certify, 1, _good_certify(ref), False),
        ("expected failure verdict", unbalanced, 1, unbalanced_ok, True),
        ("failure verdict reported as pass", unbalanced, 0, _good_certify(ref), False),
        ("correct flat norm", flat, 0, {"passed": True, "flat_value": 1.5, "mass": 2.0, "phi": 1.0}, True),
        ("flat norm above mass", flat, 0, {"passed": True, "flat_value": 2.1, "mass": 2.0, "phi": 1.0}, False),
        ("truncated payload", certify, 0, None, False),
        ("correct demo", {"kind": "demo", "mass": 0.5, "count": 1}, 0, demo, True),
        ("demo with a lost simplex", {"kind": "demo", "mass": 0.5, "count": 2}, 0, demo, False),
        ("raised", certify, None, _good_certify(ref), False),
    ]
    os.makedirs(work_dir, exist_ok=True)
    path = os.path.join(work_dir, "selftest.json")
    wrong = []
    for name, expect, code, payload, should_pass in cases:
        with open(path, "w") as handle:
            handle.write('{"checks": [' if payload is None else json.dumps(payload))
        if (judge(expect, code, path) is None) != should_pass:
            wrong.append(name)
    os.remove(path)
    if judge(certify, 0, path) is None:
        wrong.append("missing output")
    return wrong


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    failures = selftest(os.path.join(root, ".perfbench_work"))
    print("checker self-test:", "ok" if not failures else f"FAILED {failures}")
    sys.exit(1 if failures else 0)
