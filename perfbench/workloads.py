"""The four workloads: input generation (set-up) and the operation lists.

``setup(cli_main, name, work_dir, seed)`` writes the inputs of one workload
under ``work_dir`` and returns ``(ops, warmup)``: ``ops`` is the list of
operations the timed loop cycles through, each a dict with the ``polycal``
argv, the output path and the expectation the checker uses; ``warmup`` is
one extra operation run before timing starts.  Catalog bundles are written
by the program's own ``demo`` command, as a user would make them.

The seed orders each cycle (in the worker), picks the plane of the
unbalanced cone, and moves the flat-norm complexes; it never changes how
much work an input takes, so runs on different seeds stay comparable.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from check import catalog_base_count, catalog_mass

WORKLOADS = ("certify_refined", "oracle_crosscheck", "flatnorm_random", "refine_generate")

# (label, catalog name, refinement, sectors or None)
CERTIFY_REFINED = [
    ("tetrahedral_cone-r4", "tetrahedral_cone", 4, None),
    ("y_times_r-r4", "y_times_r", 4, None),
    ("plane_disk12-r3", "plane_disk", 3, 12),
    ("tetrahedral_cone-r3", "tetrahedral_cone", 3, None),
]
ORACLE_CROSSCHECK = [
    ("y_line-r1", "y_line", 1, None),
    ("tetrahedral_cone-r0", "tetrahedral_cone", 0, None),
    ("tetrahedral_cone-r1", "tetrahedral_cone", 1, None),
    ("y_times_r-r1", "y_times_r", 1, None),
    ("plane_disk-r1", "plane_disk", 1, None),
]
REFINE_GENERATE = CERTIFY_REFINED
FLATNORM_COMPLEXES = 4
FLATNORM_POINTS = 14
FLATNORM_POOL_SEED = 66     # the acceptance suite's criterion-6 seed
FLATNORM_CHAINS = 100
UNBALANCED_SCALE = 1.5


def _demo_argv(name, refinement, sectors, out):
    argv = ["demo", name, "--refine", str(refinement), "--out", out]
    if sectors is not None:
        argv += ["--sectors", str(sectors)]
    return argv


def _write_demo(cli_main, name, refinement, sectors, path):
    code = cli_main(_demo_argv(name, refinement, sectors, path))
    if code != 0:
        raise RuntimeError(f"set-up: polycal demo {name} --refine {refinement} exited {code}")


def _certify_op(label, bundle, out, expect, with_solver=False):
    argv = ["certify", "--in", bundle, "--out", out]
    if with_solver:
        argv.append("--with-solver")
    return {"label": label, "argv": argv, "out": out, "expect": expect}


def _unbalance(src, dst, rng):
    """Copy a bundle, scaling by 1.5 the weights on one side of a random plane.

    The plane passes through the cone point, so both sides hold simplices and
    some interior face separates a scaled from an unscaled simplex: the copy
    is not stationary, and ``certify`` must say ``boundary-not-in-gamma``.
    """
    with open(src) as handle:
        doc = json.load(handle)
    verts = np.asarray(doc["complex"]["vertices"], dtype=float)
    normal = rng.standard_normal(verts.shape[1])
    for entry in doc["varifold"]["weights"]:
        if verts[entry["simplex"]].mean(axis=0) @ normal > 0:
            entry["c"] *= UNBALANCED_SCALE
    with open(dst, "w") as handle:
        json.dump(doc, handle, indent=2)


def _catalog_expect(name, sectors, with_solver=False):
    return {
        "kind": "certify",
        "mass": catalog_mass(name, sectors or 6),
        "verdict": "calibrated-minimizer",
        "code": 0,
        "with_solver": with_solver,
    }


def _setup_certify_refined(cli_main, work_dir, rng):
    ops = []
    for label, name, k, sectors in CERTIFY_REFINED:
        bundle = os.path.join(work_dir, f"{label}.json")
        _write_demo(cli_main, name, k, sectors, bundle)
        out = os.path.join(work_dir, f"{label}.out.json")
        ops.append(_certify_op(label, bundle, out, _catalog_expect(name, sectors)))
    label = "tetrahedral_cone-r4-unbalanced"
    bundle = os.path.join(work_dir, f"{label}.json")
    _unbalance(os.path.join(work_dir, "tetrahedral_cone-r4.json"), bundle, rng)
    expect = dict(_catalog_expect("tetrahedral_cone", None), verdict="boundary-not-in-gamma", code=1)
    ops.append(_certify_op(label, bundle, os.path.join(work_dir, f"{label}.out.json"), expect))
    return ops, ops[3]


def _setup_oracle_crosscheck(cli_main, work_dir, rng):
    ops = []
    for label, name, k, sectors in ORACLE_CROSSCHECK:
        bundle = os.path.join(work_dir, f"{label}.json")
        _write_demo(cli_main, name, k, sectors, bundle)
        out = os.path.join(work_dir, f"{label}.out.json")
        ops.append(_certify_op(label, bundle, out, _catalog_expect(name, sectors, True), True))
    return ops, ops[1]


def _criterion6_pool():
    """The acceptance suite's criterion-6 inputs, drawn in the same order:
    four 14-point Delaunay complexes, then 100 chains of 1-6 random
    Lambda_1 R^2 terms.  Returns ([(points, triangles)], [(complex, terms)])."""
    from scipy.spatial import Delaunay

    rng = np.random.default_rng(FLATNORM_POOL_SEED)
    complexes = []
    for _ in range(FLATNORM_COMPLEXES):
        pts = rng.uniform(size=(FLATNORM_POINTS, 2))
        tris = [tuple(sorted(int(v) for v in s)) for s in Delaunay(pts).simplices]
        complexes.append((pts, tris))
    chains = []
    for i in range(FLATNORM_CHAINS):
        pts, tris = complexes[i % len(complexes)]
        edges = sorted({(t[a], t[b]) for t in tris for a in range(3) for b in range(a + 1, 3)})
        picks = rng.choice(len(edges), size=int(rng.integers(1, min(6, len(edges)) + 1)), replace=False)
        chains.append((i % len(complexes), [(edges[int(p)], rng.standard_normal(2)) for p in picks]))
    return complexes, chains


def _flatnorm_op(label, complex_path, chain_doc, work_dir, expect):
    chain_path = os.path.join(work_dir, f"{label}.chain.json")
    with open(chain_path, "w") as handle:
        json.dump(chain_doc, handle)
    out = os.path.join(work_dir, f"{label}.out.json")
    argv = ["flatnorm", "--in", complex_path, "--in", chain_path, "--out", out]
    return {"label": label, "argv": argv, "out": out, "expect": expect}


def _setup_flatnorm_random(cli_main, work_dir, rng):
    """The criterion-6 chains plus the unit right triangle, each complex
    moved by a seeded rigid motion and its vertices relabelled.

    The moves leave every mass, phi and flat norm unchanged, so the solver's
    work barely depends on the seed, while the program still receives
    different numbers for each seed.  References come from the moved data.
    """
    complexes, chains = _criterion6_pool()
    placed = []
    for i, (pts, tris) in enumerate(complexes):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        label = rng.permutation(len(pts))           # old vertex id -> new id
        moved = np.empty_like(pts)
        moved[label] = pts @ rot.T + rng.uniform(-1.0, 1.0, size=2)
        doc = {"ambient_dim": 2, "vertices": moved.tolist(),
               "simplices": [sorted(int(label[v]) for v in t) for t in tris]}
        path = os.path.join(work_dir, f"delaunay{i}.json")
        with open(path, "w") as handle:
            json.dump(doc, handle)
        placed.append((path, moved, label, rot))
    group = {"kind": "multivector", "ambient_dim": 2, "grade": 1}
    ops = []
    for i, (which, raw_terms) in enumerate(chains):
        path, moved, label, rot = placed[which]
        terms, ref_mass, ref_phi = [], 0.0, 0.0
        for (a, b), coeff in raw_terms:
            a, b = int(label[a]), int(label[b])
            coeff = rot @ coeff
            tangent = moved[b] - moved[a]
            ref_mass += float(np.linalg.norm(coeff) * np.linalg.norm(tangent))
            ref_phi += float(coeff @ tangent)
            terms.append({"simplex": [a, b], "coeff": coeff.tolist()})
        expect = {"kind": "flatnorm", "mass": ref_mass, "phi": ref_phi, "flat": None}
        chain = {"dimension": 1, "group": group, "terms": terms}
        ops.append(_flatnorm_op(f"chain{i:03d}", path, chain, work_dir, expect))
    # the boundary of the unit right triangle: F = 0.5 against M = 2 + sqrt 2
    tri_path = os.path.join(work_dir, "triangle.json")
    with open(tri_path, "w") as handle:
        json.dump({"ambient_dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]], "simplices": [[0, 1, 2]]}, handle)
    chain = {
        "dimension": 1,
        "group": {"kind": "multivector", "ambient_dim": 2, "grade": 2},
        "terms": [
            {"simplex": [1, 2], "coeff": [1.0]},
            {"simplex": [0, 2], "coeff": [-1.0]},
            {"simplex": [0, 1], "coeff": [1.0]},
        ],
    }
    expect = {"kind": "flatnorm", "mass": 2.0 + math.sqrt(2.0), "phi": None, "flat": 0.5}
    ops.append(_flatnorm_op("triangle", tri_path, chain, work_dir, expect))
    return ops, ops[-1]


def _setup_refine_generate(cli_main, work_dir, rng):
    """The unrefined bundles are the checker's input: a refinement keeps
    every base vertex in place."""
    ops = []
    for label, name, k, sectors in REFINE_GENERATE:
        base = os.path.join(work_dir, f"{label}.base.json")
        _write_demo(cli_main, name, 0, sectors, base)
        out = os.path.join(work_dir, f"{label}.out.json")
        expect = {
            "kind": "demo",
            "mass": catalog_mass(name, sectors or 6),
            "count": catalog_base_count(name, sectors or 6) * 6**k,
            "base": base,
        }
        ops.append({"label": label, "argv": _demo_argv(name, k, sectors, out), "out": out, "expect": expect})
    return ops, ops[3]


_SETUPS = {
    "certify_refined": _setup_certify_refined,
    "oracle_crosscheck": _setup_oracle_crosscheck,
    "flatnorm_random": _setup_flatnorm_random,
    "refine_generate": _setup_refine_generate,
}


def setup(cli_main, name: str, work_dir: str, seed: int):
    """Write the workload's inputs; returns (ops, warm-up op)."""
    os.makedirs(work_dir, exist_ok=True)
    return _SETUPS[name](cli_main, work_dir, np.random.default_rng(seed))
