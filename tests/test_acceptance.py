"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they go.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.spatial import Delaunay

from polycal.calibration import phi, phi_flat_bound
from polycal.chains import (
    boundary,
    combine,
    is_supported_in,
    make_chain,
    mass,
    retag_chain,
    transport_chain,
)
from polycal.complexes import BoundaryRegion, build_complex, subdivide
from polycal.groups import (
    IntegerGroup,
    MultivectorGroup,
    RealGroup,
    SubgroupWithNorm,
    integrality_check,
    norm_ball,
    subgroup_norm,
)
from polycal.solver import MinMassProblem, SolverConfig, flat_norm_solve, min_mass_fixed_boundary
from polycal.varifolds import (
    PolyhedralVarifold,
    chainify,
    deform_experiment,
    generate_example,
    make_varifold,
    stationarity,
)

CATALOG = ("plane_disk", "y_line", "y_times_r", "tetrahedral_cone")


def report(num, name, ok, detail=""):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def catalog_entries():
    return [(name, *generate_example(name)) for name in CATALOG]


def delaunay_complex(rng, n_points, dim):
    pts = rng.uniform(size=(n_points, dim))
    tri = Delaunay(pts)
    return build_complex(pts, [tuple(sorted(s)) for s in tri.simplices])


def random_lambda_chain(rng, K, m, max_terms=6, grade=None):
    grade = m if grade is None else grade
    G = MultivectorGroup(K.ambient_dim, grade)
    width = G.width
    n = K.n_simplices(m)
    picks = rng.choice(n, size=int(rng.integers(1, min(max_terms, n) + 1)), replace=False)
    terms = [
        (K.simplex_tuple(m, int(i)), rng.standard_normal(width))
        for i in picks
    ]
    return make_chain(K, m, G, terms)


# ---------------------------------------------------------------------------

def test_criterion_1_catalog_stationarity():
    worst = 0.0
    slowest = 0.0
    for name, K, V, gamma in catalog_entries():
        t0 = time.perf_counter()
        rep = stationarity(V, gamma, tol=1e-10)
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        worst = max(worst, rep.max_residual)
        assert rep.is_stationary, f"{name} residual {rep.max_residual}"
        assert elapsed < 1.0, f"{name} took {elapsed:.2f}s"
    # L-shape fixture fails with residual sqrt(2)
    K = build_complex([[0, 0], [1, 0], [0, 1]], [(0, 1), (0, 2)])
    V = make_varifold(K, 1, [((0, 1), 1.0), ((0, 2), 1.0)])
    gamma = BoundaryRegion.from_tuples(K, [(1,), (2,)])
    t0 = time.perf_counter()
    rep = stationarity(V, gamma)
    elapsed = time.perf_counter() - t0
    assert not rep.is_stationary
    assert abs(rep.max_residual - math.sqrt(2.0)) <= 1e-10
    assert elapsed < 1.0
    report(
        1,
        "catalog stationarity",
        True,
        f"max catalog residual {worst:.2e}, L-shape residual sqrt(2) +/- 1e-10, "
        f"slowest check {slowest * 1e3:.0f} ms",
    )


def test_criterion_2_stationarity_boundary_equivalence():
    rng = np.random.default_rng(2026)
    disagreements = 0
    cases = 0
    for name, K, V, gamma in catalog_entries():
        variants = [V]
        for _ in range(50):
            scales = rng.uniform(0.4, 1.8, size=len(V.weights))
            variants.append(PolyhedralVarifold(K, V.dimension, V.ids, V.weights * scales))
        for W in variants:
            cases += 1
            stat = stationarity(W, gamma, tol=1e-9).is_stationary
            supported = is_supported_in(boundary(chainify(W)), gamma, tol=1e-9)
            if stat != supported:
                disagreements += 1
    report(
        2,
        "theorem: stationary iff boundary supported in gamma",
        disagreements == 0,
        f"{cases} cases, {disagreements} disagreements",
    )


def test_criterion_3_calibration_identities():
    rng = np.random.default_rng(33)
    pool = [delaunay_complex(rng, 24, 2) for _ in range(4)]
    pool += [delaunay_complex(rng, 12, 3) for _ in range(4)]
    for K in pool:
        assert sum(K.n_simplices(d) for d in range(K.dim + 1)) <= 200
    # Phi <= M and additivity on 1000 random chains
    worst_add = 0.0
    for i in range(500):
        K = pool[i % len(pool)]
        m = K.dim - 1
        A = random_lambda_chain(rng, K, m)
        B = random_lambda_chain(rng, K, m)
        assert phi(A) <= mass(A) + 1e-12
        assert phi(B) <= mass(B) + 1e-12
        worst_add = max(worst_add, abs(phi(combine(A, B, 1)) - phi(A) - phi(B)))
    assert worst_add <= 1e-12
    # Stokes vanishing on 1000 random (m+1)-chains, plus exact dd = 0
    worst_stokes = 0.0
    for i in range(1000):
        K = pool[i % len(pool)]
        m = K.dim - 1
        Q = random_lambda_chain(rng, K, m + 1, grade=m)
        residual = abs(phi(boundary(Q))) / (1.0 + mass(Q))
        worst_stokes = max(worst_stokes, residual)
        if i % 10 == 0:
            assert boundary(boundary(Q)).is_zero()
    assert worst_stokes <= 1e-10
    report(
        3,
        "calibration identities on random chains",
        True,
        f"additivity residual {worst_add:.2e}, stokes residual {worst_stokes:.2e}, "
        "dd = 0 exact",
    )


def test_criterion_4_minimize_reproduces_cone_mass():
    details = []
    for name in ("y_line", "tetrahedral_cone"):
        K, V, gamma = generate_example(name)
        t0 = time.perf_counter()
        refined, corr = subdivide(K, "barycentric")
        A0 = transport_chain(chainify(V), corr)
        lb = phi(A0)
        problem = MinMassProblem(refined, V.dimension, boundary(A0), A0.group)
        result = min_mass_fixed_boundary(problem)
        elapsed = time.perf_counter() - t0
        target = V.mass()
        assert result.status == "converged", name
        assert abs(result.objective - target) <= 1e-5 * target, name
        assert abs(result.objective - lb) <= 1e-5 * max(1.0, abs(lb)), name
        assert elapsed < 60.0, f"{name} took {elapsed:.1f}s"
        details.append(f"{name}: obj {result.objective:.9f} vs M(V) {target:.9f} in {elapsed:.2f}s")
    report(4, "solver reproduces calibrated cone mass", True, "; ".join(details))


def test_criterion_5_deformations_never_lose_mass():
    # one refinement level so that every cone has movable interior vertices
    details = []
    for name in ("y_line", "y_times_r", "tetrahedral_cone"):
        K, V, gamma = generate_example(name, radius=1.0, refinement=1)
        t0 = time.perf_counter()
        rep = deform_experiment(V, gamma, trials=100, magnitude=0.1, seed=11)
        elapsed = time.perf_counter() - t0
        assert rep.min_ratio >= 1.0 - 1e-9, f"{name} min ratio {rep.min_ratio}"
        assert elapsed < 30.0, f"{name} took {elapsed:.1f}s"
        details.append(f"{name}: min ratio {rep.min_ratio:.9f} ({rep.accepted} accepted)")
    report(5, "PL deformations never decrease mass", True, "; ".join(details))


def test_criterion_6_phi_flat_mass_chain():
    rng = np.random.default_rng(66)
    pool = [delaunay_complex(rng, 14, 2) for _ in range(4)]
    cfg = SolverConfig(max_iter=60_000)
    worst_lower = 0.0  # violation of phi <= F
    worst_upper = 0.0  # violation of F <= M
    for i in range(100):
        K = pool[i % len(pool)]
        A = random_lambda_chain(rng, K, 1)
        rep = phi_flat_bound(A, solver_config=cfg, tol=1e-8)
        assert rep.passed
        worst_lower = max(worst_lower, rep.phi - rep.flat_value)
        worst_upper = max(worst_upper, rep.flat_value - rep.mass)
    assert worst_lower <= 1e-8 and worst_upper <= 1e-8
    # the triangle reproduces F = 0.5 against M = 2 + sqrt(2)
    K = build_complex([[0, 0], [1, 0], [0, 1]], [(0, 1, 2)])
    G = MultivectorGroup(2, 2)
    A = boundary(make_chain(K, 2, G, [((0, 1, 2), [1.0])]))
    res = flat_norm_solve(A)
    assert abs(res.value - 0.5) <= 1e-6
    assert abs(mass(A) - (2.0 + math.sqrt(2.0))) <= 1e-12
    report(
        6,
        "phi <= flat norm <= mass",
        True,
        f"100 random chains, worst violations {worst_lower:.2e}/{worst_upper:.2e}; "
        f"triangle flat norm {res.value:.7f}",
    )


def box_oracle_ball(H, lam):
    """Independent coordinate-box enumeration of the norm ball."""
    norms = H.generator_norms
    k = len(norms)
    order = sorted(range(k), key=lambda i: -norms[i])  # mirror the cost ordering
    boxes = [int(math.floor(lam / w)) for w in norms]
    gen_rows = H.generators
    members = {}
    tol = 1e-9
    for coords in itertools.product(*[range(-b, b + 1) for b in boxes]):
        cost = 0.0
        for i in order:
            cost = cost + abs(coords[i]) * norms[i]
        if cost > lam + tol:
            continue
        value = np.asarray(coords) @ gen_rows
        key = tuple(np.round(value, 9))
        if key not in members or cost < members[key][0]:
            members[key] = (cost, value)
    return members


def test_criterion_7_subgroup_transfer():
    K, V, gamma = generate_example("tetrahedral_cone")
    A = chainify(V)
    G = A.group
    generators = list(A.coeffs)
    H = SubgroupWithNorm(G, generators)
    # retagging succeeds and preserves mass
    B = retag_chain(A, H)
    assert abs(mass(B) - mass(A)) <= 1e-9 * mass(A)
    # generator norms transfer exactly
    for i in range(H.width):
        unit = tuple(1 if j == i else 0 for j in range(H.width))
        assert abs(subgroup_norm(H, unit) - G.norm(generators[i])) <= 1e-9
    # norm ball vs the independent coordinate-box oracle
    lam = 3.0 * max(H.generator_norms)
    members = norm_ball(H, lam)
    oracle = box_oracle_ball(H, lam)
    assert len(members) == len(oracle)
    for m in members:
        key = tuple(np.round(m.value, 9))
        assert key in oracle
        cost, value = oracle[key]
        assert m.norm == cost  # identical float: same summation order
        assert float(np.max(np.abs(m.value - value))) <= 1e-12
    # integrality contract on integer-norm fixtures
    assert integrality_check(SubgroupWithNorm(RealGroup(), [2.0, 3.0]))
    assert integrality_check(SubgroupWithNorm(IntegerGroup(), [1, 1, 1]))
    assert not integrality_check(SubgroupWithNorm(RealGroup(), [math.sqrt(2.0)]))
    report(
        7,
        "subgroup norm transfer",
        True,
        f"retag mass drift {abs(mass(B) - mass(A)):.2e}, "
        f"ball({lam:g}) = {len(members)} elements matches box oracle",
    )


def test_criterion_8_subdivision_invariance():
    worst_mass = 0.0
    worst_phi = 0.0
    for name, K, V, gamma in catalog_entries():
        A = chainify(V)
        m0, p0 = mass(A), phi(A)
        current = A
        for _ in range(2):
            refined, corr = subdivide(current.complex, "barycentric")
            current = transport_chain(current, corr)
            worst_mass = max(worst_mass, abs(mass(current) - m0) / m0)
            worst_phi = max(worst_phi, abs(phi(current) - p0) / max(1.0, abs(p0)))
    ok = worst_mass <= 1e-11 and worst_phi <= 1e-11
    report(
        8,
        "mass and phi invariant under barycentric refinement",
        ok,
        f"worst relative drift: mass {worst_mass:.2e}, phi {worst_phi:.2e}",
    )
