import math

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from polycal.calibration import minimality_certificate
from polycal.chains import Chain, boundary, make_chain, mass, transport_chain
from polycal.complexes import build_complex, subdivide
from polycal.groups import IntegerGroup, MultivectorGroup, RealGroup
from polycal.solver import (
    FlatNormResult,
    MinMassProblem,
    SolverConfig,
    flat_norm_solve,
    min_mass_fixed_boundary,
)
from polycal.varifolds import chainify, generate_example
from test_acceptance import CATALOG, delaunay_complex, random_lambda_chain

REALS = RealGroup()


def within_gap(value, lower_bound, cfg):
    return value - lower_bound <= cfg.obj_tol * max(1.0, abs(lower_bound))


def catalog_cross_check(name):
    """The certificate's solve: the r0 chain's boundary on one refinement."""
    K, V, gamma = generate_example(name)
    refined, corr = subdivide(K, "barycentric")
    A2 = transport_chain(chainify(V), corr)
    problem = MinMassProblem(refined, V.dimension, boundary(A2), A2.group)
    return A2, min_mass_fixed_boundary(problem)


def triangle_with_filling():
    K = build_complex([[0, 0], [1, 0], [0, 1]], [(0, 1, 2)])
    G = MultivectorGroup(2, 2)
    Q = make_chain(K, 2, G, [((0, 1, 2), [1.0])])
    return K, G, boundary(Q)


# ---------------------------------------------------------------------------
# min mass with fixed boundary

def test_two_path_problem_picks_the_straight_edge():
    # straight edge 0-1 of length 2 vs a detour 0-2-1 of length 2*sqrt(2)
    K = build_complex([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]], [(0, 1), (0, 2), (1, 2)])
    b = make_chain(K, 0, REALS, [((1,), 1.0), ((0,), -1.0)])
    res = min_mass_fixed_boundary(MinMassProblem(K, 1, b, REALS))
    # oracle: the two candidate chains
    straight = mass(make_chain(K, 1, REALS, [((0, 1), 1.0)]))
    detour = mass(make_chain(K, 1, REALS, [((0, 2), 1.0), ((1, 2), 1.0)]))
    assert straight == pytest.approx(2.0)
    assert detour == pytest.approx(2.0 * math.sqrt(2.0))
    assert res.status == "converged"
    assert res.objective == pytest.approx(min(straight, detour), rel=1e-6)
    assert res.primal_residual <= 1e-7


def test_y_cone_beats_spanning_trees():
    # Y edges plus the triangle sides joining the endpoints
    K, V, gamma = generate_example("y_line")
    verts = K.vertices
    extra = [(1, 2), (1, 3), (2, 3)]
    K2 = build_complex(verts, K.simplex_rows[1].tolist() + extra)
    A0 = make_chain(
        K2,
        1,
        MultivectorGroup(2, 1),
        [
            (K.simplex_tuple(1, sid), g)
            for sid, g in zip(chainify(V).ids, chainify(V).coeffs)
        ],
    )
    b = boundary(A0)
    res = min_mass_fixed_boundary(MinMassProblem(K2, 1, b, A0.group))
    # oracle: enumerate the alternative spanning topologies by hand
    d = {i: verts[i] for i in range(4)}
    two_sides = min(
        np.linalg.norm(d[a] - d[b_]) + np.linalg.norm(d[a] - d[c])
        for a, b_, c in [(1, 2, 3), (2, 1, 3), (3, 1, 2)]
    )
    assert two_sides > 3.0  # each pair of sides is longer than the Y
    assert res.objective == pytest.approx(3.0, rel=1e-5)
    assert res.status == "converged"


def test_zero_boundary_gives_zero_chain():
    K = build_complex([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]], [(0, 1), (0, 2), (1, 2)])
    b = Chain(K, 0, REALS)
    res = min_mass_fixed_boundary(MinMassProblem(K, 1, b, REALS))
    assert res.objective == pytest.approx(0.0, abs=1e-10)
    assert res.chain.is_zero()


def test_infeasible_boundary_is_reported():
    # a single endpoint with net coefficient cannot bound a 1-chain
    K = build_complex([[0.0, 0.0], [1.0, 0.0]], [(0, 1)])
    b = make_chain(K, 0, REALS, [((0,), 1.0)])
    res = min_mass_fixed_boundary(MinMassProblem(K, 1, b, REALS))
    assert res.status == "infeasible"
    assert res.primal_residual > 1e-3


def test_problem_validation():
    K, G, A = triangle_with_filling()
    with pytest.raises(ValueError, match="dimension"):
        MinMassProblem(K, 1, A, G)  # A has dimension 1, boundary must be 0
    with pytest.raises(ValueError, match="group"):
        MinMassProblem(K, 2, A, MultivectorGroup(2, 1))
    with pytest.raises(ValueError, match="retagging"):
        MinMassProblem(K, 1, Chain(K, 0, IntegerGroup()), IntegerGroup())


def test_calibration_lower_bound_certifies_optimum():
    K, V, gamma = generate_example("y_line")
    A0 = chainify(V)
    b = boundary(A0)
    lb = mass(A0)  # calibrated, so phi(A0) = M(A0)
    res = min_mass_fixed_boundary(MinMassProblem(K, 1, b, A0.group))
    assert res.objective >= lb - 1e-8
    assert res.objective == pytest.approx(lb, rel=1e-5)
    assert res.gap is not None and res.gap <= 1e-5 * max(1.0, lb)


def test_solver_is_deterministic():
    K, G, A = triangle_with_filling()
    b = boundary(make_chain(K, 2, G, [((0, 1, 2), [2.0])]))
    cfg = SolverConfig()
    r1 = min_mass_fixed_boundary(MinMassProblem(K, 2, b, G, cfg))
    r2 = min_mass_fixed_boundary(MinMassProblem(K, 2, b, G, cfg))
    assert r1.objective == r2.objective
    assert r1.iterations == r2.iterations
    assert r1.primal_residual == r2.primal_residual


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_cross_check_stops_on_its_own_gap(name):
    A2, res = catalog_cross_check(name)
    assert res.status == "converged"
    assert res.lower_bound <= mass(A2) + res.config.primal_tol
    assert res.gap == res.objective - res.lower_bound
    assert within_gap(res.objective, res.lower_bound, res.config)
    # the calibration dual start is optimal: the first gap check stops the solve
    assert res.iterations == SolverConfig().check_every


def test_min_mass_reports_a_feasible_objective():
    # A2 is calibrated, so M(A2) is the exact minimum of the restricted problem
    A2, res = catalog_cross_check("tetrahedral_cone")
    assert res.objective >= mass(A2) * (1 - 1e-12)
    assert res.gap >= 0


def test_tetrahedral_cone_cross_check_iterations():
    # the iteration count is deterministic; diagonal steps need at most 2,500
    _, res = catalog_cross_check("tetrahedral_cone")
    assert res.status == "converged"
    assert res.iterations <= 2_500


def test_certify_with_solver_at_r2_converges_at_the_first_check():
    # a cold dual start needs 95,400 iterations here; the cap turns a lost
    # dual start into a fast iteration-cap failure instead of a long solve
    K, V, gamma = generate_example("tetrahedral_cone", refinement=2)
    cfg = SolverConfig(max_iter=1_000)
    cert = minimality_certificate(V, gamma, with_solver=True, solver_config=cfg)
    info = cert.provenance["solver"]
    assert (info["status"], info["iterations"]) == ("converged", cfg.check_every)
    assert cert.conclusion == "calibrated-minimizer"


def test_solver_config_ignores_unknown_keys():
    cfg = SolverConfig.from_json({"max_iter": 10, "relax": 1.5, "comment": "fast"})
    assert (cfg.max_iter, cfg.relax, cfg.check_every) == (10, 1.5, 100)


# ---------------------------------------------------------------------------
# flat norm

def oracle_line_search_triangle(A, K):
    """1-d oracle: scan the single filling coefficient q."""
    per = mass(A)
    area = K.volumes(2)[0]
    qs = np.linspace(-2.0, 2.0, 40001)
    vals = np.abs(1 + qs) * per + np.abs(qs) * area
    return float(vals.min())


def test_flat_norm_of_triangle_boundary():
    K, G, A = triangle_with_filling()
    oracle = oracle_line_search_triangle(A, K)
    assert oracle == pytest.approx(0.5, abs=1e-4)
    res = flat_norm_solve(A)
    assert res.value == pytest.approx(0.5, abs=1e-6)
    assert res.value < mass(A)
    # the optimal filling is -1 times the triangle
    assert res.filling.ids.tolist() == [0]
    assert res.filling.coeffs[0] == pytest.approx([-1.0], abs=1e-5)
    # remainder = A + dQ* vanishes
    assert mass(res.remainder) <= 1e-6


def test_flat_norm_without_fillings_equals_mass():
    K = build_complex([[0, 0], [1, 0]], [(0, 1)])
    A = make_chain(K, 1, REALS, [((0, 1), 3.0)])
    res = flat_norm_solve(A)
    assert res.value == pytest.approx(mass(A))
    assert res.filling.is_zero()
    assert res.used_zero_filling


def test_flat_norm_of_zero_chain():
    K, G, _ = triangle_with_filling()
    res = flat_norm_solve(Chain(K, 1, G))
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_flat_norm_never_exceeds_mass():
    rng = np.random.default_rng(61)
    K = build_complex(
        [[0, 0], [1, 0], [0, 1], [1, 1]], [(0, 1, 2), (1, 2, 3)]
    )
    G = MultivectorGroup(2, 1)
    for _ in range(10):
        terms = [
            (K.simplex_tuple(1, i), rng.standard_normal(2))
            for i in range(K.n_simplices(1))
        ]
        A = make_chain(K, 1, G, terms)
        res = flat_norm_solve(A)
        assert res.value <= mass(A) + 1e-12


def test_flat_norm_monotone_under_refinement():
    K, G, A = triangle_with_filling()
    before = flat_norm_solve(A).value
    refined, corr = subdivide(K, "barycentric")
    after = flat_norm_solve(transport_chain(A, corr)).value
    assert after <= before + 1e-8


def test_converged_flat_norms_carry_their_duality_gap():
    # the acceptance suite's criterion-6 draws
    rng = np.random.default_rng(66)
    pool = [delaunay_complex(rng, 14, 2) for _ in range(4)]
    cfg = SolverConfig(max_iter=60_000)
    for i in range(100):
        res = flat_norm_solve(random_lambda_chain(rng, pool[i % len(pool)], 1), cfg)
        assert res.status == "converged", i
        assert within_gap(res.value, res.lower_bound, cfg), i


# ---------------------------------------------------------------------------
# exact cross-check: for R coefficients both problems are linear programs

def lp_optimum(M, weights, target):
    """min w.|x| s.t. M x = c, with x split into positive and negative parts."""
    res = linprog(
        np.concatenate([weights, weights]),
        A_eq=sparse.hstack([M, -M]),
        b_eq=target,
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)


def random_real_chain(rng, K, m, max_terms=6):
    n = K.n_simplices(m)
    picks = rng.choice(n, size=int(rng.integers(1, min(max_terms, n) + 1)), replace=False)
    return make_chain(K, m, REALS, [(K.simplex_tuple(m, int(i)), rng.standard_normal()) for i in picks])


def dense(chain):
    out = np.zeros(chain.complex.n_simplices(chain.dimension))
    out[chain.ids] = chain.coeffs[:, 0]
    return out


def test_scalar_solves_match_the_exact_lp():
    rng = np.random.default_rng(14)
    cfg = SolverConfig()
    for _ in range(8):
        K = delaunay_complex(rng, 14, 2)
        A = random_real_chain(rng, K, 1)
        b = boundary(A)
        res = min_mass_fixed_boundary(MinMassProblem(K, 1, b, REALS, cfg))
        lp = lp_optimum(K.boundary_matrix(1), K.volumes(1), dense(b))
        assert res.status == "converged"
        assert res.lower_bound <= lp + cfg.primal_tol
        assert abs(res.objective - lp) <= cfg.obj_tol * max(1.0, lp)

        flat = flat_norm_solve(A, cfg)
        n1 = K.n_simplices(1)
        M = sparse.hstack([sparse.identity(n1), -K.boundary_matrix(2)])
        lp = lp_optimum(M, np.concatenate([K.volumes(1), K.volumes(2)]), dense(A))
        assert flat.status == "converged"
        assert flat.lower_bound <= lp + cfg.primal_tol
        assert abs(flat.value - lp) <= cfg.obj_tol * max(1.0, lp)
