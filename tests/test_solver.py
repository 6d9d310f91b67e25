import math

import numpy as np
import pytest

from polycal.chains import Chain, boundary, make_chain, mass, transport_chain
from polycal.complexes import build_complex, subdivide
from polycal.exterior_algebra import Multivector
from polycal.groups import IntegerGroup, MultivectorGroup, RealGroup
from polycal.solver import (
    FlatNormResult,
    MinMassProblem,
    SolverConfig,
    flat_norm_solve,
    min_mass_fixed_boundary,
)
from polycal.varifolds import chainify, generate_example

REALS = RealGroup()


def triangle_with_filling():
    K = build_complex([[0, 0], [1, 0], [0, 1]], [(0, 1, 2)])
    G = MultivectorGroup(2, 2)
    Q = make_chain(K, 2, G, [((0, 1, 2), Multivector(2, 2, [1.0]))])
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
    K2 = build_complex(verts, [t for t in K.simplices[1]] + extra)
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
    res = min_mass_fixed_boundary(MinMassProblem(K2, 1, b, A0.group), lower_bound=mass(A0))
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
    res = min_mass_fixed_boundary(MinMassProblem(K, 1, b, A0.group), lower_bound=lb)
    assert res.objective >= lb - 1e-8
    assert res.objective == pytest.approx(lb, rel=1e-5)
    assert res.gap is not None and res.gap <= 1e-5 * max(1.0, lb)


def test_solver_is_deterministic():
    K, G, A = triangle_with_filling()
    b = boundary(make_chain(K, 2, G, [((0, 1, 2), Multivector(2, 2, [2.0]))]))
    cfg = SolverConfig(seed=123)
    r1 = min_mass_fixed_boundary(MinMassProblem(K, 2, b, G, cfg))
    r2 = min_mass_fixed_boundary(MinMassProblem(K, 2, b, G, cfg))
    assert r1.objective == r2.objective
    assert r1.iterations == r2.iterations
    assert r1.primal_residual == r2.primal_residual


def test_solver_config_ignores_unknown_keys():
    cfg = SolverConfig.from_json({"max_iter": 10, "relax": 1.5, "comment": "fast"})
    assert (cfg.max_iter, cfg.relax, cfg.check_every) == (10, 1.5, 100)


# ---------------------------------------------------------------------------
# flat norm

def oracle_line_search_triangle(A, K):
    """1-d oracle: scan the single filling coefficient q."""
    per = mass(A)
    area = K.volume(2, 0)
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
            (K.simplex_tuple(1, i), Multivector(2, 1, rng.standard_normal(2)))
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
