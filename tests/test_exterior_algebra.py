import itertools
import math

import numpy as np
import pytest

from polycal.complexes import EmbeddedComplex
from polycal.exterior_algebra import (
    DegenerateSimplexError,
    basis_index_sets,
    blade_of_points,
    rowdot,
    volume_of_points,
    wedge_rows,
)
from polycal.groups import MultivectorGroup

# A grade-p multivector of R^n is a row of C(n, p) coefficients; the tests
# carry (n, p) alongside.


def basis(n, indices, coefficient=1.0):
    """The row of coefficient * e_indices in Lambda_len(indices) R^n."""
    row = np.zeros(math.comb(n, len(indices)))
    row[basis_index_sets(n, len(indices)).index(tuple(indices))] = coefficient
    return row


def wedge(a, b, n, p, q):
    return wedge_rows(a[None], b[None], n, p, q)[0]


def allclose(a, b, tol=1e-12):
    return a.shape == b.shape and np.allclose(a, b, rtol=0.0, atol=tol)


# ---------------------------------------------------------------------------
# independent oracles

def oracle_wedge(a, b, n, p, q):
    """Brute-force wedge: expand every basis pair, sort indices, count swaps."""
    out = np.zeros(math.comb(n, p + q))
    for sa, ca in zip(basis_index_sets(n, p), a):
        for sb, cb in zip(basis_index_sets(n, q), b):
            if ca == 0.0 or cb == 0.0:
                continue
            merged = list(sa + sb)
            if len(set(merged)) != len(merged):
                continue
            # bubble sort, counting transpositions
            swaps = 0
            for i in range(len(merged)):
                for j in range(len(merged) - 1 - i):
                    if merged[j] > merged[j + 1]:
                        merged[j], merged[j + 1] = merged[j + 1], merged[j]
                        swaps += 1
            sign = -1.0 if swaps % 2 else 1.0
            out = out + basis(n, merged, sign * ca * cb)
    return out


def cayley_menger_volume(points) -> float:
    """Simplex volume from the Cayley-Menger determinant."""
    points = np.asarray(points, dtype=float)
    m = points.shape[0] - 1
    d2 = np.square(points[:, None, :] - points[None, :, :]).sum(axis=2)
    cm = np.ones((m + 2, m + 2))
    cm[0, 0] = 0.0
    cm[1:, 1:] = d2
    det = np.linalg.det(cm)
    coef = (-1) ** (m + 1) / (2**m * math.factorial(m) ** 2)
    return math.sqrt(max(coef * det, 0.0))


def random_rotation(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_multivector(rng, n, grade):
    return rng.standard_normal(math.comb(n, grade))


def inner(a, b):
    return float(rowdot(a[None], b[None])[0])


E1 = basis(3, (0,))
E2 = basis(3, (1,))
E12 = basis(3, (0, 1))


# ---------------------------------------------------------------------------
# wedge

def test_wedge_of_basis_vectors_is_basis_bivector():
    assert allclose(wedge(E1, E2, 3, 1, 1), E12)


def test_wedge_with_itself_vanishes():
    assert np.linalg.norm(wedge(E1, E1, 3, 1, 1)) <= 0.0


def test_wedge_bilinear_expansion_matches_oracle():
    v = E1 + E2
    expected = oracle_wedge(v, E2, 3, 1, 1)
    assert allclose(expected, E12)  # (e1+e2)^e2 = e12
    assert allclose(wedge(v, E2, 3, 1, 1), expected)


def test_wedge_matches_oracle_on_random_pairs():
    rng = np.random.default_rng(7)
    for n, p, q in [(3, 1, 1), (4, 1, 2), (4, 2, 2), (5, 2, 1), (5, 1, 3)]:
        a = random_multivector(rng, n, p)
        b = random_multivector(rng, n, q)
        assert allclose(wedge(a, b, n, p, q), oracle_wedge(a, b, n, p, q), tol=1e-12)


def test_wedge_graded_anticommutativity():
    rng = np.random.default_rng(11)
    for n, p, q in [(4, 1, 1), (4, 1, 2), (5, 2, 2), (5, 2, 3)]:
        a = random_multivector(rng, n, p)
        b = random_multivector(rng, n, q)
        lhs = wedge(a, b, n, p, q)
        rhs = (-1.0) ** (p * q) * wedge(b, a, n, q, p)
        assert allclose(lhs, rhs, tol=1e-12)


def test_wedge_associativity():
    rng = np.random.default_rng(13)
    for _ in range(5):
        a = random_multivector(rng, 5, 1)
        b = random_multivector(rng, 5, 1)
        c = random_multivector(rng, 5, 2)
        lhs = wedge(wedge(a, b, 5, 1, 1), c, 5, 2, 2)
        assert allclose(lhs, wedge(a, wedge(b, c, 5, 1, 2), 5, 1, 3), tol=1e-10)


def test_wedge_dimension_and_grade_errors():
    with pytest.raises(ValueError, match="mismatch"):
        wedge(E1, basis(4, (0,)), 3, 1, 1)
    tri = basis(3, (0, 1, 2))
    with pytest.raises(ValueError, match="overflow"):
        wedge(tri, E1, 3, 3, 1)


# ---------------------------------------------------------------------------
# inner product of rows

def test_inner_orthonormal_basis():
    e13 = basis(3, (0, 2))
    assert inner(E12, E12) == pytest.approx(1.0)
    assert inner(E12, e13) == pytest.approx(0.0)
    assert inner(2 * E12 + e13, e13) == pytest.approx(1.0)


def test_inner_is_squared_norm_on_diagonal():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = random_multivector(rng, 4, 2)
        assert inner(a, a) == pytest.approx(np.linalg.norm(a) ** 2, rel=1e-14)


# ---------------------------------------------------------------------------
# unit simple vector

def unit_blade_of(points):
    """Unit blade of the simplex oriented by the row order of ``points``."""
    points = np.asarray(points, dtype=float)
    m = len(points) - 1
    levels = [list(itertools.combinations(range(m + 1), d + 1)) for d in range(m + 1)]
    return EmbeddedComplex(points, levels).unit_blade(m, 0)


def test_unit_vector_of_axis_segment():
    assert allclose(unit_blade_of([[0.0, 0.0], [1.0, 0.0]]), basis(2, (0,)))


def test_unit_vector_of_axis_triangle_and_reversal():
    assert allclose(unit_blade_of([[0, 0, 0], [1, 0, 0], [0, 1, 0]]), E12)
    assert allclose(unit_blade_of([[0, 0, 0], [0, 1, 0], [1, 0, 0]]), -E12)


def test_unit_vector_has_unit_norm():
    rng = np.random.default_rng(5)
    for m, n in [(1, 2), (1, 4), (2, 3), (3, 5)]:
        pts = rng.standard_normal((m + 1, n))
        assert np.linalg.norm(unit_blade_of(pts)) == pytest.approx(1.0, abs=1e-12)


def test_unit_vector_permutation_parity():
    rng = np.random.default_rng(17)
    pts = rng.standard_normal((3, 4))
    base = unit_blade_of(pts)
    for perm in itertools.permutations(range(3)):
        swaps = sum(
            1
            for i in range(3)
            for j in range(i + 1, 3)
            if perm[i] > perm[j]
        )
        sign = -1.0 if swaps % 2 else 1.0
        permuted = unit_blade_of(pts[list(perm)])
        assert allclose(permuted, sign * base, tol=1e-12)


def test_unit_vector_rejects_degenerate_simplex():
    K = EmbeddedComplex([[0.0, 0.0], [0.0, 0.0]], [[(0,), (1,)], [(0, 1)]])
    with pytest.raises(DegenerateSimplexError):
        K.unit_blade(1, 0)


# ---------------------------------------------------------------------------
# volume

def test_volume_unit_right_triangle():
    assert volume_of_points([[0, 0], [1, 0], [0, 1]]) == pytest.approx(0.5)


def test_volume_diagonal_segment():
    assert volume_of_points([[0, 0, 0], [1, 1, 0]]) == pytest.approx(math.sqrt(2))


def test_volume_regular_tetrahedron_vs_cayley_menger():
    pts = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.5, math.sqrt(3) / 2, 0.0],
            [0.5, math.sqrt(3) / 6, math.sqrt(6) / 3],
        ]
    )
    vol = volume_of_points(pts)
    assert vol == pytest.approx(1.0 / (6 * math.sqrt(2)), rel=1e-12)
    assert vol == pytest.approx(cayley_menger_volume(pts), rel=1e-10)


def test_volume_matches_cayley_menger_on_random_simplices():
    rng = np.random.default_rng(23)
    for m, n in [(1, 3), (2, 3), (2, 5), (3, 4)]:
        pts = rng.standard_normal((m + 1, n))
        assert volume_of_points(pts) == pytest.approx(cayley_menger_volume(pts), rel=1e-9)


def test_volume_invariant_under_permutation_and_rigid_motion():
    rng = np.random.default_rng(29)
    pts = rng.standard_normal((3, 4))
    vol = volume_of_points(pts)
    for perm in itertools.permutations(range(3)):
        assert volume_of_points(pts[list(perm)]) == pytest.approx(vol, rel=1e-12)
    for _ in range(5):
        rot = random_rotation(rng, 4)
        shift = rng.standard_normal(4)
        moved = pts @ rot.T + shift
        assert volume_of_points(moved) == pytest.approx(vol, rel=1e-10)


def test_volume_of_degenerate_simplex_is_zero():
    assert volume_of_points([[0, 0], [1, 0], [2, 0]]) == 0.0


def test_volume_of_point_is_one():
    assert volume_of_points([[1.0, 2.0]]) == 1.0


# ---------------------------------------------------------------------------
# multivector invariants

def test_coefficient_length_is_enforced():
    with pytest.raises(ValueError, match="length"):
        MultivectorGroup(3, 2).coerce([1.0, 2.0])


def test_norm_positive_definite():
    rng = np.random.default_rng(31)
    G = MultivectorGroup(4, 2)
    assert G.norm(G.zero()) == 0.0
    for _ in range(10):
        a = random_multivector(rng, 4, 2)
        if not np.allclose(a, 0):
            assert G.norm(a) > 0.0


def test_blade_of_points_matches_iterated_wedge():
    # reference: (v1-v0) ^ ... ^ (vm-v0) by repeated wedge, one simplex at a time
    rng = np.random.default_rng(41)
    for m, n in [(1, 2), (2, 3), (2, 4), (3, 5), (4, 4)]:
        pts = rng.standard_normal((6, m + 1, n))
        batched = blade_of_points(pts)
        for k in range(len(pts)):
            ref = pts[k, 1] - pts[k, 0]
            for j in range(2, m + 1):
                ref = wedge(ref, pts[k, j] - pts[k, 0], n, j - 1, 1)
            assert np.allclose(batched[k], ref, rtol=1e-12, atol=1e-12)
            assert volume_of_points(pts)[k] == pytest.approx(volume_of_points(pts[k]), rel=1e-12)


def test_blade_of_points_norm_is_factorial_times_volume():
    rng = np.random.default_rng(37)
    pts = rng.standard_normal((4, 5))
    blade = blade_of_points(pts)
    assert np.linalg.norm(blade) == pytest.approx(
        math.factorial(3) * volume_of_points(pts), rel=1e-10
    )


def test_unit_blade_rows_are_read_only():
    blade = unit_blade_of([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        blade[0] = 5.0
