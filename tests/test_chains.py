import math

import numpy as np
import pytest

from polycal.chains import (
    Chain,
    boundary,
    chain_from_json,
    chain_to_json,
    combine,
    is_supported_in,
    make_chain,
    mass,
    permutation_signs,
    pushforward_chain,
    retag_chain,
    transport_chain,
)
from polycal.complexes import BoundaryRegion, build_complex, subdivide
from polycal.groups import (
    IntegerGroup,
    MultivectorGroup,
    RealGroup,
    SubgroupWithNorm,
)

REALS = RealGroup()
INTS = IntegerGroup()


def triangle_complex():
    return build_complex([[0, 0], [1, 0], [0, 1]], [(0, 1, 2)])


def random_real_chain(rng, K, m):
    n = K.n_simplices(m)
    terms = [
        (K.simplex_tuple(m, i), float(rng.standard_normal()))
        for i in rng.choice(n, size=min(n, 4), replace=False)
    ]
    return make_chain(K, m, REALS, terms)


# ---------------------------------------------------------------------------
# construction / canonical form

def test_orientation_reversal_cancels():
    K = triangle_complex()
    A = make_chain(K, 1, REALS, [((0, 1), 2.0), ((1, 0), 2.0)])
    assert A.is_zero()


def test_repeated_terms_are_summed():
    K = triangle_complex()
    A = make_chain(K, 1, REALS, [((0, 1), 2.0), ((0, 1), 3.0)])
    assert A.coeffs.tolist() == [[5.0]]


def test_permutation_sign_matches_swap_count():
    assert permutation_signs([(0, 1, 2), (1, 0, 2), (2, 0, 1)]).tolist() == [1, -1, 1]


def test_make_chain_rejects_bad_terms():
    K = triangle_complex()
    with pytest.raises(KeyError):
        make_chain(K, 1, REALS, [((0, 3), 1.0)])
    with pytest.raises(ValueError):
        make_chain(K, 1, REALS, [((0, 0), 1.0)])
    with pytest.raises(ValueError):
        make_chain(K, 1, MultivectorGroup(3, 1), [((0, 1), np.array([1.0, 0.0]))])


# ---------------------------------------------------------------------------
# group structure / combine

def test_combine_self_cancellation_and_identity():
    K = triangle_complex()
    A = make_chain(K, 1, REALS, [((0, 1), 1.5), ((1, 2), -2.0)])
    zero = Chain(K, 1, REALS)
    assert combine(A, A, -1).is_zero()
    assert combine(A, zero, 1).allclose(A)


def test_combine_mass_subadditive():
    rng = np.random.default_rng(3)
    K = build_complex(
        [[0, 0], [1, 0], [0, 1], [1, 1], [2, 0]],
        [(0, 1, 2), (1, 2, 3), (1, 3, 4)],
    )
    for _ in range(30):
        A = random_real_chain(rng, K, 1)
        B = random_real_chain(rng, K, 1)
        assert mass(combine(A, B, 1)) <= mass(A) + mass(B) + 1e-12


def test_combine_mismatch_errors():
    K1, K2 = triangle_complex(), triangle_complex()
    A = make_chain(K1, 1, REALS, [((0, 1), 1.0)])
    B = make_chain(K2, 1, REALS, [((0, 1), 1.0)])
    with pytest.raises(ValueError, match="different complexes"):
        combine(A, B, 1)
    C = make_chain(K1, 0, REALS, [((0,), 1.0)])
    with pytest.raises(ValueError, match="dimension"):
        combine(A, C, 1)
    D = make_chain(K1, 1, INTS, [((0, 1), 1)])
    with pytest.raises(ValueError, match="group"):
        combine(A, D, 1)


# ---------------------------------------------------------------------------
# boundary

def test_boundary_of_one_triangle():
    K = triangle_complex()
    A = make_chain(K, 2, REALS, [((0, 1, 2), 2.0)])
    expected = make_chain(
        K, 1, REALS, [((1, 2), 2.0), ((0, 2), -2.0), ((0, 1), 2.0)]
    )
    assert boundary(A).allclose(expected)


def test_boundary_squared_is_zero():
    rng = np.random.default_rng(5)
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    K = build_complex(verts, [(0, 1, 2, 3), (1, 2, 3, 4)])
    G = MultivectorGroup(3, 2)
    for _ in range(20):
        terms = [
            (K.simplex_tuple(3, i), rng.standard_normal(3))
            for i in range(K.n_simplices(3))
        ]
        Q = make_chain(K, 3, G, terms)
        assert boundary(boundary(Q)).is_zero()
    # exact over the integers as well
    Z = make_chain(K, 3, INTS, [((0, 1, 2, 3), 7), ((1, 2, 3, 4), -3)])
    dd = boundary(boundary(Z))
    assert dd.is_zero()


def test_fan_boundary_cancels_on_shared_edge():
    verts = [[0, 0, 0], [0, 0, 1], [1, 0, 0], [-0.5, 0.8, 0], [-0.5, -0.8, 0]]
    K = build_complex(verts, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    # orient each triangle so the shared edge (0,1) receives opposite signs:
    # incidence of (0,1) in sorted (0,1,x) is slot 2, sign +1, so alternate
    # coefficient signs must cancel only when they sum to zero.
    A = make_chain(K, 2, REALS, [((0, 1, 2), 1.0), ((0, 1, 3), 1.0), ((0, 1, 4), -2.0)])
    shared = int(K.simplex_ids([(0, 1)])[0])
    dA = boundary(A)
    assert shared not in dA.ids.tolist()
    # incidence-sign oracle: coefficient on (0,1) is the signed sum of weights
    signs = {}
    for tri, g in [((0, 1, 2), 1.0), ((0, 1, 3), 1.0), ((0, 1, 4), -2.0)]:
        j = sorted(tri).index(next(v for v in sorted(tri) if v not in (0, 1)))
        signs[tri] = (-1.0) ** j * g
    assert sum(signs.values()) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# mass

def test_mass_examples():
    K = triangle_complex()
    A = make_chain(K, 2, REALS, [((0, 1, 2), 1.0)])
    assert mass(A) == pytest.approx(0.5)
    G = MultivectorGroup(2, 2)
    B = make_chain(K, 2, G, [((0, 1, 2), [2.0])])
    assert mass(B) == pytest.approx(1.0)


def test_mass_zero_iff_zero_chain():
    K = triangle_complex()
    assert mass(Chain(K, 1, REALS)) == 0.0
    A = make_chain(K, 1, REALS, [((0, 1), 1e-3)])
    assert mass(A) > 0.0


def test_mass_invariant_under_barycentric_transport():
    rng = np.random.default_rng(7)
    verts = rng.standard_normal((4, 3))
    K = build_complex(verts, [(0, 1, 2), (1, 2, 3)])
    G = MultivectorGroup(3, 2)
    A = make_chain(
        K,
        2,
        G,
        [
            ((0, 1, 2), rng.standard_normal(3)),
            ((1, 2, 3), rng.standard_normal(3)),
        ],
    )
    refined, corr = subdivide(K, "barycentric")
    A2 = transport_chain(A, corr)
    assert mass(A2) == pytest.approx(mass(A), rel=1e-12)
    refined2, corr2 = subdivide(refined, "barycentric")
    assert mass(transport_chain(A2, corr2)) == pytest.approx(mass(A), rel=1e-12)


# ---------------------------------------------------------------------------
# support

def test_support_and_gamma_membership():
    K = triangle_complex()
    zero = Chain(K, 1, REALS)
    gamma = BoundaryRegion.from_tuples(K, [(0, 1)])
    assert zero.is_zero()
    assert is_supported_in(zero, gamma)
    A = make_chain(K, 1, REALS, [((0, 2), 1.0)])
    assert not is_supported_in(A, gamma)
    B = make_chain(K, 1, REALS, [((0, 1), 1.0)])
    assert is_supported_in(B, gamma)
    tiny = make_chain(K, 1, REALS, [((0, 2), 1e-12)])
    assert is_supported_in(tiny, gamma)  # below tolerance


# ---------------------------------------------------------------------------
# pushforward

def test_pushforward_identity():
    K = triangle_complex()
    A = make_chain(K, 1, REALS, [((0, 1), 2.0)])
    res = pushforward_chain(A, K.vertices)
    assert res.dropped.size == 0
    assert mass(res.chain) == pytest.approx(mass(A))
    # a zero chain may have a dimension the complex lacks
    assert pushforward_chain(Chain(K, 3, REALS), K.vertices).chain.is_zero()


def test_pushforward_scaling_matches_recomputed_volumes():
    # cone over two endpoints; shrink the apex toward the base midpoint
    K = build_complex([[0.0, 1.0], [-1.0, 0.0], [1.0, 0.0]], [(0, 1), (0, 2)])
    A = make_chain(K, 1, REALS, [((0, 1), 1.0), ((0, 2), 1.0)])
    images = K.vertices.copy()
    images[0] = [0.0, 0.5]
    res = pushforward_chain(A, images, frozen=[1, 2])
    expected = 2 * math.hypot(1.0, 0.5)
    assert mass(res.chain) == pytest.approx(expected, rel=1e-12)


def test_pushforward_drops_collapsed_simplex():
    K = build_complex([[0, 0], [1, 0], [0, 1], [1, 1]], [(0, 1, 2), (1, 2, 3)])
    A = make_chain(K, 2, REALS, [((0, 1, 2), 1.0), ((1, 2, 3), 1.0)])
    images = K.vertices.copy()
    images[3] = [0.5, 0.5]
    res = pushforward_chain(A, images)
    assert len(res.dropped) == 1
    assert mass(res.chain) == pytest.approx(0.5)


def test_pushforward_respects_gamma_freeze():
    K = triangle_complex()
    A = make_chain(K, 1, REALS, [((0, 1), 1.0)])
    gamma = BoundaryRegion.from_tuples(K, [(0,), (1,)])
    images = K.vertices.copy()
    images[1] = [2.0, 0.0]
    with pytest.raises(ValueError, match="frozen"):
        pushforward_chain(A, images, gamma=gamma)


# ---------------------------------------------------------------------------
# retagging over a subgroup

def test_retag_chain_with_generator_coefficients():
    K = triangle_complex()
    G = MultivectorGroup(2, 1)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    A = make_chain(K, 1, G, [((0, 1), e1), ((0, 2), e2)])
    H = SubgroupWithNorm(G, [e1, e2])
    B = retag_chain(A, H)
    assert mass(B) == pytest.approx(mass(A), rel=1e-9)


def test_retag_chain_scaled_generator():
    K = triangle_complex()
    G = MultivectorGroup(2, 1)
    e1 = np.array([1.0, 0.0])
    H = SubgroupWithNorm(G, [e1])
    A = make_chain(K, 1, G, [((0, 1), 2.0 * e1)])
    B = retag_chain(A, H)
    assert B.group.norm(B.coeffs[0]) == pytest.approx(2.0)
    assert mass(B) == pytest.approx(2.0 * mass(make_chain(K, 1, G, [((0, 1), e1)])))


def test_retag_chain_unrepresentable_coefficient():
    K = triangle_complex()
    G = MultivectorGroup(2, 1)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    H = SubgroupWithNorm(G, [e1])
    A = make_chain(K, 1, G, [((0, 1), e2)])
    with pytest.raises(ValueError, match="not representable"):
        retag_chain(A, H)


def test_retag_mass_dominates_ambient_mass():
    rng = np.random.default_rng(11)
    K = triangle_complex()
    G = MultivectorGroup(2, 1)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    H = SubgroupWithNorm(G, [e1, e2])
    coeff = e1 + e2  # coords (1,1): |g|_H = 2 > sqrt(2) = |g|_G
    A = make_chain(K, 1, G, [((0, 1), coeff)])
    B = retag_chain(A, H)
    assert mass(B) >= mass(A) - 1e-12
    assert mass(B) == pytest.approx(2.0 * K.volumes(1)[K.simplex_ids([(0, 1)])[0]])


# ---------------------------------------------------------------------------
# serialization

def test_chain_json_round_trip():
    K = triangle_complex()
    G = MultivectorGroup(2, 1)
    A = make_chain(
        K,
        1,
        G,
        [((0, 1), [1.0, 2.0]), ((1, 2), [0.5, 0.0])],
    )
    doc = chain_to_json(A)
    B = chain_from_json(K, doc)
    assert B.allclose(A)
    # scalar group round trip
    C = make_chain(K, 1, REALS, [((0, 2), -1.25)])
    assert chain_from_json(K, chain_to_json(C)).allclose(C)


# ---------------------------------------------------------------------------
# integer and subgroup coefficients

def two_triangles():
    return build_complex([[0, 0], [1, 0], [0, 1], [1, 1]], [(0, 1, 2), (1, 2, 3)])


def test_integer_boundary_is_exact():
    K = two_triangles()
    big = 2**31 - 1
    Z = make_chain(K, 2, INTS, [((0, 1, 2), big), ((1, 2, 3), 5 - big)])
    terms = chain_to_json(boundary(Z))["terms"]
    assert terms == [
        {"simplex": [0, 1], "coeff": big},
        {"simplex": [0, 2], "coeff": -big},
        {"simplex": [1, 2], "coeff": 5},
        {"simplex": [1, 3], "coeff": big - 5},
        {"simplex": [2, 3], "coeff": 5 - big},
    ]
    assert all(type(t["coeff"]) is int for t in terms)


def test_subgroup_term_resolving_to_zero_is_dropped():
    K = triangle_complex()
    H = SubgroupWithNorm(REALS, [2.0, 3.0])
    # coordinates (3, -2) resolve to 3*2 - 2*3 = 0
    assert make_chain(K, 1, H, [((0, 1), (3, -2))]).is_zero()
    A = make_chain(K, 1, H, [((0, 1), (2, 0))])
    B = make_chain(K, 1, H, [((1, 0), (-1, 2))])
    assert not A.is_zero() and not B.is_zero()
    assert combine(A, B, 1).is_zero()


def test_subgroup_boundary_and_transport_add_coordinates():
    K = two_triangles()
    H = SubgroupWithNorm(REALS, [2.0, 3.0])
    A = make_chain(K, 2, H, [((0, 1, 2), (1, 2)), ((1, 2, 3), (3, -1))])
    dA = boundary(A)
    coords = {tuple(t["simplex"]): t["coeff"] for t in chain_to_json(dA)["terms"]}
    assert coords == {
        (0, 1): [1, 2], (0, 2): [-1, -2], (1, 2): [4, 1], (1, 3): [-3, 1], (2, 3): [3, -1]
    }
    refined, corr = subdivide(K, "barycentric")
    A2 = transport_chain(A, corr)
    assert {tuple(t["coeff"]) for t in chain_to_json(A2)["terms"]} <= {
        (1, 2), (-1, -2), (3, -1), (-3, 1)
    }
    assert chain_to_json(boundary(A2)) == chain_to_json(transport_chain(dA, corr))


def test_integer_subgroup_values_do_not_wrap():
    K = triangle_complex()
    H = SubgroupWithNorm(INTS, [2**30] * 16)
    # the value 16 * 2**30 * 2**30 = 2**64 would wrap to 0 in int64
    A = make_chain(K, 1, H, [((0, 1), [2**30] * 16)])
    assert not A.is_zero()
    assert H.value(A.coeffs[0]) == [2**64]


def test_integer_coefficients_beyond_int32_rejected():
    K = triangle_complex()
    H = SubgroupWithNorm(REALS, [2.0, 3.0])
    for n in (2**31, -2**31, 10**20):
        with pytest.raises(ValueError, match="2\\*\\*31"):
            make_chain(K, 1, INTS, [((0, 1), n)])
        with pytest.raises(ValueError, match="2\\*\\*31"):
            make_chain(K, 1, H, [((0, 1), (n, 0))])
    assert not make_chain(K, 1, INTS, [((0, 1), 2**31 - 1)]).is_zero()
    assert not make_chain(K, 1, INTS, [((0, 1), 1 - 2**31)]).is_zero()
