import itertools
import math

import numpy as np
import pytest

from polycal.groups import (
    BallMember,
    IntegerGroup,
    MultivectorGroup,
    RealGroup,
    SubgroupWithNorm,
    group_from_json,
    group_to_json,
    integrality_check,
    norm_ball,
    subgroup_norm,
    verify_group_axioms,
)


# ---------------------------------------------------------------------------
# oracles

def oracle_min_cost(generators, norms, target, box, equal):
    """Exhaustive minimum of sum |n_i| |g_i| over a coordinate box."""
    best = None
    for coords in itertools.product(range(-box, box + 1), repeat=len(generators)):
        value = sum((n * g for n, g in zip(coords, generators)), start=0 * generators[0])
        if equal(value, target):
            cost = sum(abs(n) * w for n, w in zip(coords, norms))
            if best is None or cost < best:
                best = cost
    return best


def real_subgroup(*gens):
    return SubgroupWithNorm(RealGroup(), gens)


# ---------------------------------------------------------------------------
# subgroup norm

def test_single_generator_norm():
    H = real_subgroup(1.0)
    assert subgroup_norm(H, (5,)) == pytest.approx(5.0)


def test_two_generator_norm_matches_enumeration():
    H = real_subgroup(2.0, 3.0)
    got = subgroup_norm(H, (-1, 1))  # the element 1 = -2 + 3
    expect = oracle_min_cost(
        [2.0, 3.0], [2.0, 3.0], 1.0, box=10, equal=lambda a, b: abs(a - b) < 1e-9
    )
    assert expect == 5.0
    assert got == pytest.approx(expect)


def test_multivector_subgroup_norm_exceeds_ambient():
    G = MultivectorGroup(2, 1)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    H = SubgroupWithNorm(G, [e1, e2])
    g = H.coerce((1, 1))
    assert H.norm(g) == pytest.approx(2.0)
    assert G.norm(H.value(g)) == pytest.approx(math.sqrt(2.0))
    expect = oracle_min_cost(
        [np.array([1.0, 0.0]), np.array([0.0, 1.0])],
        [1.0, 1.0],
        np.array([1.0, 1.0]),
        box=4,
        equal=lambda a, b: np.linalg.norm(a - b) < 1e-9,
    )
    assert H.norm(g) == pytest.approx(expect)


def test_subgroup_norm_random_coords_dominate_ambient_norm():
    rng = np.random.default_rng(19)
    G = MultivectorGroup(3, 2)
    gens = [rng.standard_normal(3) for _ in range(3)]
    H = SubgroupWithNorm(G, gens)
    for _ in range(25):
        coords = tuple(int(n) for n in rng.integers(-3, 4, size=3))
        g = H.coerce(coords)
        hn = H.norm(g)
        assert hn >= G.norm(H.value(g)) - 1e-9
        assert hn <= H.representation_cost(coords) + 1e-12


def test_generator_norms_are_reproduced():
    rng = np.random.default_rng(21)
    G = MultivectorGroup(3, 1)
    gens = [rng.standard_normal(3) for _ in range(4)]
    H = SubgroupWithNorm(G, gens)
    for i in range(4):
        unit = tuple(1 if j == i else 0 for j in range(4))
        assert subgroup_norm(H, unit) == pytest.approx(np.linalg.norm(gens[i]), abs=1e-9)


def test_norm_falls_back_to_stored_representation():
    # Large generators: the search re-sums the value in another order, and the
    # rounding exceeds the zero tolerance, so the stored coords must still count.
    H = real_subgroup(2352515.2020535516, 5053054.299843582, 8166918.432585648)
    g = H.coerce((-2, 2, -3))
    got = H.norm(g)
    assert math.isfinite(got)
    assert got <= H.representation_cost(g)


def test_all_zero_generator_norms_rejected():
    with pytest.raises(ValueError, match="ill-posed"):
        real_subgroup(0.0, 0.0)


# ---------------------------------------------------------------------------
# norm balls

def test_norm_ball_single_generator():
    H = real_subgroup(1.0)
    members = norm_ball(H, 2.5)
    assert sorted(m.value[0] for m in members) == [-2, -1, 0, 1, 2]


def test_norm_ball_two_generators_with_oracle():
    H = real_subgroup(2.0, 3.0)
    members = norm_ball(H, 4.0)
    values = sorted(m.value[0] for m in members)
    assert values == [-4, -3, -2, 0, 2, 3, 4]
    norms = {m.value[0]: m.norm for m in members}
    assert norms[0] == 0.0
    assert norms[2] == norms[-2] == 2.0
    assert norms[3] == norms[-3] == 3.0
    assert norms[4] == norms[-4] == 4.0  # 4 = 2 + 2


def test_norm_ball_radius_zero_and_negative():
    H = real_subgroup(2.0, 3.0)
    members = norm_ball(H, 0.0)
    assert len(members) == 1 and members[0].norm == 0.0
    with pytest.raises(ValueError, match="nonnegative"):
        norm_ball(H, -1.0)


def test_norm_ball_monotone_and_symmetric():
    H = real_subgroup(1.5, 2.0)
    previous = 0
    for lam in [0.0, 1.5, 2.0, 3.5, 4.0, 6.0]:
        members = norm_ball(H, lam)
        assert len(members) >= previous
        previous = len(members)
        values = sorted(m.value[0] for m in members)
        assert values == sorted(-v for v in values)


def test_norm_ball_merges_coincidences():
    # generators 1 and 2 over the reals: (0,1) and (2,0) hit the same element
    H = real_subgroup(1.0, 2.0)
    members = norm_ball(H, 2.0)
    twos = [m for m in members if abs(m.value[0] - 2.0) < 1e-12]
    assert len(twos) == 1
    assert twos[0].norm == 2.0


# ---------------------------------------------------------------------------
# integrality

def test_integrality_check_cases():
    assert integrality_check(real_subgroup(1.0, 1.0, 1.0))
    assert not integrality_check(real_subgroup(math.sqrt(2.0)))
    assert integrality_check(real_subgroup(2.0, 3.0))
    assert not integrality_check(real_subgroup(0.5, 2.0))


# ---------------------------------------------------------------------------
# axioms

def test_axioms_pass_for_multivector_group():
    rng = np.random.default_rng(23)
    G = MultivectorGroup(3, 2)
    samples = [rng.standard_normal(3) for _ in range(8)]
    assert verify_group_axioms(G, samples).passed


def test_axioms_pass_for_integers():
    assert verify_group_axioms(IntegerGroup(), [0, 1, -5, 12]).passed


def test_axioms_fail_for_broken_norm():
    class BrokenNorm(RealGroup):
        def norm(self, g):
            return -1.0

    report = verify_group_axioms(BrokenNorm(), [1.0, 2.0])
    assert not report.passed
    axioms = {v["axiom"] for v in report.violations}
    assert "nonnegativity" in axioms or "triangle" in axioms


# ---------------------------------------------------------------------------
# serialization

def test_group_json_round_trip():
    for G in [
        RealGroup(),
        IntegerGroup(),
        MultivectorGroup(3, 2),
        real_subgroup(2.0, 3.0),
        SubgroupWithNorm(
            MultivectorGroup(2, 1),
            [np.array([1.0, 0.0]), np.array([0.0, 1.0])],
        ),
    ]:
        desc = group_to_json(G)
        G2 = group_from_json(desc)
        assert G2 == G


def test_subgroup_descriptor_infers_real_ambient():
    G = group_from_json({"kind": "subgroup", "generators": [2.0, 3.0]})
    assert isinstance(G, SubgroupWithNorm)
    assert subgroup_norm(G, (-1, 1)) == pytest.approx(5.0)
