import math
import sys

import numpy as np
import pytest

from polycal.calibration import (
    Certificate,
    certify_calibrated,
    check_stokes,
    minimality_certificate,
    phi,
    phi_flat_bound,
)
from polycal.chains import Chain, boundary, combine, make_chain, mass
from polycal.complexes import BoundaryRegion, build_complex
from polycal.groups import MultivectorGroup, RealGroup
from polycal.solver import SolverConfig
from polycal.varifolds import chainify, generate_example, make_varifold


def segment_complex():
    return build_complex([[0.0, 0.0], [1.0, 0.0]], [(0, 1)])


def random_lambda_chain(rng, K, m):
    G = MultivectorGroup(K.ambient_dim, m)
    width = G.width
    n = K.n_simplices(m)
    picks = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
    terms = [
        (K.simplex_tuple(m, int(i)), rng.standard_normal(width))
        for i in picks
    ]
    return make_chain(K, m, G, terms)


# ---------------------------------------------------------------------------
# phi

def test_phi_on_unit_segment():
    K = segment_complex()
    G = MultivectorGroup(2, 1)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert phi(make_chain(K, 1, G, [((0, 1), e1)])) == pytest.approx(1.0)
    assert phi(make_chain(K, 1, G, [((0, 1), e2)])) == pytest.approx(0.0)
    assert phi(make_chain(K, 1, G, [((0, 1), -e1)])) == pytest.approx(-1.0)


def test_phi_requires_matching_group():
    K = segment_complex()
    with pytest.raises(ValueError, match="Lambda"):
        phi(make_chain(K, 1, RealGroup(), [((0, 1), 1.0)]))
    with pytest.raises(ValueError, match="Lambda"):
        phi(make_chain(K, 1, MultivectorGroup(2, 2), [((0, 1), [1.0])]))


def test_phi_is_additive():
    rng = np.random.default_rng(5)
    K = build_complex(
        [[0, 0], [1, 0], [0, 1], [1, 1], [2, 1]],
        [(0, 1, 2), (1, 2, 3), (1, 3, 4)],
    )
    for _ in range(50):
        A = random_lambda_chain(rng, K, 1)
        B = random_lambda_chain(rng, K, 1)
        assert phi(combine(A, B, 1)) == pytest.approx(phi(A) + phi(B), abs=1e-12)


def test_phi_dominated_by_mass():
    rng = np.random.default_rng(7)
    K = build_complex(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
        [(0, 1, 2, 3), (1, 2, 3, 4)],
    )
    for m in (1, 2):
        for _ in range(50):
            A = random_lambda_chain(rng, K, m)
            assert phi(A) <= mass(A) + 1e-12


def test_phi_orientation_invariance():
    K = segment_complex()
    G = MultivectorGroup(2, 1)
    e1 = np.array([1.0, 0.0])
    forward = make_chain(K, 1, G, [((0, 1), e1)])
    reversed_tuple = make_chain(K, 1, G, [((1, 0), -e1)])
    assert forward.allclose(reversed_tuple)
    assert phi(forward) == pytest.approx(phi(reversed_tuple))


# ---------------------------------------------------------------------------
# calibration certificates

def test_chainified_varifold_is_calibrated():
    for name in ("plane_disk", "y_line", "y_times_r", "tetrahedral_cone"):
        K, V, gamma = generate_example(name)
        cert = certify_calibrated(chainify(V), tol=1e-12)
        assert cert.conclusion == "calibrated-minimizer"
        assert cert.check("calibration-equality").residual <= 1e-12


def test_misaligned_coefficient_is_not_calibrated():
    K = segment_complex()
    G = MultivectorGroup(2, 1)
    e2 = np.array([0.0, 1.0])
    cert = certify_calibrated(make_chain(K, 1, G, [((0, 1), e2)]))
    assert cert.conclusion == "not-calibrated"
    assert phi(make_chain(K, 1, G, [((0, 1), e2)])) < mass(
        make_chain(K, 1, G, [((0, 1), e2)])
    )


def test_negative_multiple_is_not_calibrated():
    K = segment_complex()
    G = MultivectorGroup(2, 1)
    e1 = np.array([1.0, 0.0])
    cert = certify_calibrated(make_chain(K, 1, G, [((0, 1), -e1)]))
    assert cert.conclusion == "not-calibrated"
    assert not cert.check("per-simplex-alignment").passed


def test_certificate_invariant_enforced():
    bad = [
        type(
            "C",
            (),
            {"name": "x", "passed": False, "residual": 1.0, "tol": 0.1},
        )()
    ]
    with pytest.raises(ValueError, match="every check"):
        Certificate(subject="s", checks=bad, conclusion="calibrated-minimizer")


# ---------------------------------------------------------------------------
# Stokes vanishing

def test_stokes_single_tetrahedron():
    K = build_complex(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], [(0, 1, 2, 3)]
    )
    G = MultivectorGroup(3, 2)
    e12 = np.array([1.0, 0.0, 0.0])
    Q = make_chain(K, 3, G, [((0, 1, 2, 3), e12)])
    assert abs(phi(boundary(Q))) <= 1e-12


def test_stokes_random_chains():
    K = build_complex(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
        [(0, 1, 2, 3), (1, 2, 3, 4)],
    )
    report = check_stokes(K, 2, trials=100, tol=1e-10, seed=3)
    assert report.passed
    assert report.max_normalized_residual <= 1e-10


def test_stokes_requires_fillable_dimension():
    K = segment_complex()
    with pytest.raises(ValueError, match="simplices"):
        check_stokes(K, 1)


# ---------------------------------------------------------------------------
# phi <= F <= M

def test_flat_bound_without_fillings():
    K = segment_complex()
    G = MultivectorGroup(2, 1)
    e1 = np.array([1.0, 0.0])
    A = make_chain(K, 1, G, [((0, 1), e1)])
    rep = phi_flat_bound(A)
    assert rep.passed
    assert rep.phi == pytest.approx(1.0)
    assert rep.flat_value == pytest.approx(1.0)
    assert rep.mass == pytest.approx(1.0)


def test_flat_bound_triangle_fill_beats_perimeter():
    K = build_complex([[0, 0], [1, 0], [0, 1]], [(0, 1, 2)])
    G = MultivectorGroup(2, 2)
    A = boundary(make_chain(K, 2, G, [((0, 1, 2), [1.0])]))
    rep = phi_flat_bound(A)
    assert rep.passed
    assert rep.phi is None  # grade 2 coefficients on a 1-chain
    assert rep.flat_value == pytest.approx(0.5, abs=1e-6)
    assert rep.mass == pytest.approx(2 + math.sqrt(2.0))


def test_flat_bound_zero_chain():
    K = build_complex([[0, 0], [1, 0], [0, 1]], [(0, 1, 2)])
    G = MultivectorGroup(2, 1)
    rep = phi_flat_bound(Chain(K, 1, G))
    assert rep.passed
    assert rep.phi == 0.0 and rep.flat_value == 0.0 and rep.mass == 0.0


def test_flat_bound_random_chains_dimension_matched():
    rng = np.random.default_rng(11)
    K = build_complex(
        [[0, 0], [1, 0], [0, 1], [1, 1]], [(0, 1, 2), (1, 2, 3)]
    )
    for _ in range(5):
        A = random_lambda_chain(rng, K, 1)
        rep = phi_flat_bound(A)
        assert rep.passed
        assert rep.phi <= rep.flat_value + 1e-8
        assert rep.flat_value <= rep.mass + 1e-8


# ---------------------------------------------------------------------------
# end-to-end minimality certificates

def test_plane_disk_certificate():
    K, V, gamma = generate_example("plane_disk")
    cert = minimality_certificate(V, gamma)
    assert cert.conclusion == "calibrated-minimizer"
    assert not cert.provenance["solver"]["ran"]


def test_tetrahedral_cone_certificate_with_solver():
    K, V, gamma = generate_example("tetrahedral_cone")
    cert = minimality_certificate(V, gamma, with_solver=True, solver_config=SolverConfig())
    assert cert.conclusion == "calibrated-minimizer"
    info = cert.provenance["solver"]
    assert info["ran"] and info["status"] == "converged"
    assert info["objective"] == pytest.approx(V.mass(), rel=1e-5)


def test_l_shape_certificate_reports_corner():
    K = build_complex([[0, 0], [1, 0], [0, 1]], [(0, 1), (0, 2)])
    V = make_varifold(K, 1, [((0, 1), 1.0), ((0, 2), 1.0)])
    gamma = BoundaryRegion.from_tuples(K, [(1,), (2,)])
    cert = minimality_certificate(V, gamma)
    assert cert.conclusion == "boundary-not-in-gamma"
    assert not cert.check("stationarity").passed
    # the corner's residual norm sqrt(2) over its incident weights 1 + 1
    assert cert.check("stationarity").residual == pytest.approx(math.sqrt(2.0) / 2, abs=1e-10)
    offending = cert.provenance["offending_boundary"]
    assert offending and offending[0]["face"] == [0]
    assert offending[0]["coefficient_norm"] == pytest.approx(math.sqrt(2.0), abs=1e-10)


HEAVY_Y = {"directions": [[0.0, 1.0], [-math.sqrt(3) / 2, -0.5], [math.sqrt(3) / 2, -0.5]],
           "weights": [1e8, 1e8, 1e8]}
CERTIFIED_BUNDLES = [(name, {}) for name in ("plane_disk", "y_line", "y_times_r", "tetrahedral_cone")]
CERTIFIED_BUNDLES += [
    ("custom_net_cone", {"directions": [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]],
                         "weights": [1, 2, 1, 2]}),
    ("custom_net_cone", HEAVY_Y),
    ("custom_net_cone", {"directions": [[1, 0], [0, 1]]}),
]


@pytest.mark.parametrize("name, params", CERTIFIED_BUNDLES, ids=[
    "plane_disk", "y_line", "y_times_r", "tetrahedral_cone", "custom_net_cone", "heavy_y", "l_shape"])
def test_every_check_passes_exactly_within_its_tolerance(name, params):
    # the solver check compares a gap, not its residual, with the tolerance
    K, V, gamma = generate_example(name, **params)
    for check in minimality_certificate(V, gamma).checks:
        assert check.passed == (check.residual <= check.tol), check


def test_certificate_json_round_trip_fields():
    K, V, gamma = generate_example("y_line")
    cert = minimality_certificate(V, gamma)
    doc = cert.to_json()
    assert set(doc) == {"subject", "checks", "conclusion", "provenance"}
    assert all({"name", "pass", "residual", "tol"} == set(c) for c in doc["checks"])
    assert doc["provenance"]["complex_hash"] == K.content_hash()


def _count_calls(monkeypatch, owner, name):
    """Route ``owner.name``, and every polycal module's binding of it, through a counter."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("polycal") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    monkeypatch.setattr(owner, name, counted)
    return calls


def test_minimality_certificate_builds_each_piece_once(monkeypatch):
    import polycal.chains
    import polycal.varifolds
    from polycal.complexes import EmbeddedComplex

    K, V, gamma = generate_example("tetrahedral_cone", refinement=1)
    chainify_calls = _count_calls(monkeypatch, polycal.varifolds, "chainify")
    boundary_calls = _count_calls(monkeypatch, polycal.chains, "boundary")
    hash_calls = _count_calls(monkeypatch, EmbeddedComplex, "content_hash")
    cert = minimality_certificate(V, gamma)
    assert cert.passed
    assert (len(chainify_calls), len(boundary_calls), len(hash_calls)) == (1, 1, 1)
