import math

import numpy as np
import pytest

from polycal.chains import boundary, is_supported_in, mass
from polycal.complexes import BoundaryRegion, EmbeddedComplex, build_complex, subdivide
from polycal.exterior_algebra import wedge_rows
from polycal.varifolds import (
    CATALOG,
    PolyhedralVarifold,
    boundary_region_for,
    chainify,
    conormal,
    frontier_faces,
    generate_example,
    make_varifold,
    pushforward_varifold,
    stationarity,
    transport_varifold,
    varifold_from_json,
    varifold_to_json,
)


def gram_schmidt_conormal(points_tau, point_opposite):
    """Oracle: orthogonalize the opposite-vertex direction against tau's span."""
    base = points_tau[0]
    d = np.asarray(point_opposite, float) - base
    basis = []
    for p in points_tau[1:]:
        v = np.asarray(p, float) - base
        for b in basis:
            v = v - np.dot(v, b) * b
        basis.append(v / np.linalg.norm(v))
    for b in basis:
        d = d - np.dot(d, b) * b
    return -d / np.linalg.norm(d)


def l_shape():
    K = build_complex([[0, 0], [1, 0], [0, 1]], [(0, 1), (0, 2)])
    V = make_varifold(K, 1, [((0, 1), 1.0), ((0, 2), 1.0)])
    gamma = BoundaryRegion.from_tuples(K, [(1,), (2,)])
    return K, V, gamma


# ---------------------------------------------------------------------------
# construction

def test_varifold_mass_one_triangle():
    K = build_complex([[0, 0], [1, 0], [0, 1]], [(0, 1, 2)])
    V = make_varifold(K, 2, [((0, 1, 2), 1.0)])
    assert V.mass() == pytest.approx(0.5)


def test_duplicate_entries_merge():
    K = build_complex([[0, 0], [1, 0], [0, 1]], [(0, 1, 2)])
    V = make_varifold(K, 2, [((0, 1, 2), 1.0), ((2, 1, 0), 1.0)])
    assert V.weights.tolist() == [2.0]
    assert V.mass() == pytest.approx(1.0)


def test_y_cone_mass_and_negative_weight():
    K, V, _ = generate_example("y_line")
    assert V.mass() == pytest.approx(3.0)
    with pytest.raises(ValueError, match="nonnegative"):
        make_varifold(K, 1, [((0, 1), -1.0)])


# ---------------------------------------------------------------------------
# conormal

def test_conormal_of_segment_at_vertex():
    K = build_complex([[0, 0], [1, 0]], [(0, 1)])
    nu = conormal(K, (0, 1), (0,))
    assert np.allclose(nu, [-1.0, 0.0])


def test_conormal_of_triangle_at_x_axis_edge():
    K = build_complex([[0, 0], [1, 0], [0, 1]], [(0, 1, 2)])
    nu = conormal(K, (0, 1, 2), (0, 1))
    assert np.allclose(nu, [0.0, -1.0])


def test_conormal_on_tetra_cone_ray_matches_gram_schmidt():
    K, V, _ = generate_example("tetrahedral_cone")
    va, vb = K.vertices[1], K.vertices[2]
    nu = conormal(K, (0, 1, 2), (0, 1))
    oracle = gram_schmidt_conormal([K.vertices[0], va], vb)
    assert np.allclose(nu, oracle, atol=1e-12)
    assert abs(np.dot(nu, va)) < 1e-12       # orthogonal to the ray
    assert np.linalg.norm(nu) == pytest.approx(1.0)
    # lies in span(va, vb)
    coeffs, res, *_ = np.linalg.lstsq(np.column_stack([va, vb]), nu, rcond=None)
    assert float(res[0]) < 1e-20 if res.size else True


def test_conormal_random_simplices_unit_orthogonal_inplane():
    rng = np.random.default_rng(31)
    for m, n in [(1, 2), (2, 3), (3, 5)]:
        pts = rng.standard_normal((m + 1, n))
        K = build_complex(pts, [tuple(range(m + 1))])
        sigma = tuple(range(m + 1))
        tau = sigma[:-1]
        nu = conormal(K, sigma, tau)
        assert np.linalg.norm(nu) == pytest.approx(1.0, abs=1e-12)
        for p in pts[1:-1]:
            assert abs(np.dot(nu, p - pts[0])) < 1e-10  # orthogonal to tau's span
        span = (pts[1:] - pts[0]).T
        _, res, *_ = np.linalg.lstsq(span, nu, rcond=None)
        if res.size:
            assert float(res[0]) < 1e-18  # inside sigma's span
        oracle = gram_schmidt_conormal(list(pts[:-1]), pts[-1])
        assert np.allclose(nu, oracle, atol=1e-10)


def test_conormal_rejects_non_face():
    K = build_complex([[0, 0], [1, 0], [0, 1]], [(0, 1, 2)])
    with pytest.raises(ValueError, match="facet"):
        conormal(K, (0, 1, 2), (0,))


def test_conormal_wedge_reproduces_incidence_signs():
    # nu_j ^ eta(tau_j) = (-1)^j eta(sigma) for the facet omitting vertex j
    rng = np.random.default_rng(71)
    for m, n in [(1, 2), (2, 3), (2, 4), (3, 4)]:
        pts = rng.standard_normal((m + 1, n))
        K = build_complex(pts, [tuple(range(m + 1))])
        sigma = tuple(range(m + 1))
        eta_sigma = K.unit_blade(m, 0)
        for j in range(m + 1):
            tau = sigma[:j] + sigma[j + 1 :]
            nu = conormal(K, sigma, tau)
            d, fid = m - 1, int(K.simplex_ids([tau])[0])
            lhs = wedge_rows(nu[None], K.unit_blade(d, fid)[None], n, 1, d)[0]
            sign = -1.0 if j % 2 else 1.0
            assert np.allclose(lhs, sign * eta_sigma, rtol=0.0, atol=1e-10)


# ---------------------------------------------------------------------------
# stationarity

def test_two_collinear_segments_are_stationary():
    K = build_complex([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]], [(0, 1), (1, 2)])
    V = make_varifold(K, 1, [((0, 1), 1.0), ((1, 2), 1.0)])
    gamma = BoundaryRegion.from_tuples(K, [(0,), (2,)])
    report = stationarity(V, gamma)
    assert report.is_stationary
    assert report.max_residual <= 1e-15


def test_y_cone_is_stationary():
    K, V, gamma = generate_example("y_line")
    report = stationarity(V, gamma)
    assert report.is_stationary
    assert report.max_residual <= 1e-10


def test_l_shape_fails_with_sqrt2_residual():
    _, V, gamma = l_shape()
    report = stationarity(V, gamma)
    assert not report.is_stationary
    assert report.max_residual == pytest.approx(math.sqrt(2.0), abs=1e-10)


def test_free_edge_is_automatic_failure():
    K = build_complex([[0, 0], [1, 0]], [(0, 1)])
    V = make_varifold(K, 1, [((0, 1), 1.0)])
    gamma = BoundaryRegion.from_tuples(K, [(1,)])
    report = stationarity(V, gamma)
    assert not report.is_stationary
    assert report.faces[0].free_edge


def test_unbalanced_weights_break_stationarity():
    K, V, gamma = generate_example("y_line")
    W = make_varifold(K, 1, [(K.simplex_tuple(1, i), 1.0 + 0.5 * i) for i in V.ids.tolist()])
    report = stationarity(W, gamma)
    assert not report.is_stationary


# ---------------------------------------------------------------------------
# chainify

def test_chainify_weighted_segment():
    K = build_complex([[0, 0], [1, 0]], [(0, 1)])
    V = make_varifold(K, 1, [((0, 1), 2.0)])
    A = chainify(V)
    assert A.ids.tolist() == [0]
    assert A.coeffs[0] == pytest.approx([2.0, 0.0], abs=1e-12)
    assert mass(A) == pytest.approx(2.0)


def test_chainify_mass_preserving_and_per_simplex_aligned():
    K, V, _ = generate_example("tetrahedral_cone")
    A = chainify(V)
    assert mass(A) == pytest.approx(V.mass(), rel=1e-12)
    assert V.ids.tolist() == A.ids.tolist()
    for sid, g, c in zip(A.ids, A.coeffs, V.weights):
        eta = K.unit_blade(2, sid)
        assert np.allclose(g, c * eta, rtol=0.0, atol=1e-12)


def test_chainify_additive_on_disjoint_supports():
    K = build_complex([[0, 0], [1, 0], [0, 1]], [(0, 1), (0, 2)])
    V = make_varifold(K, 1, [((0, 1), 1.0)])
    W = make_varifold(K, 1, [((0, 2), 2.0)])
    VW = make_varifold(K, 1, [((0, 1), 1.0), ((0, 2), 2.0)])
    lhs = chainify(VW)
    from polycal.chains import combine

    rhs = combine(chainify(V), chainify(W), 1)
    assert lhs.allclose(rhs)


# ---------------------------------------------------------------------------
# theorem: stationarity <=> boundary supported in gamma

def catalog_entries(refinement=0):
    yield generate_example("plane_disk", refinement=refinement)
    yield generate_example("y_line", refinement=refinement)
    yield generate_example("y_times_r", refinement=refinement)
    yield generate_example("tetrahedral_cone", refinement=refinement)


def test_catalog_is_stationary_at_tight_tolerance():
    for K, V, gamma in catalog_entries():
        report = stationarity(V, gamma, tol=1e-10)
        assert report.is_stationary, f"max residual {report.max_residual}"


def test_stationarity_iff_boundary_supported():
    rng = np.random.default_rng(47)
    for K, V, gamma in catalog_entries():
        report = stationarity(V, gamma, tol=1e-9)
        supported = is_supported_in(boundary(chainify(V)), gamma, tol=1e-9)
        assert report.is_stationary == supported
        for _ in range(10):
            scales = rng.uniform(0.5, 1.5, size=len(V.weights))
            W = PolyhedralVarifold(K, V.dimension, V.ids, V.weights * scales)
            rep = stationarity(W, gamma, tol=1e-9)
            sup = is_supported_in(boundary(chainify(W)), gamma, tol=1e-9)
            assert rep.is_stationary == sup


def test_residual_norm_equals_boundary_coefficient_norm():
    rng = np.random.default_rng(53)
    for K, V, gamma in catalog_entries():
        scales = rng.uniform(0.25, 2.0, size=len(V.weights))
        W = PolyhedralVarifold(K, V.dimension, V.ids, V.weights * scales)
        report = stationarity(W, gamma)
        for f in report.faces:
            assert f.boundary_coeff_norm == pytest.approx(f.residual_norm, abs=1e-11)
            assert f.crosscheck_residual <= 1e-11


def reference_stationarity(V, gamma, tol):
    """The per-face loop: one Gram solve per conormal, one wedge per face.

    Faces in id order minus gamma; incident simplices in coface order.
    Returns (face id, face tuple, residual, residual norm, incident,
    boundary norm, cross-check residual, free edge, passed) per face.
    """
    K, m = V.complex, V.dimension
    weights = dict(zip(V.ids.tolist(), V.weights.tolist()))
    cofaces = {}
    for sid, row in enumerate(K.faces[m]):
        for fid in row.tolist():
            cofaces.setdefault(fid, []).append(sid)
    dA = boundary(chainify(V))
    brows = np.zeros((K.n_simplices(m - 1), dA.group.width))
    brows[dA.ids] = dA.coeffs
    out = []
    for fid in range(K.n_simplices(m - 1)):
        if fid in gamma.face_ids:
            continue
        face_t = K.simplex_tuple(m - 1, fid)
        residual, incident, total = np.zeros(K.ambient_dim), [], 0.0
        for sid in cofaces.get(fid, []):
            c = weights.get(sid)
            if c is None:
                continue
            sigma_t = K.simplex_tuple(m, sid)
            opposite = next(v for v in sigma_t if v not in face_t)
            base = K.vertices[face_t[0]]
            d = K.vertices[opposite] - base
            if len(face_t) > 1:
                spans = K.vertices[list(face_t[1:])] - base
                d = d - spans.T @ np.linalg.solve(spans @ spans.T, spans @ d)
            nu = -d / np.linalg.norm(d)
            incident.append((sigma_t, c, nu))
            residual = residual + c * nu
            total += c
        rnorm = float(np.linalg.norm(residual))
        bnorm = float(np.linalg.norm(brows[fid]))
        cross = bnorm
        if incident:
            predicted = wedge_rows(residual[None], K.unit_blade(m - 1, fid)[None], K.ambient_dim, 1, m - 1)
            cross = float(np.linalg.norm(brows[fid] - predicted[0]))
        free = len(incident) == 1
        out.append((fid, face_t, residual, rnorm, incident, bnorm, cross, free,
                    rnorm <= tol * total and not free))
    return out


def test_batched_stationarity_matches_the_per_face_loop():
    rng = np.random.default_rng(61)
    for refinement in (0, 1, 2):
        for K, V, gamma in catalog_entries(refinement):
            for trial in range(3):
                # random weight scalings, some simplices dropped (free edges)
                # and part of gamma released (more interior faces)
                sids = V.ids.tolist()
                kept = [s for s in sids if trial == 0 or rng.uniform() > 0.2]
                scales = 10.0 ** rng.uniform(-3, 3, size=len(kept))
                W = PolyhedralVarifold(K, V.dimension, kept, scales)
                released = {f for f in gamma.face_ids if trial == 2 and rng.uniform() < 0.5}
                region = BoundaryRegion(K, gamma.face_dim, gamma.face_ids - released)
                tol = 1e-9
                report = stationarity(W, region, tol=tol)
                expected = reference_stationarity(W, region, tol)
                assert len(report.faces) == len(expected)
                passed = True
                for f, (fid, face_t, res, rnorm, incident, bnorm, cross, free, ok) in zip(
                    report.faces, expected
                ):
                    assert (f.face_id, f.face_tuple, f.free_edge, f.passed) == (fid, face_t, free, ok)
                    assert f.residual == pytest.approx(res, abs=1e-12)
                    assert f.residual_norm == pytest.approx(rnorm, abs=1e-12)
                    assert f.boundary_coeff_norm == pytest.approx(bnorm, abs=1e-12)
                    assert f.crosscheck_residual == pytest.approx(cross, abs=1e-12)
                    assert [(s, c) for s, c, _ in f.incident] == [(s, c) for s, c, _ in incident]
                    for (_, _, nu), (_, _, ref) in zip(f.incident, incident):
                        assert nu == pytest.approx(ref, abs=1e-12)
                    passed = passed and ok
                assert report.is_stationary == passed
                assert report.max_residual == pytest.approx(
                    max([e[3] for e in expected], default=0.0), abs=1e-12)


def test_stationarity_verdict_is_invariant_under_weight_scaling():
    for scale in (1e-12, 1e-6, 1e6, 1e12):
        for K, V, gamma in catalog_entries():
            W = PolyhedralVarifold(K, V.dimension, V.ids, V.weights * scale)
            assert stationarity(W, gamma).is_stationary
        _, V, gamma = l_shape()
        W = PolyhedralVarifold(V.complex, 1, V.ids, V.weights * scale)
        assert not stationarity(W, gamma).is_stationary


def test_conormal_degeneracy_is_relative_to_the_simplex_scale():
    for radius in (1e-12, 1.0, 1e12):
        K, V, gamma = generate_example("tetrahedral_cone", radius=radius)
        assert stationarity(V, gamma).is_stationary
    K = build_complex([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-12]], [(0, 1), (1, 2), (0, 2)])
    K = EmbeddedComplex(K.vertices, [[(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)], [(0, 1, 2)]])
    with pytest.raises(ValueError, match="collapse"):
        conormal(K, (0, 1, 2), (0, 1))


# numpy warns of the 0 / 0 on its way; what is under test is the raise
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_conormal_across_a_collapsed_facet_raises():
    K = EmbeddedComplex([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]],
                        [[(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)], [(0, 1, 2)]])
    for tau in [(0, 1), (0, 2), (1, 2)]:
        with pytest.raises(ValueError):
            conormal(K, (0, 1, 2), tau)


# ---------------------------------------------------------------------------
# catalog geometry

def test_y_line_structure():
    K, V, gamma = generate_example("y_line", radius=2.0)
    assert K.n_simplices(1) == 3
    assert V.mass() == pytest.approx(6.0)
    assert len(gamma.face_ids) == 3
    tuples = {K.simplex_tuple(0, i) for i in gamma.face_ids}
    assert (0,) not in tuples


def test_tetrahedral_cone_structure():
    K, V, gamma = generate_example("tetrahedral_cone")
    assert K.n_simplices(2) == 6
    assert len(gamma.face_ids) == 6  # the tetrahedron's own edges
    for i in gamma.face_ids:
        assert 0 not in K.simplex_tuple(1, i)


def test_refinement_preserves_mass_and_stationarity():
    K, V, gamma = generate_example("y_times_r", refinement=2)
    assert V.mass() == pytest.approx(3.0, rel=1e-12)
    report = stationarity(V, gamma, tol=1e-10)
    assert report.is_stationary


def test_generate_example_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown example"):
        generate_example("moebius")
    with pytest.raises(ValueError, match="radius"):
        generate_example("y_line", radius=0.0)
    with pytest.raises(ValueError, match="directions"):
        generate_example("custom_net_cone")
    with pytest.raises(ValueError, match="unexpected"):
        generate_example("y_line", sectors=5)


def test_custom_net_cone_l_shape_is_not_stationary():
    K, V, gamma = generate_example(
        "custom_net_cone", directions=[(1.0, 0.0), (0.0, 1.0)]
    )
    report = stationarity(V, gamma)
    assert report.max_residual == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_custom_net_cone_balanced_in_r3():
    dirs = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
    K, V, gamma = generate_example("custom_net_cone", directions=dirs)
    assert stationarity(V, gamma).is_stationary


# ---------------------------------------------------------------------------
# pushforward / transport

def test_pushforward_identity_keeps_mass():
    K, V, gamma = generate_example("y_line")
    res = pushforward_varifold(V, K.vertices, gamma=gamma)
    assert res.varifold.mass() == pytest.approx(3.0)
    empty = PolyhedralVarifold(K, 2)  # a dimension the complex lacks
    assert pushforward_varifold(empty, K.vertices).varifold.ids.size == 0


def test_the_pushforward_computes_each_blade_once(monkeypatch):
    import polycal.complexes
    import polycal.exterior_algebra

    K, V, gamma = generate_example("tetrahedral_cone", refinement=1)
    rng = np.random.default_rng(5)
    images = K.vertices.copy()
    images[0] += 0.01 * rng.standard_normal(3)  # moves the cone point, collapses nothing
    base = V.mass()
    calls = []
    for module in (polycal.complexes, polycal.exterior_algebra):
        kernel = module.blade_of_points
        monkeypatch.setattr(module, "blade_of_points",
                            lambda points, kernel=kernel: calls.append(points.shape) or kernel(points))
    res = pushforward_varifold(V, images, gamma=gamma)
    assert res.dropped.size == 0
    assert len(calls) == K.dim + 1  # one pass per dimension of the image
    calls.clear()
    assert res.varifold.mass() > base
    assert calls == []  # the pushed varifold reads the image's cached volumes


def test_moving_steiner_point_increases_mass():
    K, V, gamma = generate_example("y_line")
    images = K.vertices.copy()
    images[0] = [0.1, 0.0]
    res = pushforward_varifold(V, images, gamma=gamma)
    moved = res.varifold.mass()
    direct = sum(np.linalg.norm(K.vertices[i] - images[0]) for i in (1, 2, 3))
    assert moved == pytest.approx(direct, rel=1e-12)
    assert moved > 3.0


def test_pushforward_rejects_moving_gamma():
    K, V, gamma = generate_example("y_line")
    theta = 0.3
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    with pytest.raises(ValueError, match="frozen"):
        pushforward_varifold(V, K.vertices @ rot.T, gamma=gamma)


def test_varifold_and_chain_pushforward_masses_agree():
    from polycal.chains import pushforward_chain

    K, V, gamma = generate_example("tetrahedral_cone")
    rng = np.random.default_rng(59)
    images = K.vertices.copy()
    images[0] = images[0] + 0.05 * rng.standard_normal(3)
    vres = pushforward_varifold(V, images, gamma=gamma)
    cres = pushforward_chain(chainify(V), images, gamma=gamma)
    assert mass(cres.chain) == pytest.approx(vres.varifold.mass(), rel=1e-12)


def test_transport_keeps_mass_and_frontier():
    K, V, gamma = generate_example("tetrahedral_cone")
    refined, corr = subdivide(K, "barycentric")
    W = transport_varifold(V, corr)
    assert W.mass() == pytest.approx(V.mass(), rel=1e-12)
    gamma2 = boundary_region_for(W)
    assert stationarity(W, gamma2, tol=1e-10).is_stationary


# ---------------------------------------------------------------------------
# serialization

def test_varifold_json_round_trip():
    K, V, _ = generate_example("tetrahedral_cone")
    doc = varifold_to_json(V)
    W = varifold_from_json(K, doc)
    assert (W.ids.tolist(), W.weights.tolist()) == (V.ids.tolist(), V.weights.tolist())


@pytest.mark.parametrize("n_dim, m, seed", [(2, 1, 0), (2, 2, 1), (3, 2, 2), (3, 3, 3)])
def test_face_residuals_are_the_stably_sorted_sums_to_the_bit(n_dim, m, seed):
    from scipy.spatial import Delaunay

    from polycal.complexes import interior_faces
    from polycal.varifolds import _conormals

    rng = np.random.default_rng(seed)
    points = rng.uniform(size=(30, n_dim))
    K = build_complex(points, Delaunay(points).simplices.tolist())
    ids = np.sort(rng.choice(K.n_simplices(m), size=K.n_simplices(m) * 2 // 3, replace=False))
    V = PolyhedralVarifold(K, m, ids, 10.0 ** rng.uniform(-2, 2, size=len(ids)))
    gamma = BoundaryRegion(K, m - 1, frozenset(rng.choice(K.n_simplices(m - 1), size=5, replace=False).tolist()))
    report = stationarity(V, gamma)
    assert not report.is_stationary
    # the reference: the (simplex, slot) pairs stably sorted by face, summed by add.at
    face = K.faces[m][V.ids].ravel()
    sid, weight = np.repeat(V.ids, m + 1), np.repeat(V.weights, m + 1)
    slot = np.tile(np.arange(m + 1), V.ids.size)
    keep = np.flatnonzero(interior_faces(K, m, gamma)[face])
    keep = keep[np.argsort(face[keep], kind="stable")]
    face, sid, slot, weight = face[keep], sid[keep], slot[keep], weight[keep]
    nu = _conormals(K.vertices, K.simplex_rows[m][sid], slot, K.longest_edges(m)[sid])
    residual = np.zeros((K.n_simplices(m - 1), n_dim))
    np.add.at(residual, face, weight[:, None] * nu)
    norms = np.linalg.norm(residual, axis=1)
    fids = np.flatnonzero(interior_faces(K, m, gamma))
    assert [f.face_id for f in report.faces] == fids.tolist()
    for f in report.faces:
        assert f.residual.tobytes() == residual[f.face_id].tobytes()
        assert f.residual_norm == norms[f.face_id]
        on = face == f.face_id
        # the incident list, in ascending pair order
        assert [(s, c) for s, c, _ in f.incident] == [
            (K.simplex_tuple(m, i), c) for i, c in zip(sid[on].tolist(), weight[on].tolist())]
        assert sid[on].tolist() == sorted(set(sid[on].tolist()))
        assert np.array(
            [n for _, _, n in f.incident]).reshape(-1, n_dim).tobytes() == nu[on].tobytes()
    assert report.max_residual == norms[fids].max()
