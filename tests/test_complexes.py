import math

import numpy as np
import pytest

from polycal.complexes import (
    BoundaryRegion,
    EmbeddedComplex,
    build_complex,
    complex_from_json,
    interior_faces,
    pushforward_complex,
    subdivide,
    validate_geometry,
)
from polycal import complexes
from polycal.complexes import _closed_complex, _find, _lexical, vertex_rows


def segment_triangle_intersects(p0, p1, tri, tol=1e-12):
    """Oracle: does the open segment cross the triangle's affine patch?"""
    p0, p1, tri = np.asarray(p0, float), np.asarray(p1, float), np.asarray(tri, float)
    e1, e2 = tri[1] - tri[0], tri[2] - tri[0]
    d = p1 - p0
    mat = np.column_stack([d, -e1, -e2])
    if abs(np.linalg.det(mat)) < tol:
        return False
    t, u, v = np.linalg.solve(mat, tri[0] - p0)
    return tol < t < 1 - tol and u > tol and v > tol and u + v < 1 - tol


def y_complex():
    verts = [[0.0, 0.0], [0.0, 1.0], [-math.sqrt(3) / 2, -0.5], [math.sqrt(3) / 2, -0.5]]
    return build_complex(verts, [(0, 1), (0, 2), (0, 3)])


# ---------------------------------------------------------------------------
# construction

def test_single_triangle_counts():
    K = build_complex([[0, 0], [1, 0], [0, 1]], [(0, 1, 2)])
    assert [K.n_simplices(d) for d in range(3)] == [3, 3, 1]


def test_two_triangles_sharing_an_edge():
    K = build_complex([[0, 0], [1, 0], [0, 1], [1, 1]], [(0, 1, 2), (1, 2, 3)])
    assert [K.n_simplices(d) for d in range(3)] == [4, 5, 2]


def test_tetrahedron_boundary():
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    tris = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    K = build_complex(verts, tris)
    assert [K.n_simplices(d) for d in range(3)] == [4, 6, 4]


def test_build_rejects_bad_input():
    with pytest.raises(ValueError, match="out of range"):
        build_complex([[0, 0], [1, 0]], [(0, 5)])
    with pytest.raises(ValueError, match="degenerate"):
        build_complex([[0, 0], [1, 0], [2, 0]], [(0, 1, 2)])
    with pytest.raises(ValueError, match="duplicate"):
        build_complex([[0, 0], [1, 0], [0, 1]], [(0, 1, 2), (2, 0, 1)])
    with pytest.raises(ValueError, match="repeats"):
        build_complex([[0, 0], [1, 0]], [(0, 0)])


def test_nonfinite_vertices_rejected():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            build_complex([[0, 0], [1, bad], [0, 1]], [(0, 1)])
        with pytest.raises(ValueError, match="finite"):
            EmbeddedComplex([[0, 0], [bad, 0]], [[(0,), (1,)]])


def test_degeneracy_is_relative_to_the_simplex_scale():
    for s in (1e-5, 1.0, 1e5):
        K = build_complex(s * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [(0, 1, 2)])
        assert np.allclose(K.unit_blade(2, 0), [1.0], rtol=0.0, atol=1e-12)
        _, new_ids, _ = pushforward_complex(K, K.vertices)
        assert all((ids >= 0).all() for ids in new_ids)
        with pytest.raises(ValueError, match="degenerate"):
            build_complex(s * np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1e-12]]), [(0, 1, 2)])


def tuples(K):
    """The simplices of each dimension as vertex tuples, in id order."""
    return [list(map(tuple, rows.tolist())) for rows in K.simplex_rows]


def test_ids_are_sorted_and_deterministic():
    K = build_complex([[0, 0], [1, 0], [0, 1], [1, 1]], [(1, 2, 3), (0, 1, 2)])
    assert tuples(K)[2] == [(0, 1, 2), (1, 2, 3)]
    assert tuples(K)[1][0] == (0, 1)


def reference_complex(top_simplices):
    """Face closure, tables and maximal simplices in Python tuples and dicts."""
    tops = [tuple(sorted(int(v) for v in t)) for t in top_simplices]
    dim = max(len(t) for t in tops) - 1
    by_dim = [set() for _ in range(dim + 1)]
    for t in tops:
        by_dim[len(t) - 1].add(t)
    for d in range(dim, 0, -1):
        for t in by_dim[d]:
            by_dim[d - 1].update(t[:j] + t[j + 1:] for j in range(d + 1))
    simplices = [sorted(level) for level in by_dim]
    ids = [{t: i for i, t in enumerate(level)} for level in simplices]
    faces = [[[ids[d - 1][t[:j] + t[j + 1:]] for j in range(d + 1)] for t in simplices[d]]
             for d in range(1, dim + 1)]
    has_coface = set()
    for d in range(1, dim + 1):
        has_coface.update((d - 1, f) for row in faces[d - 1] for f in row)
    maximal = [(d, i) for d in range(dim + 1) for i in range(len(simplices[d]))
               if (d, i) not in has_coface]
    return simplices, faces, maximal


@pytest.mark.parametrize("n_dim, n_points", [(2, 12), (2, 60), (3, 10), (3, 40)])
def test_array_construction_matches_python_closure(n_dim, n_points):
    from scipy.spatial import Delaunay

    rng = np.random.default_rng(n_dim * 100 + n_points)
    points = rng.uniform(size=(n_points, n_dim))
    tops = [[int(v) for v in rng.permutation(s)] for s in Delaunay(points).simplices]
    # a few lower-dimensional tops: a hanging edge and an isolated vertex
    points = np.vstack([points, rng.uniform(size=(2, n_dim)) + 2.0])
    tops += [[0, n_points], [n_points + 1]]
    K = build_complex(points, tops)
    simplices, faces, maximal = reference_complex(tops)
    assert tuples(K) == simplices
    assert [K.faces[d].tolist() for d in range(1, K.dim + 1)] == faces
    assert K.maximal_simplices() == maximal
    for d, level in enumerate(simplices):
        assert K.simplex_ids(level).tolist() == list(range(len(level)))
        for i, t in enumerate(level):
            assert K.simplex_tuple(d, i) == t


def test_array_construction_with_large_vertex_ids():
    # 7-vertex simplices on vertex ids 1,000..1,499: base-1500 keys of the
    # 5-simplices, whose face tables are looked up, straddle 2**63, so an
    # int64 mixed-radix key would wrap and misorder them
    rng = np.random.default_rng(71)
    points = rng.uniform(size=(1500, 6))
    tops = [[int(v) for v in rng.choice(np.arange(1000, 1500), size=7, replace=False)] for _ in range(6)]
    K = build_complex(points, tops)
    simplices, faces, maximal = reference_complex(tops)
    assert tuples(K) == simplices
    assert [K.faces[d].tolist() for d in range(1, K.dim + 1)] == faces
    assert K.maximal_simplices() == maximal


@pytest.mark.parametrize("width", [1, 3, 5, 13])
@pytest.mark.parametrize("top", [5, 50_000, 2**40])
def test_row_keys_match_sorted_tuples(width, top):
    # 50,000^5 and (2^40)^2 pass 2^63, so the keys are rank-compressed on the way
    rng = np.random.default_rng(width * 1000 + top % 997)
    for n in (1, 2, 40, 300):
        rows = rng.integers(0, top, size=(n, width))
        rows = np.vstack([rows, rows[rng.integers(0, n, size=n // 2 + 1)]])
        rows = rows[rng.permutation(len(rows))]
        expected = sorted(set(map(tuple, rows.tolist())))
        level = rows[np.unique(_lexical(rows), return_index=True)[1]]
        assert list(map(tuple, level.tolist())) == expected
        # found rows, repeated; rows missing from level; ids beyond its range
        probes = np.vstack([rows, rng.integers(0, top, size=(n, width)),
                            np.full((1, width), -1), np.full((1, width), 2**62)])
        probes[-1, 0] = probes[-2, 0] = rows[0, 0]
        position = {t: i for i, t in enumerate(expected)}
        pos, found = _find(level, probes)
        for t, p, f in zip(map(tuple, probes.tolist()), pos.tolist(), found.tolist()):
            assert f == (t in position), t
            if f:
                assert p == position[t], t


def test_direct_construction_with_a_missing_face_raises():
    with pytest.raises(ValueError, match="missing"):
        EmbeddedComplex([[0, 0], [1, 0], [0, 1]], [[(0,), (1,), (2,)], [(0, 1), (1, 2)], [(0, 1, 2)]])
    with pytest.raises(ValueError, match=r"face \(2,\) of \(1, 2\) missing"):
        EmbeddedComplex([[0, 0], [1, 0], [0, 1]], [[(0,), (1,)], [(0, 1), (1, 2)]])
    for level in ([(0,), (3,)], [(0,), (-1,)]):
        with pytest.raises(ValueError, match="increasing vertex ids"):
            EmbeddedComplex([[0, 0], [1, 0], [0, 1]], [level])
    with pytest.raises(ValueError, match="increasing vertex ids"):
        EmbeddedComplex([[0, 0], [1, 0], [0, 1]], [[(0,), (1,)], [(1, 0)]])


def test_a_missing_face_is_named_with_a_given_simplex():
    # the very first facet is the missing one
    with pytest.raises(ValueError, match=r"face \(1,\) of \(0, 1\) missing"):
        EmbeddedComplex([[0, 0], [1, 0], [0, 1]], [[(0,), (2,)], [(0, 1)]])
    # faces missing at two levels: the top-most gap is named, by a simplex that was given
    with pytest.raises(ValueError, match=r"face \(0, 2\) of \(0, 1, 2\) missing"):
        EmbeddedComplex([[0, 0], [1, 0], [0, 1]], [[(0,), (1,)], [(0, 1), (1, 2)], [(0, 1, 2)]])


def shuffled_mixed_tops(rng, n_dim, n_points):
    """Points and shuffled tops: the Delaunay simplices, some of their facets
    and edges given again as tops, and a hanging edge and an isolated vertex."""
    from scipy.spatial import Delaunay

    points = rng.uniform(size=(n_points, n_dim))
    cells = Delaunay(points).simplices
    tops = [list(t) for t in cells]
    for t in cells[rng.choice(len(cells), size=4, replace=False)]:
        tops += [list(np.delete(t, rng.integers(n_dim + 1))), list(rng.choice(t, size=2, replace=False))]
    tops = [list(t) for t in {tuple(sorted(t)) for t in tops}]  # build_complex rejects repeats
    points = np.vstack([points, rng.uniform(size=(2, n_dim)) + 2.0])
    tops += [[int(cells[0][0]), n_points], [n_points + 1]]
    tops = [[int(v) for v in rng.permutation(t)] for t in tops]
    return points, [tops[i] for i in rng.permutation(len(tops))]


@pytest.mark.parametrize("n_dim, n_points, seed", [(2, 30, 0), (2, 80, 1), (3, 15, 2), (3, 40, 3)])
def test_one_sort_per_level_matches_the_python_closure(n_dim, n_points, seed):
    rng = np.random.default_rng(seed)
    points, tops = shuffled_mixed_tops(rng, n_dim, n_points)
    simplices, faces, maximal = reference_complex(tops)
    K = build_complex(points, tops)
    assert tuples(K) == simplices
    assert [K.faces[d].tolist() for d in range(1, K.dim + 1)] == faces
    assert K.maximal_simplices() == maximal
    # the ids of the given rows, read from the same sort, in input order
    rows = [vertex_rows([t for t in tops if len(t) == d + 1], d + 1)[1] for d in range(K.dim + 1)]
    K, ids = _closed_complex(points, rows)
    for d, level in enumerate(rows):
        position = {t: i for i, t in enumerate(simplices[d])}
        assert ids[d].tolist() == [position[t] for t in map(tuple, level.tolist())]
    # the closed levels given directly, each shuffled and with repeats, index alike
    given = [rng.permutation(np.vstack([level, level[:3]])) for level in map(np.array, simplices)]
    direct = EmbeddedComplex(points, given)
    assert tuples(direct) == simplices
    assert [direct.faces[d].tolist() for d in range(1, direct.dim + 1)] == faces


@pytest.mark.parametrize("n_dim, n_points", [(2, 25), (3, 12)])
@pytest.mark.parametrize("rule", ["barycentric", "edge_midpoint"])
def test_subdivision_kids_are_the_child_rows_ids(monkeypatch, n_dim, n_points, rule):
    rng = np.random.default_rng(n_dim * 7 + n_points)
    points, tops = shuffled_mixed_tops(rng, n_dim, n_points)
    K = build_complex(points, tops)
    edge = K.simplex_tuple(1, int(rng.integers(K.n_simplices(1))))
    given = []
    assemble = complexes._assemble_subdivision

    def recording(K, new_vertices, children):
        given.append(children)
        return assemble(K, new_vertices, children)

    monkeypatch.setattr(complexes, "_assemble_subdivision", recording)
    refined, corr = subdivide(K, rule, edge=edge)
    for d, ((parents, rows), (kids, parents_out, _)) in enumerate(zip(given[0], corr.children)):
        pos, found = _find(refined.simplex_rows[d], rows)
        assert found.all()
        assert kids.tolist() == pos.tolist()
        assert parents_out.tolist() == parents.tolist()


def test_construction_and_subdivision_look_no_rows_up(monkeypatch):
    def refuse(level, rows):
        raise AssertionError("construction looked rows up")

    rng = np.random.default_rng(5)
    points, tops = shuffled_mixed_tops(rng, 3, 20)
    monkeypatch.setattr(complexes, "_find", refuse)
    K = build_complex(points, tops)
    edge = K.simplex_tuple(1, 0)
    on_edge = sum(set(edge) <= set(t) for t in tuples(K)[3])
    for rule, n_tets in (("barycentric", 24 * K.n_simplices(3)), ("edge_midpoint", K.n_simplices(3) + on_edge)):
        refined, _ = subdivide(K, rule, edge=edge)
        assert refined.n_simplices(3) == n_tets


def test_vertex_ids_beyond_int64_are_refused():
    for big in (2**63, 2**64, -(2**63) - 1):
        with pytest.raises(ValueError, match=r"below 2\*\*63"):
            build_complex([[0, 0], [1, 0], [0, 1]], [(0, 1), (1, big)])
    # integral floats and numpy integers are ids as before
    K = build_complex([[0, 0], [1, 0], [0, 1]], [(0.0, np.int64(1), 2)])
    assert tuples(K)[2] == [(0, 1, 2)]


@pytest.mark.parametrize("n_dim, n_points", [(2, 20), (3, 12)])
def test_subdivisions_are_canonical_complexes(n_dim, n_points):
    from scipy.spatial import Delaunay

    rng = np.random.default_rng(n_dim * 10 + n_points)
    points = rng.uniform(size=(n_points, n_dim))
    K = build_complex(points, Delaunay(points).simplices.tolist())
    edge = K.simplex_tuple(1, int(rng.integers(K.n_simplices(1))))
    for rule in ("barycentric", "edge_midpoint"):
        refined, corr = subdivide(K, rule, edge=edge)
        tops = [refined.simplex_tuple(d, i) for d, i in refined.maximal_simplices()]
        assert tuples(refined) == tuples(build_complex(refined.vertices, tops))
        for d in range(K.dim + 1):
            assert all(list(t) == sorted(set(t)) for t in tuples(refined)[d])
            per_parent = np.bincount(corr.children[d][1], minlength=K.n_simplices(d)).tolist()
            if rule == "barycentric":
                assert per_parent == [math.factorial(d + 1)] * K.n_simplices(d)
            else:
                assert per_parent == [2 if set(edge) <= set(t) else 1 for t in tuples(K)[d]]


def test_double_incidence_cancellation():
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    K = build_complex(verts, [(0, 1, 2, 3), (1, 2, 3, 4)])
    for d in range(2, K.dim + 1):
        prod = K.boundary_matrix(d - 1) @ K.boundary_matrix(d)
        assert prod.nnz == 0 or np.all(prod.toarray() == 0)


# ---------------------------------------------------------------------------
# boundary regions / interior faces

def test_interior_faces_of_y_complex():
    K = y_complex()
    gamma = BoundaryRegion.from_tuples(K, [(1,), (2,), (3,)])
    inside = np.flatnonzero(interior_faces(K, 1, gamma))
    assert [K.simplex_tuple(0, i) for i in inside] == [(0,)]


def test_interior_faces_triangle_fully_designated():
    K = build_complex([[0, 0], [1, 0], [0, 1]], [(0, 1, 2)])
    gamma = BoundaryRegion.from_tuples(K, [(0, 1), (0, 2), (1, 2)])
    assert not interior_faces(K, 2, gamma).any()


def test_interior_faces_fan_of_three_triangles():
    verts = [[0, 0, 0], [0, 0, 1], [1, 0, 0], [-0.5, 0.8, 0], [-0.5, -0.8, 0]]
    K = build_complex(verts, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    outer = [t for t in tuples(K)[1] if t != (0, 1)]
    gamma = BoundaryRegion.from_tuples(K, outer)
    inside = np.flatnonzero(interior_faces(K, 2, gamma))
    assert [K.simplex_tuple(1, i) for i in inside] == [(0, 1)]


def test_boundary_region_validates_ids():
    K = y_complex()
    with pytest.raises(ValueError, match="out of range"):
        BoundaryRegion(K, 0, frozenset({99}))


# ---------------------------------------------------------------------------
# geometry validation

def test_disjoint_triangles_are_valid():
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5], [6, 5, 5], [5, 6, 5]]
    K = build_complex(verts, [(0, 1, 2), (3, 4, 5)])
    assert validate_geometry(K).valid


def test_triangles_sharing_one_vertex_are_valid():
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]]
    K = build_complex(verts, [(0, 1, 2), (0, 3, 4)])
    assert validate_geometry(K).valid


def test_crossing_triangles_are_reported():
    # second triangle's edge passes through the first one's interior
    verts = [
        [0, 0, 0], [2, 0, 0], [0, 2, 0],
        [0.5, 0.5, -1], [0.5, 0.5, 1], [3, 3, 1],
    ]
    K = build_complex(verts, [(0, 1, 2), (3, 4, 5)])
    # oracle: that edge really does puncture the triangle
    assert segment_triangle_intersects(verts[3], verts[4], verts[:3])
    report = validate_geometry(K)
    assert not report.valid
    assert report.violations[0][0] == (0, 1, 2)


def test_conforming_mesh_passes():
    K = build_complex([[0, 0], [1, 0], [0, 1], [1, 1]], [(0, 1, 2), (1, 2, 3)])
    assert validate_geometry(K).valid


def test_t_junction_is_reported():
    # edge (3,4) touches triangle (0,1,2) along half of its edge (0,1)
    verts = [[0, 0], [2, 0], [0, 2], [1, 0], [3, 0]]
    K = build_complex(verts, [(0, 1, 2), (3, 4)])
    assert not validate_geometry(K).valid


# ---------------------------------------------------------------------------
# subdivision

def test_barycentric_triangle_gives_six_children():
    K = build_complex([[0, 0], [1, 0], [0, 1]], [(0, 1, 2)])
    refined, corr = subdivide(K, "barycentric")
    assert refined.n_simplices(2) == 6
    kids, parents, _ = corr.children[2]
    children = kids[parents == 0]
    assert len(children) == 6
    total = refined.volumes(2)[children].sum()
    assert total == pytest.approx(0.5, rel=1e-12)


def test_edge_midpoint_split_of_triangle():
    K = build_complex([[0, 0], [1, 0], [0, 1]], [(0, 1, 2)])
    refined, corr = subdivide(K, "edge_midpoint", edge=(0, 1))
    assert refined.n_simplices(2) == 2
    assert np.count_nonzero(corr.children[2][1] == 0) == 2
    d, eid = 1, int(K.simplex_ids([(0, 2)])[0])
    kids, parents, signs = corr.children[d]
    column = np.zeros(refined.n_simplices(d), dtype=int)
    column[kids[parents == eid]] = signs[parents == eid]
    assert column.tolist() == [1 if cid == refined.simplex_ids([(0, 2)])[0] else 0
                               for cid in range(refined.n_simplices(d))]


def test_subdivision_preserves_volumes():
    rng = np.random.default_rng(41)
    verts = rng.standard_normal((5, 3))
    K = build_complex(verts, [(0, 1, 2, 3), (1, 2, 3, 4)])
    refined, corr = subdivide(K, "barycentric")
    for d in range(1, K.dim + 1):
        kids, parents, _ = corr.children[d]
        for sid in range(K.n_simplices(d)):
            total = refined.volumes(d)[kids[parents == sid]].sum()
            assert total == pytest.approx(K.volumes(d)[sid], rel=1e-12)


def test_subdivision_signs_match_parent_orientation():
    rng = np.random.default_rng(43)
    verts = rng.standard_normal((4, 3))
    K = build_complex(verts, [(0, 1, 2, 3)])
    refined, corr = subdivide(K, "barycentric")
    for d in range(1, K.dim + 1):
        kids, parents, signs = corr.children[d]
        assert 0 <= kids.min() and kids.max() < refined.n_simplices(d)
        assert 0 <= parents.min() and parents.max() < K.n_simplices(d)
        assert np.bincount(kids).max() == 1  # a child lies in one parent
        for cid, sid, sign in zip(kids, parents, signs):
            parent = K.unit_blade(d, sid)
            child = refined.unit_blade(d, cid)
            assert np.allclose(child, int(sign) * parent, rtol=0.0, atol=1e-9)


def test_subdivide_unknown_rule_and_missing_edge():
    K = build_complex([[0, 0], [1, 0], [0, 1]], [(0, 1, 2)])
    with pytest.raises(ValueError, match="unknown"):
        subdivide(K, "trisect")
    with pytest.raises(ValueError, match="not an edge"):
        subdivide(K, "edge_midpoint", edge=(0, 7))


# ---------------------------------------------------------------------------
# pushforward of the embedding

def test_pushforward_identity_keeps_everything():
    K = y_complex()
    image, new_ids, _ = pushforward_complex(K, K.vertices)
    assert all((ids >= 0).all() for ids in new_ids)
    assert tuples(image) == tuples(K)


def test_pushforward_drops_collapsed_triangle():
    K = build_complex([[0, 0], [1, 0], [0, 1], [1, 1]], [(0, 1, 2), (1, 2, 3)])
    images = K.vertices.copy()
    images[3] = [0.5, 0.5]  # onto the shared edge: triangle (1,2,3) flattens
    image, new_ids, _ = pushforward_complex(K, images)
    d, sid = 2, int(K.simplex_ids([(1, 2, 3)])[0])
    assert new_ids[d][sid] == -1
    assert image.n_simplices(2) == 1


def test_pushforward_accepts_vertex_dict():
    K = y_complex()
    image, new_ids, _ = pushforward_complex(K, {0: [0.2, 0.1]})
    assert all((ids >= 0).all() for ids in new_ids)
    assert np.allclose(image.vertices[0], [0.2, 0.1])
    assert np.allclose(image.vertices[1:], K.vertices[1:])


def test_pushforward_rejects_frozen_move_and_collision():
    K = y_complex()
    moved = K.vertices.copy()
    moved[1] = [0.5, 0.5]
    with pytest.raises(ValueError, match="frozen"):
        pushforward_complex(K, moved, frozen=[1])
    collided = K.vertices.copy()
    collided[1] = collided[2]
    with pytest.raises(ValueError, match="collision"):
        pushforward_complex(K, collided)


# ---------------------------------------------------------------------------
# serialization

def test_complex_json_round_trip():
    K = build_complex([[0, 0], [1, 0], [0, 1], [1, 1]], [(0, 1, 2), (1, 2, 3)])
    gamma = BoundaryRegion.from_tuples(K, [(0, 1), (0, 2)])
    doc = K.to_json(gamma)
    K2, gamma2 = complex_from_json(doc)
    assert tuples(K2) == tuples(K)
    assert np.array_equal(K2.vertices, K.vertices)
    assert gamma2.face_ids == gamma.face_ids
    assert K2.content_hash() == K.content_hash()
