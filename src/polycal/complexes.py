"""Finite simplicial complexes embedded in R^N.

The d-simplices are the rows of one int array of strictly increasing vertex
ids, in lexicographic order; a simplex's id is its row number, and
``simplex_ids`` looks rows up by binary search.  The sorted row is the
canonical combinatorial orientation and user orientations live on chain
coefficients instead.  Construction closes the input under the face relation.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import config
from .exterior_algebra import (
    DegenerateSimplexError,
    blade_of_points,
    rowdot,
    volume_of_points,
)


def _facets(rows) -> np.ndarray:
    """(n, d+1, d) facets of (n, d+1) vertex rows; facet j drops vertex j."""
    k = rows.shape[1]
    return rows[:, [[i for i in range(k) if i != j] for j in range(k)]]


def _lexical(rows) -> np.ndarray:
    """(n, k) non-negative integer rows as n keys in their lexicographic order.

    A key is the row's big-endian bytes, which compare bytewise as the row
    compares entry by entry, whatever the size of the entries.
    """
    raw = np.ascontiguousarray(rows, dtype=">u8")
    return raw.view(np.dtype((np.void, raw.itemsize * raw.shape[1]))).reshape(-1)


def _distinct(rows) -> np.ndarray:
    """The distinct rows of ``rows``, in lexicographic order."""
    return rows[np.unique(_lexical(rows), return_index=True)[1]]


def _find(level, rows):
    """Positions of ``rows`` in the sorted distinct rows ``level``, and which are there."""
    pos = np.searchsorted(_lexical(level), _lexical(rows))
    found = pos < len(level)
    found[found] = np.all(level[pos[found]] == rows[found], axis=1)
    return pos, found


def vertex_pairs(k: int):
    """Index arrays (i, j) of the pairs i < j among k vertices."""
    pairs = list(itertools.combinations(range(k), 2))
    return np.array(pairs, dtype=np.intp).reshape(-1, 2).T


def longest_edge(points) -> np.ndarray:
    """Longest edge length of each of the stacked (..., m+1, N) simplices."""
    i, j = vertex_pairs(points.shape[-2])
    edges = points[..., i, :] - points[..., j, :]
    return np.sqrt(np.max(np.sum(edges * edges, axis=-1), axis=-1, initial=0.0))


def degenerate(points, tol=None) -> np.ndarray:
    """Which of the stacked (..., m+1, N) simplices are flat at their own scale.

    A simplex is degenerate when volume <= tol * longest_edge^m, so the test
    does not change under uniform scaling; vertices (m = 0) never are.
    """
    points = np.asarray(points, dtype=float)
    m = points.shape[-2] - 1
    return volume_of_points(points) <= config.zero_tol(tol) * longest_edge(points) ** m


class EmbeddedComplex:
    """Immutable simplicial complex with vertex coordinates in R^N."""

    def __init__(self, vertices, simplices_by_dim):
        vertices = np.array(vertices, dtype=float)
        if vertices.ndim != 2:
            raise ValueError("vertices must be a (V, N) array")
        if not np.all(np.isfinite(vertices)):
            raise ValueError("vertex coordinates must be finite")
        n = vertices.shape[1]
        if not 1 <= n <= config.MAX_AMBIENT_DIM:
            raise ValueError(
                f"ambient dimension {n} outside supported range 1..{config.MAX_AMBIENT_DIM}"
            )
        vertices.setflags(write=False)
        self.vertices = vertices
        self.ambient_dim = n
        # simplex_rows[d] is the (n_d, d+1) array of the d-simplices' vertex
        # ids in lexicographic order
        nv = len(vertices)
        levels = [np.asarray(s if isinstance(s, np.ndarray) else list(s), dtype=np.intp)
                  .reshape(len(s), d + 1) for d, s in enumerate(simplices_by_dim)]
        if any(np.any((s < 0) | (s >= nv)) or np.any(s[:, 1:] <= s[:, :-1]) for s in levels):
            raise ValueError(f"simplices must be increasing vertex ids in 0..{nv - 1}")
        self.simplex_rows = [_distinct(s) for s in levels]
        while self.simplex_rows and not len(self.simplex_rows[-1]):
            self.simplex_rows.pop()
        total = sum(len(s) for s in self.simplex_rows)
        if total > config.MAX_SIMPLICES:
            raise ValueError(f"complex has {total} simplices, above desk-scale limit")
        # faces[d][i, j] = id of the (d-1)-face of simplex i with vertex j removed,
        # carrying incidence sign (-1)^j
        self.faces = [None]
        for d in range(1, len(self.simplex_rows)):
            facets = _facets(self.simplex_rows[d]).reshape(-1, d)
            table, found = _find(self.simplex_rows[d - 1], facets)
            if not found.all():
                k = int(np.argmin(found))
                face, t = tuple(facets[k].tolist()), self.simplex_tuple(d, k // (d + 1))
                raise ValueError(f"face {face} of {t} missing from complex")
            self.faces.append(table.reshape(-1, d + 1))
        for rows in self.simplex_rows + self.faces[1:]:
            rows.setflags(write=False)
        self._volumes = [None] * len(self.simplex_rows)
        self._unit_blades = [None] * len(self.simplex_rows)
        self._boundary_matrices = {}

    @property
    def dim(self) -> int:
        return len(self.simplex_rows) - 1

    def n_simplices(self, d: int) -> int:
        if 0 <= d <= self.dim:
            return len(self.simplex_rows[d])
        return 0

    def simplex_tuple(self, d: int, sid: int) -> tuple:
        return tuple(self.simplex_rows[d][sid].tolist())

    def simplex_ids(self, rows) -> np.ndarray:
        """Ids of the d-simplices given as (n, d+1) sorted vertex rows.

        Raises KeyError naming the first row that is not a simplex.
        """
        rows = np.asarray(rows, dtype=np.intp)
        d = rows.shape[1] - 1
        ids, found = np.zeros(len(rows), dtype=np.intp), np.zeros(len(rows), dtype=bool)
        if 0 <= d <= self.dim:
            ids, found = _find(self.simplex_rows[d], rows)
        if not found.all():
            missing = tuple(rows[np.argmin(found)].tolist())
            raise KeyError(f"{missing} is not a simplex of the complex")
        return ids

    def volumes(self, d: int) -> np.ndarray:
        """H^d measures of all d-simplices (cached)."""
        if self._volumes[d] is None:
            vols = volume_of_points(self.vertices[self.simplex_rows[d]])
            vols.setflags(write=False)
            self._volumes[d] = vols
        return self._volumes[d]

    def volume(self, d: int, sid: int) -> float:
        return float(self.volumes(d)[sid])

    def unit_blades(self, d: int) -> np.ndarray:
        """Unit simple d-vectors of all canonically oriented d-simplices (cached).

        One row of C(N, d) coefficients per simplex; grade 0 is the scalar 1.
        """
        if self._unit_blades[d] is None:
            points = self.vertices[self.simplex_rows[d]]
            flat = np.flatnonzero(degenerate(points))
            if flat.size:
                raise DegenerateSimplexError(
                    f"simplex {(d, int(flat[0]))} is geometrically degenerate"
                )
            blades = blade_of_points(points)
            blades = blades * (1.0 / np.linalg.norm(blades, axis=1))[:, None]
            blades.setflags(write=False)
            self._unit_blades[d] = blades
        return self._unit_blades[d]

    def unit_blade(self, d: int, sid: int) -> np.ndarray:
        """Unit simple d-vector of one canonically oriented simplex."""
        return self.unit_blades(d)[sid]

    def _maximal_ids(self, d: int) -> np.ndarray:
        """Ids of the d-simplices with no coface: absent from faces[d+1]."""
        free = np.ones(self.n_simplices(d), dtype=bool)
        if d < self.dim:
            free[self.faces[d + 1]] = False
        return np.flatnonzero(free)

    def maximal_simplices(self):
        """(d, id) pairs of the simplices with no coface."""
        return [(d, i) for d in range(self.dim + 1) for i in self._maximal_ids(d).tolist()]

    def boundary_matrix(self, d: int):
        """Sparse incidence matrix (n_{d-1} x n_d) with entries (-1)^j."""
        if d not in self._boundary_matrices:
            if not 1 <= d <= self.dim:
                raise ValueError(f"no {d}-simplices to take a boundary of")
            n = self.n_simplices(d)
            vals = np.tile(np.where(np.arange(d + 1) % 2, -1.0, 1.0), n)
            cols = np.repeat(np.arange(n), d + 1)
            self._boundary_matrices[d] = sparse.csr_matrix(
                (vals, (self.faces[d].ravel(), cols)), shape=(self.n_simplices(d - 1), n)
            )
        return self._boundary_matrices[d]

    def to_json(self, gamma=None) -> dict:
        rows = self.simplex_rows
        return {
            "ambient_dim": self.ambient_dim,
            "vertices": self.vertices.tolist(),
            "simplices": [t for d in range(self.dim + 1) for t in rows[d][self._maximal_ids(d)].tolist()],
            "gamma_faces": [] if gamma is None else rows[gamma.face_dim][sorted(gamma.face_ids)].tolist(),
        }

    def content_hash(self) -> str:
        doc = self.to_json()
        doc.pop("gamma_faces")
        payload = json.dumps(doc, sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


@dataclass(frozen=True)
class BoundaryRegion:
    """Designated (m-1)-faces where chain boundary is permitted."""

    complex: EmbeddedComplex
    face_dim: int
    face_ids: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if not 0 <= self.face_dim <= self.complex.dim:
            raise ValueError(f"no simplices of dimension {self.face_dim}")
        n = self.complex.n_simplices(self.face_dim)
        bad = [i for i in self.face_ids if not 0 <= i < n]
        if bad:
            raise ValueError(f"face ids {bad} out of range for dimension {self.face_dim}")

    @classmethod
    def from_tuples(cls, complex, face_tuples):
        face_tuples = list(face_tuples)
        if not face_tuples:
            return cls(complex, 0)
        if len({len(t) for t in face_tuples}) > 1:
            raise ValueError("boundary region faces must share one dimension")
        _, rows = vertex_rows(face_tuples, len(face_tuples[0]))
        return cls(complex, rows.shape[1] - 1, frozenset(complex.simplex_ids(rows).tolist()))

    def vertex_ids(self) -> frozenset:
        return frozenset(self.complex.simplex_rows[self.face_dim][list(self.face_ids)].ravel().tolist())


def vertex_rows(tuples, k: int):
    """Sequences of k distinct vertex ids as (n, k) int rows: as given, and sorted."""
    wrong = next((t for t in tuples if len(t) != k), None)
    if wrong is not None:
        raise ValueError(f"{tuple(wrong)} is not a {k - 1}-simplex")
    try:
        rows = np.array(tuples, dtype=np.intp)
    except OverflowError:
        raise ValueError("vertex ids must be integers below 2**63 in size") from None
    if rows.ndim > 2:
        raise ValueError("vertex ids must be integers")
    rows = rows.reshape(len(tuples), k)
    simplices = np.sort(rows, axis=1)
    repeats = np.flatnonzero((simplices[:, 1:] == simplices[:, :-1]).any(axis=1))
    if repeats.size:
        raise ValueError(f"simplex {tuple(rows[repeats[0]].tolist())} repeats a vertex")
    return rows, simplices


def build_complex(vertices, top_simplices, ambient_dim=None) -> EmbeddedComplex:
    """Close the given simplices under the face relation and index everything.

    Input simplices may mix dimensions.  Top-dimensional entries must be
    geometrically nondegenerate; exact duplicates in the input are rejected.
    """
    vertices = np.array(vertices, dtype=float)
    if vertices.ndim == 1:
        vertices = vertices.reshape(-1, 1)
    if ambient_dim is not None and vertices.shape[1] != ambient_dim:
        raise ValueError(
            f"vertices have dimension {vertices.shape[1]}, expected {ambient_dim}"
        )
    nv = vertices.shape[0]
    top_simplices = list(top_simplices)
    sizes = [len(t) for t in top_simplices]
    if 0 in sizes:
        raise ValueError("simplex () has no vertices")
    tops = [vertex_rows([t for t, k in zip(top_simplices, sizes) if k == d + 1], d + 1)[1]
            for d in range(max(sizes, default=1))]
    for rows in tops:
        out = np.flatnonzero((rows[:, 0] < 0) | (rows[:, -1] >= nv))
        if out.size:
            raise ValueError(f"simplex {tuple(rows[out[0]].tolist())} has a vertex index out of range 0..{nv - 1}")
        repeated = np.ones(len(rows), dtype=bool)
        repeated[np.unique(_lexical(rows), return_index=True)[1]] = False
        if repeated.any():
            raise ValueError(f"duplicate simplex {tuple(rows[np.argmax(repeated)].tolist())}")
    return _closed_complex(vertices, tops)


def _closed_complex(vertices, tops) -> EmbeddedComplex:
    """The complex of the valid d-simplices ``tops[d]`` (sorted (n, d+1) int
    rows) and all their faces; each top must be nondegenerate."""
    # face closure, top down, one lexicographic deduplication per dimension
    levels = [_distinct(tops[-1])]
    for d in range(len(tops) - 2, -1, -1):
        below = np.vstack([tops[d], _facets(levels[0]).reshape(-1, d + 1)])
        levels.insert(0, _distinct(below))
    # the complex rejects non-finite vertices, which would trip the flatness test
    K = EmbeddedComplex(vertices, levels)
    for d in range(1, len(tops)):
        flat = np.flatnonzero(degenerate(K.vertices[tops[d]]))
        if flat.size:
            raise ValueError(f"top simplex {tuple(tops[d][flat[0]].tolist())} is geometrically degenerate")
    return K


def json_list(doc, key, item=object):
    """``doc[key]``, checked to be a JSON list whose entries are ``item``s."""
    value = doc[key]
    if not isinstance(value, list) or not all(isinstance(x, item) for x in value):
        kind = "" if item is object else f" of {item.__name__}s"
        raise ValueError(f"{key!r} must be a list{kind}")
    return value


def complex_from_json(doc) -> tuple:
    """Parse the complex JSON format; returns (complex, gamma-or-None)."""
    K = build_complex(
        json_list(doc, "vertices"),
        json_list(doc, "simplices", list),
        ambient_dim=doc.get("ambient_dim"),
    )
    gamma = None
    if doc.get("gamma_faces"):
        gamma = BoundaryRegion.from_tuples(K, json_list(doc, "gamma_faces", list))
    return K, gamma


def interior_faces(K: EmbeddedComplex, m: int, gamma: BoundaryRegion) -> list:
    """All (m-1)-simplex ids of K not designated as boundary."""
    if gamma.complex is not K:
        raise ValueError("boundary region belongs to a different complex")
    if gamma.face_dim != m - 1:
        raise ValueError(
            f"boundary region has face dimension {gamma.face_dim}, expected {m - 1}"
        )
    return [i for i in range(K.n_simplices(m - 1)) if i not in gamma.face_ids]


# ---------------------------------------------------------------------------
# geometry validation

@dataclass
class GeometryReport:
    valid: bool
    violations: list
    pairs_checked: int

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "pairs_checked": self.pairs_checked,
            "violations": [
                {
                    "simplex_a": list(a_t),
                    "simplex_b": list(b_t),
                    "overlap_weight": w,
                }
                for (a_t, b_t, w) in self.violations
            ],
        }


def _pair_overlap_weight(pa, pb, shared_a, shared_b):
    """LP: max total barycentric weight off the shared face at a common point.

    Returns None when the simplices are disjoint; otherwise the optimum.  A
    positive optimum means the geometric intersection exceeds the combinatorial
    common face.
    """
    from scipy.optimize import linprog

    ka, kb = pa.shape[0], pb.shape[0]
    n = pa.shape[1]
    # variables: barycentric coords lambda (ka) then mu (kb)
    c = np.zeros(ka + kb)
    for i in range(ka):
        if i not in shared_a:
            c[i] = -1.0
    for j in range(kb):
        if j not in shared_b:
            c[ka + j] = -1.0
    a_eq = np.zeros((n + 2, ka + kb))
    b_eq = np.zeros(n + 2)
    a_eq[:n, :ka] = pa.T
    a_eq[:n, ka:] = -pb.T
    a_eq[n, :ka] = 1.0
    b_eq[n] = 1.0
    a_eq[n + 1, ka:] = 1.0
    b_eq[n + 1] = 1.0
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, 1), method="highs")
    if not res.success:
        return None
    return float(-res.fun)


def validate_geometry(K: EmbeddedComplex, tol: float = 1e-7) -> GeometryReport:
    """Check that maximal simplices pairwise meet only in common faces.

    Report-based: violating pairs are listed, nothing is raised.
    """
    maximal = K.maximal_simplices()
    violations = []
    checked = 0
    boxes = []
    for d, i in maximal:
        pts = K.vertices[list(K.simplex_tuple(d, i))]
        boxes.append((pts.min(axis=0), pts.max(axis=0)))
    for a in range(len(maximal)):
        da, ia = maximal[a]
        ta = K.simplex_tuple(da, ia)
        pa = K.vertices[list(ta)]
        for b in range(a + 1, len(maximal)):
            db, ib = maximal[b]
            lo_a, hi_a = boxes[a]
            lo_b, hi_b = boxes[b]
            if np.any(lo_a > hi_b + tol) or np.any(lo_b > hi_a + tol):
                continue
            tb = K.simplex_tuple(db, ib)
            pb = K.vertices[list(tb)]
            shared = set(ta) & set(tb)
            shared_a = {k for k, v in enumerate(ta) if v in shared}
            shared_b = {k for k, v in enumerate(tb) if v in shared}
            checked += 1
            weight = _pair_overlap_weight(pa, pb, shared_a, shared_b)
            if weight is not None and weight > tol:
                violations.append((ta, tb, weight))
    return GeometryReport(valid=not violations, violations=violations, pairs_checked=checked)


# ---------------------------------------------------------------------------
# subdivision

@dataclass
class SubdivisionMap:
    """Correspondence from parent simplices to oriented children.

    ``matrices[d]`` is the sparse (children x parents) matrix of the
    d-simplices: entry +1 or -1 where the child lies in the parent, the sign
    relating the child's canonical orientation to the parent's.
    """

    src: EmbeddedComplex
    dst: EmbeddedComplex
    matrices: list


def _assemble_subdivision(K, new_vertices, children):
    """Build the refined complex and resolve ids/signs.

    ``children[d]`` is (parent ids, child rows): the d-simplices of the
    refinement inside each parent, as sorted vertex rows.
    """
    refined = _closed_complex(new_vertices, [rows for _, rows in children])
    matrices = []
    for d, (parents, rows) in enumerate(children):
        kids = _find(refined.simplex_rows[d], rows)[0]
        dots = rowdot(K.unit_blades(d)[parents], refined.unit_blades(d)[kids])
        skew = np.flatnonzero(np.abs(np.abs(dots) - 1.0) > 1e-6)
        if skew.size:
            raise RuntimeError(f"child {kids[skew[0]]} not parallel to parent {parents[skew[0]]}")
        signs = np.where(dots > 0, 1, -1).astype(np.int8)
        shape = (refined.n_simplices(d), K.n_simplices(d))
        matrices.append(sparse.csc_matrix((signs, (kids, parents)), shape=shape))
    return refined, SubdivisionMap(src=K, dst=refined, matrices=matrices)


def _barycentric(K: EmbeddedComplex):
    # the barycenters of the d-simplices (d >= 1) follow the old vertices,
    # in order of dimension and id; first[d] numbers the first of them
    centers = [K.vertices[K.simplex_rows[d]].mean(axis=1) for d in range(1, K.dim + 1)]
    new_vertices = np.vstack([K.vertices] + centers)
    first = [0] + list(itertools.accumulate([len(K.vertices)] + [len(c) for c in centers]))
    # flags[d][sid]: the (d+1)! chains of faces ending at the d-simplex, as the
    # new vertices (barycenters) of their members; the children of the simplex
    flags = [K.simplex_rows[0][:, None, :]]
    for d in range(1, K.dim + 1):
        lower = flags[-1][K.faces[d]].reshape(K.n_simplices(d), -1, d)
        tip = np.broadcast_to(first[d] + np.arange(len(lower))[:, None, None], lower.shape[:2] + (1,))
        flags.append(np.concatenate([lower, tip], axis=2))
    children = [(np.repeat(np.arange(len(f)), f.shape[1]), np.sort(f.reshape(-1, d + 1), axis=1))
                for d, f in enumerate(flags)]
    return _assemble_subdivision(K, new_vertices, children)


def _edge_midpoint(K: EmbeddedComplex, edge):
    edge = np.sort(np.asarray(edge, dtype=np.intp).ravel())
    if edge.size != 2 or K.dim < 1 or not _find(K.simplex_rows[1], edge[None])[1][0]:
        raise ValueError(f"{tuple(edge.tolist())} is not an edge of the complex")
    a, b = edge.tolist()
    w = K.vertices.shape[0]
    midpoint = 0.5 * (K.vertices[a] + K.vertices[b])
    new_vertices = np.vstack([K.vertices, midpoint[None, :]])
    children = []
    for rows in K.simplex_rows:
        # a simplex on the edge splits in two: one keeps a, the other b
        split = np.any(rows == a, axis=1) & np.any(rows == b, axis=1)
        whole, cut = np.flatnonzero(~split), rows[split]
        left, right = (np.sort(np.where(cut == v, w, cut), axis=1) for v in (b, a))
        parents = np.concatenate([whole, np.flatnonzero(split).repeat(2)])
        kids = np.vstack([rows[whole], np.stack([left, right], axis=1).reshape(-1, rows.shape[1])])
        children.append((parents, kids))
    return _assemble_subdivision(K, new_vertices, children)


def subdivide(K: EmbeddedComplex, rule: str, edge=None):
    """Refine the complex; returns (refined complex, SubdivisionMap).

    ``rule`` is ``"barycentric"`` (global) or ``"edge_midpoint"`` (split the
    named edge).  The map transports chains and varifolds onto the refinement.
    """
    if rule == "barycentric":
        return _barycentric(K)
    if rule == "edge_midpoint":
        if edge is None:
            raise ValueError("edge_midpoint rule needs an edge")
        return _edge_midpoint(K, edge)
    raise ValueError(f"unknown subdivision rule {rule!r}")


# ---------------------------------------------------------------------------
# simplexwise-affine pushforward (vertex relocation)

def pushforward_complex(K: EmbeddedComplex, images, frozen=(), gamma=None, tol=None):
    """Relocate vertices, keeping combinatorics; degenerate images are dropped.

    ``images`` is a (V, N) array or a {vertex_id: point} dict overlaying the
    original coordinates.  Vertices in ``frozen`` and the vertices of the
    boundary region ``gamma`` must map to themselves, and all images must
    stay pairwise distinct.  Returns (new complex, {(d, old_id): new_id or
    None}, dropped list, gamma carried to the new complex or None).
    """
    tol = config.zero_tol(tol)
    frozen = set(int(v) for v in frozen)
    if gamma is not None:
        frozen |= gamma.vertex_ids()
    if isinstance(images, dict):
        coords = K.vertices.copy()
        for v, p in images.items():
            coords[int(v)] = np.asarray(p, dtype=float)
    else:
        coords = np.array(images, dtype=float)
        if coords.shape != K.vertices.shape:
            raise ValueError("vertex image array must match the vertex array shape")
    for v in sorted(frozen):
        if not np.array_equal(coords[v], K.vertices[v]):
            raise ValueError(f"map moves frozen vertex {v}")
    if coords.shape[0] > 1:
        from scipy.spatial import cKDTree

        pairs = cKDTree(coords).query_pairs(r=tol)
        if pairs:
            u, v = sorted(pairs)[0]
            raise ValueError(f"vertex collision: images of {u} and {v} coincide")
    kept, simplex_map, dropped = [], {}, []
    for d, rows in enumerate(K.simplex_rows):
        flat = degenerate(coords[rows], tol)
        new_ids = np.where(flat, -1, np.cumsum(~flat) - 1).tolist()
        simplex_map.update({(d, sid): (None if j < 0 else j) for sid, j in enumerate(new_ids)})
        dropped += [(d, sid) for sid in np.flatnonzero(flat).tolist()]
        kept.append(rows[~flat])
    image = EmbeddedComplex(coords, kept)
    image_gamma = None
    if gamma is not None:
        ids = (simplex_map[(gamma.face_dim, i)] for i in gamma.face_ids)
        image_gamma = BoundaryRegion(
            image, gamma.face_dim, frozenset(i for i in ids if i is not None)
        )
    return image, simplex_map, dropped, image_gamma
