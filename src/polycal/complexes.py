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
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

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
    """(n, k) non-negative integer rows as n int64 keys in their lexicographic order.

    Each column is appended in mixed radix, base max id + 1.  When the next
    multiply would reach 2**63 the keys so far are first replaced by their
    ranks, so rows of any width and ids of any size take this one path.
    """
    rows = np.asarray(rows, dtype=np.int64)
    base = int(rows.max(initial=0)) + 1
    keys, bound = np.zeros(len(rows), dtype=np.int64), 1
    for column in rows.T:
        if bound * base >= 2**63:
            ranks, keys = np.unique(keys, return_inverse=True)
            bound = len(ranks)
        keys, bound = keys * base + column, bound * base
    return keys


def _find(level, rows):
    """Positions of ``rows`` in the sorted distinct rows ``level``, and which are there."""
    # both are keyed together, to share one base; an id outside level's
    # range matches no row, so clipping it moves only a miss
    keys = _lexical(np.vstack([level, np.clip(rows, 0, level.max(initial=0) + 1)]))
    pos = np.searchsorted(keys[:len(level)], keys[len(level):])
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


def flat(volumes, edges, m, tol=None) -> np.ndarray:
    """Which m-simplices of the given volumes and longest edges are flat at
    their own scale: volume <= tol * longest_edge^m.

    The test does not change under uniform scaling; vertices (m = 0) never
    are flat.
    """
    return volumes <= config.zero_tol(tol) * edges ** m


def degenerate(points, tol=None) -> np.ndarray:
    """Which of the stacked (..., m+1, N) simplices are ``flat``."""
    points = np.asarray(points, dtype=float)
    return flat(volume_of_points(points), longest_edge(points), points.shape[-2] - 1, tol)


def json_floats(values) -> np.ndarray:
    """The ``json.dumps`` text of each float of ``values``, in an object array
    of the same shape.

    Each distinct bit pattern is formatted once.  The key is the bits, not
    the value: -0.0 and 0.0 compare equal but are written differently.
    """
    values = np.ascontiguousarray(values, dtype=float)
    bits, inverse = np.unique(values.view(np.int64).ravel(), return_inverse=True)
    floats = bits.view(np.float64).tolist()
    texts = np.array([repr(x) if math.isfinite(x) else json.dumps(x) for x in floats], dtype=object)
    return texts[inverse].reshape(values.shape)


def json_rows(template: str, table) -> str:
    """Each row of the 2-D ``table`` written by ``template``, one ``%`` field
    per column, joined by ", " as ``json.dumps`` joins list items."""
    return ", ".join([template] * len(table)) % tuple(np.asarray(table).ravel().tolist())


def json_list_template(field: str, k: int) -> str:
    """The ``%`` template of a JSON list of k items written by ``field``."""
    return "[" + ", ".join([field] * k) + "]"


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
        nv = len(vertices)
        levels = [np.asarray(s if isinstance(s, np.ndarray) else list(s), dtype=np.intp)
                  .reshape(len(s), d + 1) for d, s in enumerate(simplices_by_dim)]
        if any(np.any((s < 0) | (s >= nv)) or np.any(s[:, 1:] <= s[:, :-1]) for s in levels):
            raise ValueError(f"simplices must be increasing vertex ids in 0..{nv - 1}")
        # top down, the first level that gains a row names a given simplex
        for d, gap in reversed(list(enumerate(self._index(levels)[1]))):
            if gap.size:
                k = int(gap.min())
                face, t = self.simplex_tuple(d, self.faces[d + 1].flat[k]), self.simplex_tuple(d + 1, k // (d + 2))
                raise ValueError(f"face {face} of {t} missing from complex")

    def _index(self, tops):
        """Set the simplices to the face closure of ``tops[d]`` (sorted (n, d+1)
        int rows), top down: one ``np.unique`` of level d with the facets of
        level d+1 gives the level, the face table above, and the two lists
        returned, ``ids[d]``, the id of each row of ``tops[d]``, and ``gaps[d]``,
        where among those facets a row not in ``tops[d]`` first appears.
        """
        while tops and not len(tops[-1]):
            tops = tops[:-1]
        n = len(tops)
        # simplex_rows[d] is the (n_d, d+1) array of the d-simplices' vertex
        # ids in lexicographic order; faces[d][i, j] = id of the (d-1)-face of
        # simplex i with vertex j removed, carrying incidence sign (-1)^j
        self.simplex_rows, self.faces, ids, gaps = [None] * n, [None] * n, [None] * n, [None] * n
        for d in range(n - 1, -1, -1):
            above = _facets(self.simplex_rows[d + 1]).reshape(-1, d + 1) if d + 1 < n else tops[d][:0]
            rows = np.vstack([tops[d], above])
            _, first, inverse = np.unique(_lexical(rows), return_index=True, return_inverse=True)
            self.simplex_rows[d], ids[d] = rows[first], inverse[:len(tops[d])]
            gaps[d] = first[first >= len(tops[d])] - len(tops[d])
            if d + 1 < n:
                self.faces[d + 1] = inverse[len(tops[d]):].reshape(-1, d + 2)
        total = sum(len(s) for s in self.simplex_rows)
        if total > config.MAX_SIMPLICES:
            raise ValueError(f"complex has {total} simplices, above desk-scale limit")
        for rows in self.simplex_rows + self.faces[1:]:
            rows.setflags(write=False)
        # (volumes, longest edges, flat mask, unit blades or None) per dimension
        self._geometry = [None] * n
        self._boundary_matrices = {}
        return ids, gaps

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
        """H^d measures |blade| / d! of all d-simplices.

        One blade pass per dimension caches them with the longest edges, the
        flat mask and the unit blades.  Raises ValueError when a volume or an
        edge overflows.
        """
        if self._geometry[d] is None:
            points = self.vertices[self.simplex_rows[d]]
            blades = blade_of_points(points)
            norms, edges = np.linalg.norm(blades, axis=1), longest_edge(points)
            if not (np.isfinite(norms).all() and np.isfinite(edges).all()):
                raise ValueError("the geometry holds a non-finite number: an input overflows double precision")
            volumes = norms / math.factorial(d)
            flats = flat(volumes, edges, d)
            # a flat simplex has no unit blade: ``unit_blades`` raises instead
            units = None if flats.any() else blades * (1.0 / norms)[:, None]
            for values in (volumes, edges, flats, blades if units is None else units):
                values.setflags(write=False)
            self._geometry[d] = (volumes, edges, flats, units)
        return self._geometry[d][0]

    def longest_edges(self, d: int) -> np.ndarray:
        """Longest edge length of each d-simplex (cached with ``volumes``)."""
        self.volumes(d)
        return self._geometry[d][1]

    def flat(self, d: int) -> np.ndarray:
        """Which d-simplices are ``flat`` at the default tolerance (cached with ``volumes``)."""
        self.volumes(d)
        return self._geometry[d][2]

    def unit_blades(self, d: int) -> np.ndarray:
        """Unit simple d-vectors of all canonically oriented d-simplices
        (cached with ``volumes``).

        One row of C(N, d) coefficients per simplex; grade 0 is the scalar 1.
        """
        self.volumes(d)
        _, _, flats, units = self._geometry[d]
        if units is None:
            raise DegenerateSimplexError(f"simplex {(d, int(np.argmax(flats)))} is geometrically degenerate")
        return units

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
        from scipy import sparse

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

    def _maximal_rows(self) -> list:
        """The rows of the simplices with no coface, one array per dimension."""
        return [self.simplex_rows[d][self._maximal_ids(d)] for d in range(self.dim + 1)]

    def to_json(self, gamma=None) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "vertices": self.vertices.tolist(),
            "simplices": [t for rows in self._maximal_rows() for t in rows.tolist()],
            "gamma_faces": [] if gamma is None else self.simplex_rows[gamma.face_dim][sorted(gamma.face_ids)].tolist(),
        }

    def content_text(self) -> str:
        """``json.dumps(doc, sort_keys=True)`` of ``to_json()`` less its
        ``gamma_faces``, written from the arrays."""
        simplices = ", ".join(json_rows(json_list_template("%d", rows.shape[1]), rows)
                              for rows in self._maximal_rows() if len(rows))
        vertices = json_rows(json_list_template("%s", self.ambient_dim), json_floats(self.vertices))
        return f'{{"ambient_dim": {self.ambient_dim}, "simplices": [{simplices}], "vertices": [{vertices}]}}'

    def content_hash(self) -> str:
        return digest(self.content_text())


def digest(text: str) -> str:
    """sha256 of a canonical JSON text (``json.dumps(doc, sort_keys=True)``
    or the same text written from arrays), cut to 16 hex characters."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


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
        _, rows = vertex_rows(face_tuples, len(face_tuples[0]))
        return cls(complex, rows.shape[1] - 1, frozenset(complex.simplex_ids(rows).tolist()))

    def vertex_ids(self) -> frozenset:
        return frozenset(self.complex.simplex_rows[self.face_dim][list(self.face_ids)].ravel().tolist())


def integral(value) -> bool:
    """Whether ``value`` is an integer or an integral float, and not a bool."""
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    return integer or isinstance(value, float) and value.is_integer()


def real_floats(values, what: str) -> np.ndarray:
    """A number, a list of numbers or a list of lists of numbers as floats.

    A bool, a string or any other non-number is refused, and so is an
    integer beyond float range.
    """
    try:
        array = np.array(values, dtype=float)
    except OverflowError:
        raise ValueError(f"{what} beyond float range") from None
    except TypeError:  # a JSON object among the numbers
        raise ValueError(f"{what}s must be numbers") from None
    # np.array takes a bool or a numeric string as well; one pass over the
    # types passes the common case, JSON floats and ints only
    rows = values if array.ndim == 2 else [values] if array.ndim == 1 else [[values]]
    entries = list(itertools.chain.from_iterable(rows))
    if set(map(type, entries)) - {float, int}:
        bad = next((x for x in entries if isinstance(x, bool) or not isinstance(x, numbers.Real)), None)
        if bad is not None:
            raise ValueError(f"{bad!r} is not a real {what}")
    return array


def vertex_rows(tuples, k: int):
    """Sequences of k distinct vertex ids as (n, k) int rows: as given, and sorted."""
    if set(map(len, tuples)) - {k}:
        wrong = next(t for t in tuples if len(t) != k)
        raise ValueError(f"{tuple(wrong)} is not a {k - 1}-simplex")
    # one pass over the types passes the common case, JSON integers only
    entries = itertools.chain.from_iterable
    if set(map(type, entries(tuples))) - {int} and not all(map(integral, entries(tuples))):
        raise ValueError("vertex ids must be integers")
    try:
        rows = np.fromiter(entries(tuples), dtype=np.intp, count=len(tuples) * k).reshape(len(tuples), k)
    except OverflowError:
        raise ValueError("vertex ids must be integers below 2**63 in size") from None
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
    vertices = real_floats(vertices, "vertex coordinate")
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
    return _closed_complex(vertices, tops)[0]


def _closed_complex(vertices, tops):
    """The complex of the valid d-simplices ``tops[d]`` (sorted (n, d+1) int
    rows) and their faces, and the given rows' ids; each top must be nondegenerate."""
    # the complex rejects non-finite vertices, which would trip the flatness test
    K = EmbeddedComplex(vertices, [])
    ids = K._index(tops)[0]
    for d in range(1, len(ids)):  # naming the first flat top in input order
        flats = np.flatnonzero(K.flat(d)[ids[d]]) if len(ids[d]) else ()
        if len(flats):
            raise ValueError(f"top simplex {tuple(tops[d][flats[0]].tolist())} is geometrically degenerate")
    return K, ids


def json_list(doc, key, item=object):
    """``doc[key]``, checked to be a JSON list whose entries are ``item``s."""
    value = doc[key]
    if not isinstance(value, list) or not all(map(isinstance, value, itertools.repeat(item))):
        kind = "" if item is object else f" of {item.__name__}s"
        raise ValueError(f"{key!r} must be a list{kind}")
    return value


def json_integer(doc, key) -> int:
    """``doc[key]``, checked to be an integer."""
    if not integral(doc[key]):
        raise ValueError(f"{key!r} must be an integer")
    return int(doc[key])


def complex_from_json(doc) -> tuple:
    """Parse the complex JSON format; returns (complex, gamma-or-None)."""
    K = build_complex(
        json_list(doc, "vertices"),
        json_list(doc, "simplices", list),
        ambient_dim=None if doc.get("ambient_dim") is None else json_integer(doc, "ambient_dim"),
    )
    gamma = None
    if doc.get("gamma_faces"):
        gamma = BoundaryRegion.from_tuples(K, json_list(doc, "gamma_faces", list))
    return K, gamma


def interior_faces(K: EmbeddedComplex, m: int, gamma: BoundaryRegion) -> np.ndarray:
    """Boolean mask over the (m-1)-simplices of K: True off the boundary region."""
    if gamma.complex is not K:
        raise ValueError("boundary region belongs to a different complex")
    if gamma.face_dim != m - 1:
        raise ValueError(
            f"boundary region has face dimension {gamma.face_dim}, expected {m - 1}"
        )
    inside = np.ones(K.n_simplices(m - 1), dtype=bool)
    inside[list(gamma.face_ids)] = False
    return inside


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
    c = -np.ones(ka + kb)
    c[list(shared_a) + [ka + j for j in shared_b]] = 0.0
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
    tuples = [K.simplex_tuple(d, i) for d, i in K.maximal_simplices()]
    points = [K.vertices[list(t)] for t in tuples]
    lo, hi = [p.min(axis=0) for p in points], [p.max(axis=0) for p in points]
    violations, checked = [], 0
    for a, b in itertools.combinations(range(len(tuples)), 2):
        if np.any(lo[a] > hi[b] + tol) or np.any(lo[b] > hi[a] + tol):
            continue
        ta, tb = tuples[a], tuples[b]
        checked += 1
        shared_a = {k for k, v in enumerate(ta) if v in tb}
        shared_b = {k for k, v in enumerate(tb) if v in ta}
        weight = _pair_overlap_weight(points[a], points[b], shared_a, shared_b)
        if weight is not None and weight > tol:
            violations.append((ta, tb, weight))
    return GeometryReport(valid=not violations, violations=violations, pairs_checked=checked)


# ---------------------------------------------------------------------------
# subdivision

@dataclass
class SubdivisionMap:
    """Correspondence from parent simplices to oriented children.

    ``children[d]`` is (kids, parents, signs) for the d-simplices: child
    ``kids[i]`` lies in parent ``parents[i]``, and ``signs[i]`` (+1 or -1)
    relates the child's canonical orientation to the parent's.  Each child
    lies in exactly one parent.
    """

    src: EmbeddedComplex
    dst: EmbeddedComplex
    children: list


def _assemble_subdivision(K, new_vertices, children):
    """Build the refined complex and resolve ids/signs.

    ``children[d]`` is (parent ids, child rows): the d-simplices of the
    refinement inside each parent, as sorted vertex rows.
    """
    refined, ids = _closed_complex(new_vertices, [rows for _, rows in children])
    resolved = []
    for d, ((parents, _), kids) in enumerate(zip(children, ids)):
        dots = rowdot(K.unit_blades(d)[parents], refined.unit_blades(d)[kids])
        skew = np.flatnonzero(np.abs(np.abs(dots) - 1.0) > 1e-6)
        if skew.size:
            raise RuntimeError(f"child {kids[skew[0]]} not parallel to parent {parents[skew[0]]}")
        resolved.append((kids, parents, np.where(dots > 0, 1, -1).astype(np.int8)))
    return refined, SubdivisionMap(src=K, dst=refined, children=resolved)


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
    if edge.size != 2 or K.dim < 1 or not (K.simplex_rows[1] == edge).all(axis=1).any():
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
    stay pairwise distinct.  Returns (new complex, new_ids, gamma carried to
    the new complex or None): ``new_ids[d]`` holds each d-simplex's id in the
    new complex, or -1 where its image collapsed.  Kept simplices keep their
    order, so each ``new_ids[d]`` increases strictly off the -1 entries.
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
    flats = [degenerate(coords[rows], tol) for rows in K.simplex_rows]
    new_ids = [np.where(flat, -1, np.cumsum(~flat) - 1) for flat in flats]
    image = EmbeddedComplex(coords, [rows[ids >= 0] for rows, ids in zip(K.simplex_rows, new_ids)])
    image_gamma = None
    if gamma is not None:
        moved = new_ids[gamma.face_dim][list(gamma.face_ids)]
        image_gamma = BoundaryRegion(image, gamma.face_dim, frozenset(moved[moved >= 0].tolist()))
    return image, new_ids, image_gamma
