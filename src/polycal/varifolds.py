"""Polyhedral varifolds and the conormal-balance stationarity test.

A polyhedral varifold is two arrays: the strictly increasing ids of its
unoriented m-simplices and their strictly positive weights.  Stationarity away
from a designated boundary region is checked at interior (m-1)-faces only:
flat simplex interiors contribute no first variation and lower-dimensional
faces carry no (m-1)-measure.  At each interior face the weighted outward
conormals of the incident simplices must balance; the same quantity is
recomputed through the boundary of the associated oriented chain and both
routes are compared through the wedge identity, so a sign-convention bug in
either path shows up as a cross-check residual.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import config
from .chains import Chain, boundary
from .complexes import (
    BoundaryRegion,
    EmbeddedComplex,
    SubdivisionMap,
    build_complex,
    interior_faces,
    json_floats,
    json_integer,
    json_list,
    json_list_template,
    json_rows,
    longest_edge,
    pushforward_complex,
    real_floats,
    subdivide,
    vertex_rows,
)
from .exterior_algebra import wedge_rows
from .groups import MultivectorGroup


class PolyhedralVarifold:
    """Dimension-m varifold ``(ids, weights)``; treat instances as immutable values.

    ``ids`` are the strictly increasing ids of the weighted m-simplices and
    ``weights`` their finite weights, all > 0.
    """

    __slots__ = ("complex", "dimension", "ids", "weights")

    def __init__(self, complex: EmbeddedComplex, dimension: int, ids=(), weights=()):
        if dimension < 1:
            raise ValueError("varifold dimension must be >= 1")
        ids = np.asarray(ids, dtype=np.intp).reshape(-1)
        weights = np.asarray(weights, dtype=float).reshape(-1)
        if weights.shape != ids.shape:
            raise ValueError("varifold needs one weight per simplex id")
        n = complex.n_simplices(dimension)
        if ids.size and (ids[0] < 0 or ids[-1] >= n or (ids[1:] <= ids[:-1]).any()):
            raise ValueError(f"simplex ids must increase strictly within 0..{n - 1}")
        if not ((weights > 0) & (weights < math.inf)).all():
            raise ValueError("stored weights must be finite and strictly positive")
        self.complex = complex
        self.dimension = dimension
        self.ids = ids
        self.weights = weights

    def mass(self) -> float:
        # a Python sum in id order, which keeps the printed mass to the last digit
        return float(sum((self.complex.volumes(self.dimension)[self.ids] * self.weights).tolist()))

    def support_vertices(self) -> frozenset:
        return frozenset(self.complex.simplex_rows[self.dimension][self.ids].ravel().tolist())

    def __repr__(self):
        return f"PolyhedralVarifold(dim={self.dimension}, simplices={self.ids.size})"


def make_varifold(K: EmbeddedComplex, m: int, weighted_simplices) -> PolyhedralVarifold:
    """Canonicalize (simplex, weight) pairs: sum duplicates, drop zeros.

    A simplex is an id or a vertex tuple in any order.
    """
    pairs = list(weighted_simplices)
    return _varifold(K, m, [s for s, _ in pairs], [c for _, c in pairs])


def _varifold(K: EmbeddedComplex, m: int, simplices: list, weights: list) -> PolyhedralVarifold:
    """``make_varifold`` of the pairs ``zip(simplices, weights)``."""
    weights = real_floats(weights, "weight")
    if not ((weights >= 0) & (weights < math.inf)).all():
        raise ValueError("varifold weights must be finite and nonnegative")
    given, sids = np.zeros(len(simplices), dtype=bool), np.zeros(len(simplices), dtype=np.intp)
    tuples = simplices
    # one pass over the types finds whether any simplex is given by its id
    if any(issubclass(t, (int, np.integer)) for t in set(map(type, simplices))):
        given[:] = [isinstance(s, (int, np.integer)) for s in simplices]
        ids = [s for s, g in zip(simplices, given.tolist()) if g]
        out = next((s for s in ids if not 0 <= s < K.n_simplices(m)), None)
        if out is not None:
            raise ValueError(f"simplex id {out} out of range")
        sids[given] = ids
        tuples = [s for s, g in zip(simplices, given.tolist()) if not g]
    sids[~given] = K.simplex_ids(vertex_rows(tuples, m + 1)[1])
    summed = np.bincount(sids, weights, minlength=K.n_simplices(m))
    ids = np.flatnonzero(summed)
    return PolyhedralVarifold(K, m, ids, summed[ids])


def conormal(K: EmbeddedComplex, sigma, tau, tol=None) -> np.ndarray:
    """Outward unit conormal of the face tau within the simplex sigma.

    Both arguments are vertex tuples.  The result lies in sigma's affine
    span, is orthogonal to tau's span, and points out of sigma across tau
    (away from the opposite vertex).
    """
    sigma_t = tuple(sorted(int(v) for v in sigma))
    tau_t = tuple(sorted(int(v) for v in tau))
    if not set(tau_t) < set(sigma_t) or len(tau_t) != len(sigma_t) - 1:
        raise ValueError(f"{tau_t} is not a facet of {sigma_t}")
    slot = next(j for j, v in enumerate(sigma_t) if v not in tau_t)
    sigmas = np.array([sigma_t])
    return _conormals(K.vertices, sigmas, np.array([slot]), longest_edge(K.vertices[sigmas]), tol)[0]


def _conormals(coords, sigmas, slots, edges, tol=None) -> np.ndarray:
    """Outward unit conormals across facet ``slots[i]`` of simplex ``sigmas[i]``.

    ``sigmas`` holds (n, m+1) vertex ids; facet j drops vertex j, which is the
    opposite vertex.  One stacked Gram solve projects the opposite vertex off
    each facet's affine span.  A height at most ``tol`` times the simplex's
    longest edge ``edges[i]`` is degenerate, the scale-relative rule of
    ``degenerate``.
    """
    n, k = sigmas.shape
    facets = sigmas[np.arange(k)[None, :] != slots[:, None]].reshape(n, k - 1)
    base = coords[facets[:, 0]]
    d = coords[sigmas[np.arange(n), slots]] - base
    if k > 2:
        spans = coords[facets[:, 1:]] - base[:, None, :]
        gram, rhs = spans @ spans.transpose(0, 2, 1), spans @ d[:, :, None]
        # a 1 x 1 system's LU solve is this one division, to the bit
        coeff = rhs / gram if k == 3 else np.linalg.solve(gram, rhs)
        d = d - (spans.transpose(0, 2, 1) @ coeff)[:, :, 0]
    scale = np.linalg.norm(d, axis=1)
    # NaN, from a facet whose own vertices coincide, is degenerate too
    if not np.all(scale > config.zero_tol(tol) * edges):
        raise ValueError("degenerate geometry: face and opposite vertex collapse")
    return -d / scale[:, None]


@dataclass
class FaceBalance:
    face_id: int
    face_tuple: tuple
    residual: np.ndarray
    residual_norm: float
    incident: list  # (simplex tuple, weight, conormal vector)
    boundary_coeff_norm: float
    crosscheck_residual: float
    free_edge: bool
    passed: bool


class _Records(Sequence):
    """A sized sequence whose items ``make(i)`` builds on access."""

    def __init__(self, n: int, make):
        self._n, self._make = n, make

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, k):
        picked = range(self._n)[k]
        return [self._make(i) for i in picked] if isinstance(picked, range) else self._make(picked)


@dataclass
class StationarityReport:
    dimension: int
    tol: float
    faces: Sequence = field(repr=False)  # of FaceBalance, built on access
    max_residual: float = 0.0
    is_stationary: bool = True
    max_crosscheck_residual: float = 0.0
    # the largest residual norm over its incident weights (a free edge's is
    # 1), the associated chain and its boundary: reused by the certificate,
    # not part of the JSON report
    max_relative_residual: float = field(default=0.0, repr=False)
    chain: Chain | None = field(default=None, repr=False)
    chain_boundary: Chain | None = field(default=None, repr=False)

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "tol": self.tol,
            "max_residual": self.max_residual,
            "is_stationary": self.is_stationary,
            "max_crosscheck_residual": self.max_crosscheck_residual,
            "faces": [
                {
                    "face": list(f.face_tuple),
                    "residual": [float(x) for x in f.residual],
                    "residual_norm": f.residual_norm,
                    "boundary_coeff_norm": f.boundary_coeff_norm,
                    "crosscheck_residual": f.crosscheck_residual,
                    "free_edge": f.free_edge,
                    "passed": f.passed,
                    "incident": [
                        {
                            "simplex": list(sigma_t),
                            "weight": c,
                            "conormal": [float(x) for x in nu],
                        }
                        for sigma_t, c, nu in f.incident
                    ],
                }
                for f in self.faces
            ],
        }


def stationarity(
    V: PolyhedralVarifold, gamma: BoundaryRegion, tol=None
) -> StationarityReport:
    """Conormal balance at every interior (m-1)-face, in one batch.

    A face fails when the norm of its weighted conormal sum exceeds ``tol``
    times the sum of its incident weights, or when it has a single incident
    weighted simplex (an unbalanced free edge).
    """
    tol = config.zero_tol(tol)
    K, m = V.complex, V.dimension
    interior = interior_faces(K, m, gamma)
    A = chainify(V)
    bchain = boundary(A)
    nf = K.n_simplices(m - 1)
    brows = np.zeros((nf, bchain.group.width))
    brows[bchain.ids] = bchain.coeffs
    # (weighted simplex, slot) pairs on interior faces, in (simplex, slot) order
    face = K.faces[m][V.ids].ravel()
    sid, weight = np.repeat(V.ids, m + 1), np.repeat(V.weights, m + 1)
    slot = np.tile(np.arange(m + 1), V.ids.size)
    keep = np.flatnonzero(interior[face])
    face, sid, slot, weight = face[keep], sid[keep], slot[keep], weight[keep]
    nu = _conormals(K.vertices, K.simplex_rows[m][sid], slot, K.longest_edges(m)[sid], tol)
    # per coordinate, bincount adds each face's terms in pair order, as the records list them
    residual = np.stack([np.bincount(face, w, minlength=nf) for w in (weight[:, None] * nu).T], axis=1)
    residual_norm = np.linalg.norm(residual, axis=1)
    count = np.bincount(face, minlength=nf)
    bnorm = np.linalg.norm(brows, axis=1)
    crosscheck = bnorm.copy()
    hit = np.flatnonzero(count)
    if hit.size:
        predicted = wedge_rows(residual[hit], K.unit_blades(m - 1)[hit], K.ambient_dim, 1, m - 1)
        crosscheck[hit] = np.linalg.norm(brows[hit] - predicted, axis=1)
    free_edge = count == 1
    incident = np.bincount(face, weight, minlength=nf)
    passed = (residual_norm <= tol * incident) & ~free_edge
    relative = np.divide(residual_norm, incident, out=np.zeros(nf), where=incident > 0)
    fids = np.flatnonzero(interior)

    @functools.cache
    def pairs_by_face():
        # each interior face's pairs in pair order: a stable sort, cut at every face
        order = np.argsort(face, kind="stable")
        return np.split(order, np.searchsorted(face[order], fids[1:]))

    def record(k):
        fid, picked = int(fids[k]), pairs_by_face()[k]
        incident = zip(sid[picked].tolist(), weight[picked].tolist(), nu[picked])
        incident = [(K.simplex_tuple(m, i), c, n) for i, c, n in incident]
        return FaceBalance(fid, K.simplex_tuple(m - 1, fid), residual[fid], float(residual_norm[fid]),
                           incident, float(bnorm[fid]), float(crosscheck[fid]),
                           bool(free_edge[fid]), bool(passed[fid]))

    return StationarityReport(
        dimension=m,
        tol=tol,
        faces=_Records(len(fids), record),
        max_residual=float(residual_norm[fids].max(initial=0.0)),
        is_stationary=bool(passed[fids].all()),
        max_crosscheck_residual=float(crosscheck[fids].max(initial=0.0)),
        max_relative_residual=float(relative[fids].max(initial=0.0)),
        chain=A,
        chain_boundary=bchain,
    )


def chainify(V: PolyhedralVarifold) -> Chain:
    """The associated chain over Lambda_m R^N: coefficient c * eta(sigma).

    Well defined on unoriented simplices because reversing an orientation
    negates both the simplex and its unit m-vector.
    """
    K, m = V.complex, V.dimension
    coeffs = K.unit_blades(m)[V.ids] * V.weights[:, None]
    return Chain(K, m, MultivectorGroup(K.ambient_dim, m), V.ids, coeffs)


def frontier_faces(V: PolyhedralVarifold) -> frozenset:
    """(m-1)-faces incident to exactly one weighted simplex."""
    faces = V.complex.faces[V.dimension][V.ids]
    return frozenset(np.flatnonzero(np.bincount(faces.ravel()) == 1).tolist())


def boundary_region_for(V: PolyhedralVarifold) -> BoundaryRegion:
    return BoundaryRegion(V.complex, V.dimension - 1, frontier_faces(V))


def transport_varifold(V: PolyhedralVarifold, corr: SubdivisionMap) -> PolyhedralVarifold:
    if corr.src is not V.complex:
        raise ValueError("subdivision map was built for a different complex")
    kids, parents, _ = corr.children[V.dimension]
    weights = np.zeros(V.complex.n_simplices(V.dimension))
    weights[V.ids] = V.weights
    children = np.bincount(kids, weights[parents], minlength=corr.dst.n_simplices(V.dimension))
    ids = np.flatnonzero(children)
    return PolyhedralVarifold(corr.dst, V.dimension, ids, children[ids])


@dataclass
class VarifoldPushforward:
    varifold: PolyhedralVarifold
    new_ids: list
    dropped: np.ndarray
    gamma: BoundaryRegion | None = None


def pushforward_varifold(
    V: PolyhedralVarifold, images, frozen=(), gamma: BoundaryRegion | None = None, tol=None
) -> VarifoldPushforward:
    """Relocate vertices; weights ride along, collapsed simplices are dropped.

    The result holds the dropped ids and the ``new_ids`` of ``pushforward_complex``.
    """
    image, new_ids, new_gamma = pushforward_complex(
        V.complex, images, frozen=frozen, gamma=gamma, tol=tol
    )
    moved = new_ids[V.dimension][V.ids] if V.ids.size else V.ids  # the complex may lack the dimension
    kept = moved >= 0
    return VarifoldPushforward(
        varifold=PolyhedralVarifold(image, V.dimension, moved[kept], V.weights[kept]),
        new_ids=new_ids,
        dropped=V.ids[~kept],
        gamma=new_gamma,
    )


def varifold_to_json(V: PolyhedralVarifold) -> dict:
    simplices = V.complex.simplex_rows[V.dimension][V.ids].tolist()
    return {
        "dimension": V.dimension,
        "weights": [{"simplex": t, "c": c} for t, c in zip(simplices, V.weights.tolist())],
    }


def varifold_text(V: PolyhedralVarifold) -> str:
    """``json.dumps(varifold_to_json(V), sort_keys=True)``, written from the arrays."""
    rows = V.complex.simplex_rows[V.dimension][V.ids]
    template = '{"c": %s, "simplex": ' + json_list_template("%d", rows.shape[1]) + "}"
    entries = json_rows(template, np.column_stack([json_floats(V.weights), rows.astype(object)]))
    return f'{{"dimension": {V.dimension}, "weights": [{entries}]}}'


def varifold_from_json(K: EmbeddedComplex, doc: dict) -> PolyhedralVarifold:
    m = json_integer(doc, "dimension")
    entries = json_list(doc, "weights", dict)
    simplices = [entry["simplex"] for entry in entries]
    # one pass over the types: a simplex is a list or an id, and not a bool
    if not set(map(type, simplices)) <= {list, int}:
        bad = next(entry for entry, s in zip(entries, simplices) if type(s) not in (list, int))
        raise ValueError(f"malformed weight entry {bad!r}")
    return _varifold(K, m, simplices, [entry["c"] for entry in entries])


# ---------------------------------------------------------------------------
# random deformation experiment

@dataclass
class DeformReport:
    trials: int
    accepted: int
    rejected: int
    min_ratio: float
    max_ratio: float
    mean_ratio: float
    mass_original: float
    magnitude: float
    seed: int
    passed: bool

    def to_json(self):
        return {
            "trials": self.trials,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "min_ratio": self.min_ratio,
            "max_ratio": self.max_ratio,
            "mean_ratio": self.mean_ratio,
            "mass_original": self.mass_original,
            "magnitude": self.magnitude,
            "seed": self.seed,
            "pass": self.passed,
        }


def deform_experiment(V, gamma, trials: int, magnitude: float, seed: int = 0, tol=None) -> DeformReport:
    """Random PL vertex perturbations must not decrease mass.

    The varifold must be stationary off gamma (checked first).  Each trial
    moves the non-frozen support vertices by offsets drawn uniformly from a
    ball of the given radius; maps that collapse any simplex or collide
    vertices are rejected.  Passes when the minimum accepted mass ratio stays
    above 1 - 1e-9.
    """
    report = stationarity(V, gamma, tol=tol)
    if not report.is_stationary:
        raise ValueError(
            f"varifold is not stationary off gamma (max residual {report.max_residual:.3e})"
        )
    K = V.complex
    frozen = gamma.vertex_ids()
    movable = sorted(V.support_vertices() - frozen)
    rng = np.random.default_rng(seed)
    base_mass = V.mass()
    n = K.ambient_dim
    ratios = []
    for _ in range(int(trials)):
        offsets = rng.standard_normal((len(movable), n))
        norms = np.linalg.norm(offsets, axis=1, keepdims=True)
        radii = magnitude * rng.uniform(size=(len(movable), 1)) ** (1.0 / n)
        offsets = np.where(norms > 0, offsets / np.maximum(norms, 1e-300) * radii, 0.0)
        images = K.vertices.copy()
        images[movable] += offsets
        try:
            res = pushforward_varifold(V, images, gamma=gamma)
        except ValueError:  # a vertex collision
            continue
        if all((ids >= 0).all() for ids in res.new_ids):
            ratios.append(res.varifold.mass() / base_mass)
    if not ratios:
        raise ValueError("all deformation trials were rejected; geometry too tight")
    ratios = np.asarray(ratios)
    return DeformReport(
        trials=int(trials),
        accepted=len(ratios),
        rejected=int(trials) - len(ratios),
        min_ratio=float(ratios.min()),
        max_ratio=float(ratios.max()),
        mean_ratio=float(ratios.mean()),
        mass_original=base_mass,
        magnitude=float(magnitude),
        seed=int(seed),
        passed=bool(ratios.min() >= 1.0 - 1e-9),
    )


# ---------------------------------------------------------------------------
# catalog of classical stationary cones

SQRT3 = math.sqrt(3.0)
Y_DIRECTIONS = np.array([[0.0, 1.0], [-SQRT3 / 2, -0.5], [SQRT3 / 2, -0.5]])
TETRA_VERTICES = np.array(
    [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
) / SQRT3

CATALOG = ("plane_disk", "y_line", "y_times_r", "tetrahedral_cone", "custom_net_cone")


def _refine(K, V, levels):
    for _ in range(int(levels)):
        K, corr = subdivide(K, "barycentric")
        V = transport_varifold(V, corr)
    return K, V


def generate_example(name: str, radius: float = 1.0, refinement: int = 0, **params):
    """Build a catalog truncation: (complex, varifold, boundary region).

    Catalog entries are stationary by construction; ``custom_net_cone`` takes
    ``directions`` and optional ``weights`` and is stationary only when the
    supplied weighted directions balance.
    """
    radius = float(radius)
    if radius <= 0:
        raise ValueError("truncation radius must be positive")
    if refinement < 0:
        raise ValueError("refinement level must be nonnegative")

    weights = None
    if name == "y_line":
        verts = np.vstack([np.zeros(2), radius * Y_DIRECTIONS])
        tops = [(0, i) for i in range(1, 4)]
    elif name == "plane_disk":
        sectors = int(params.pop("sectors", 6))
        if sectors < 3:
            raise ValueError("plane_disk needs at least 3 sectors")
        angles = 2 * np.pi * np.arange(sectors) / sectors
        rim = radius * np.column_stack(
            [np.cos(angles), np.sin(angles), np.zeros(sectors)]
        )
        verts = np.vstack([np.zeros(3), rim])
        tops = [(0, 1 + k, 1 + (k + 1) % sectors) for k in range(sectors)]
    elif name == "y_times_r":
        height = float(params.pop("height", radius))
        if height <= 0:
            raise ValueError("y_times_r needs positive height")
        base = np.hstack([radius * Y_DIRECTIONS, np.zeros((3, 1))])
        top = base + np.array([0.0, 0.0, height])
        verts = np.vstack([np.zeros(3), [[0.0, 0.0, height]], base, top])
        tops = []
        for i in range(3):
            b, t = 2 + i, 5 + i
            tops += [(0, b, t), (0, t, 1)]
    elif name == "tetrahedral_cone":
        verts = np.vstack([np.zeros(3), radius * TETRA_VERTICES])
        tops = [(0, a, b) for a in range(1, 5) for b in range(a + 1, 5)]
    elif name == "custom_net_cone":
        directions = params.pop("directions", None)
        if directions is None:
            raise ValueError("custom_net_cone needs a list of directions")
        directions = np.array(directions, dtype=float)
        if directions.ndim != 2 or directions.shape[0] < 2:
            raise ValueError("need at least two direction vectors")
        lengths = np.linalg.norm(directions, axis=1)
        if np.any(lengths <= config.ZERO_TOL):
            raise ValueError("directions must be nonzero")
        directions = directions / lengths[:, None]
        weights = params.pop("weights", None)
        weights = [1.0] * len(directions) if weights is None else [float(w) for w in weights]
        if len(weights) != len(directions):
            raise ValueError("weights must match directions")
        verts = np.vstack([np.zeros(directions.shape[1]), radius * directions])
        tops = [(0, i) for i in range(1, len(directions) + 1)]
    else:
        raise ValueError(f"unknown example {name!r}; catalog: {', '.join(CATALOG)}")
    K = build_complex(verts, tops)
    V = make_varifold(K, len(tops[0]) - 1, zip(tops, weights or [1.0] * len(tops)))
    if params:
        raise ValueError(f"unexpected parameters for {name}: {sorted(params)}")

    K, V = _refine(K, V, refinement)
    return K, V, boundary_region_for(V)
