"""Polyhedral m-chains on a complex with coefficients in a normed group.

A chain is two arrays: the increasing canonical m-simplex ids that carry a
nonzero group element, and the stack of those elements' rows.  User-facing
orientations (arbitrary vertex orderings) are folded into coefficient signs at
construction, which realizes the equivalence of formal sums modulo orientation
reversal; subdivision equivalence is realized by :func:`transport_chain`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .complexes import (
    BoundaryRegion,
    EmbeddedComplex,
    SubdivisionMap,
    json_list,
    pushforward_complex,
    vertex_pairs,
    vertex_rows,
)
from .groups import CoefficientGroup, SubgroupWithNorm, group_from_json, group_to_json


def permutation_signs(rows) -> np.ndarray:
    """Parity (+1 or -1) of the permutation sorting each row of distinct entries."""
    rows = np.asarray(rows)
    i, j = vertex_pairs(rows.shape[1])
    return 1 - 2 * (np.count_nonzero(rows[:, i] > rows[:, j], axis=1) % 2)


class Chain:
    """Dimension-m chain ``(ids, coeffs)``; treat instances as immutable values.

    ``ids`` are the strictly increasing ids of the m-simplices with a nonzero
    coefficient and ``coeffs`` the (len(ids), width) stack of their group
    rows.  ``Chain(K, m, G)`` is the zero chain.
    """

    __slots__ = ("complex", "dimension", "group", "ids", "coeffs")

    def __init__(self, complex: EmbeddedComplex, dimension: int, group: CoefficientGroup,
                 ids=(), coeffs=None):
        if dimension < 0:
            raise ValueError("chain dimension must be nonnegative")
        ids = np.asarray(ids, dtype=np.intp).reshape(-1)
        if coeffs is None:
            coeffs = np.zeros((0, group.width), dtype=group.dtype)
        if coeffs.shape != (ids.size, group.width):
            raise ValueError("chain needs one coefficient row per simplex id")
        n = complex.n_simplices(dimension)
        if ids.size and (ids[0] < 0 or ids[-1] >= n or np.any(np.diff(ids) <= 0)):
            raise ValueError(f"simplex ids must increase strictly within 0..{n - 1}")
        self.complex = complex
        self.dimension = dimension
        self.group = group
        self.ids = ids
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return self.ids.size == 0

    def allclose(self, other: "Chain", tol=None) -> bool:
        if (
            self.complex is not other.complex
            or self.dimension != other.dimension
            or self.group != other.group
        ):
            return False
        _, diff = _summed(
            np.concatenate([self.ids, other.ids]),
            np.concatenate([self.coeffs, -other.coeffs]),
            self.group,
        )
        return bool(np.all(self.group.zero_rows(diff, tol)))

    def __repr__(self):
        return (
            f"Chain(dim={self.dimension}, terms={self.ids.size}, "
            f"group={self.group.descriptor()['kind']})"
        )


def _summed(ids, rows, G):
    """Distinct sorted ids and the summed rows of each."""
    ids, inverse = np.unique(ids, return_inverse=True)
    out = np.zeros((ids.size, G.width), dtype=G.dtype)
    np.add.at(out, inverse, rows)
    return ids, out


def _canonical(K, m, G, ids, rows) -> Chain:
    """The chain of terms (ids[i], rows[i]): repeats summed, zeros dropped."""
    ids, rows = _summed(ids, rows, G)
    keep = ~G.zero_rows(rows)
    return Chain(K, m, G, ids[keep], rows[keep])


def make_chain(K: EmbeddedComplex, m: int, G: CoefficientGroup, terms) -> Chain:
    """Assemble a chain from (oriented vertex tuple, coefficient) terms.

    Tuples may come in any vertex order; odd permutations negate the
    coefficient.  Repeated simplices are summed in G and zeros dropped.
    """
    terms = list(terms)
    oriented, simplices = vertex_rows([t for t, _ in terms], m + 1)
    ids = K.simplex_ids(simplices)
    rows = np.array([G.coerce(c) for _, c in terms], dtype=G.dtype).reshape(-1, G.width)
    if not np.all(np.isfinite(rows)):
        raise ValueError("chain coefficients must be finite")
    rows *= permutation_signs(oriented).astype(G.dtype)[:, None]
    return _canonical(K, m, G, ids, rows)


def combine(a: Chain, b: Chain, sign: int = 1) -> Chain:
    """Coefficientwise a + sign*b."""
    if a.complex is not b.complex:
        raise ValueError("chains live on different complexes; transport first")
    if a.dimension != b.dimension:
        raise ValueError("chain dimension mismatch")
    if a.group != b.group:
        raise ValueError("coefficient group mismatch")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return _canonical(
        a.complex,
        a.dimension,
        a.group,
        np.concatenate([a.ids, b.ids]),
        np.concatenate([a.coeffs, b.coeffs if sign == 1 else -b.coeffs]),
    )


def boundary(A: Chain) -> Chain:
    """Simplicial boundary: faces weighted by (-1)^j, canonicalized."""
    if A.dimension < 1:
        raise ValueError("boundary needs chain dimension >= 1")
    K, G, m = A.complex, A.group, A.dimension
    signs = np.where(np.arange(m + 1) % 2, -1, 1)
    rows = A.coeffs[:, None, :] * signs[None, :, None]
    return _canonical(K, m - 1, G, K.faces[m][A.ids].reshape(-1), rows.reshape(-1, G.width))


def mass(A: Chain) -> float:
    """Weighted area: sum of |g_sigma| * H^m(sigma)."""
    if A.is_zero():
        return 0.0
    return float(A.complex.volumes(A.dimension)[A.ids] @ A.group.norms(A.coeffs))


def is_supported_in(A: Chain, gamma: BoundaryRegion, tol=None) -> bool:
    """True iff every coefficient of A above the tolerance sits inside gamma."""
    if gamma.face_dim != A.dimension:
        raise ValueError(
            f"chain has dimension {A.dimension} but region holds "
            f"{gamma.face_dim}-faces"
        )
    outside = ~np.isin(A.ids, list(gamma.face_ids))
    return not np.any(A.group.norms(A.coeffs[outside]) > config.zero_tol(tol))


def transport_chain(A: Chain, corr: SubdivisionMap) -> Chain:
    """Re-express a chain on the refinement; mass and orientation preserved."""
    if corr.src is not A.complex:
        raise ValueError("subdivision map was built for a different complex")
    children = corr.matrices[A.dimension][:, A.ids].tocoo()
    rows = A.coeffs[children.col] * children.data[:, None]
    return _canonical(corr.dst, A.dimension, A.group, children.row, rows)


@dataclass
class PushforwardResult:
    chain: "Chain"
    complex: EmbeddedComplex
    simplex_map: dict
    dropped: list
    gamma: BoundaryRegion | None = None


def pushforward_chain(
    A: Chain, images, frozen=(), gamma: BoundaryRegion | None = None, tol=None
) -> PushforwardResult:
    """Transport A under the simplexwise-affine map given by vertex images.

    The map must fix every vertex of ``gamma`` and of ``frozen`` and stay
    injective on vertices.  Simplices whose image collapses carry zero mass
    and are dropped; the result records them.
    """
    image, smap, _, new_gamma = pushforward_complex(
        A.complex, images, frozen=frozen, gamma=gamma, tol=tol
    )
    d = A.dimension
    new_ids = [smap[(d, i)] for i in A.ids.tolist()]
    kept = np.array([j is not None for j in new_ids], dtype=bool)
    chain = Chain(image, d, A.group, [j for j in new_ids if j is not None], A.coeffs[kept])
    dropped = [(d, int(i)) for i in A.ids[~kept]]
    return PushforwardResult(
        chain=chain,
        complex=image,
        simplex_map=smap,
        dropped=dropped,
        gamma=new_gamma,
    )


def retag_chain(A: Chain, H: SubgroupWithNorm, budget: float = None) -> Chain:
    """Regard a chain over G as a chain over the subgroup H.

    Every coefficient must be reachable as an integer combination of the
    generators within the search budget (default: four times the largest
    generator norm); in the intended use the coefficients are literally
    members of the generating set.
    """
    if A.group != H.ambient:
        raise ValueError("chain group does not match the subgroup's ambient group")
    if budget is None:
        budget = 4.0 * max(H.generator_norms)
    rows = []
    for sid, g in zip(A.ids, A.coeffs):
        found = H.represent(g, budget=budget)
        if found is None:
            raise ValueError(
                f"coefficient on simplex {sid} is not representable over the "
                f"generators within budget {budget}"
            )
        rows.append(found[0])
    rows = np.array(rows, dtype=H.dtype).reshape(-1, H.width)
    return Chain(A.complex, A.dimension, H, A.ids, rows)


def chain_to_json(A: Chain) -> dict:
    simplices = A.complex.simplex_rows[A.dimension][A.ids].tolist()
    return {
        "dimension": A.dimension,
        "group": group_to_json(A.group),
        "terms": [
            {"simplex": t, "coeff": A.group.coeff_to_json(g)}
            for t, g in zip(simplices, A.coeffs)
        ],
    }


def chain_from_json(K: EmbeddedComplex, doc: dict) -> Chain:
    G = group_from_json(doc["group"])
    terms = [(term["simplex"], term["coeff"]) for term in json_list(doc, "terms", dict)]
    return make_chain(K, int(doc["dimension"]), G, terms)
