"""Polyhedral m-chains on a complex with coefficients in a normed group.

A chain is a sparse map from canonical m-simplex ids to nonzero group
elements.  User-facing orientations (arbitrary vertex orderings) are folded
into coefficient signs at construction, which realizes the equivalence of
formal sums modulo orientation reversal; subdivision equivalence is realized
by :func:`transport_chain`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import config
from .complexes import (
    BoundaryRegion,
    EmbeddedComplex,
    SubdivisionMap,
    json_list,
    pushforward_complex,
)
from .groups import CoefficientGroup, SubgroupWithNorm, group_from_json, group_to_json


def permutation_sign(seq) -> int:
    """Parity of the permutation sorting ``seq``; seq entries must be distinct."""
    seq = list(seq)
    inversions = sum(
        1
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
        if seq[i] > seq[j]
    )
    return -1 if inversions % 2 else 1


class Chain:
    """Dimension-m chain; treat instances as immutable values."""

    __slots__ = ("complex", "dimension", "group", "coeffs")

    def __init__(self, complex: EmbeddedComplex, dimension: int, group: CoefficientGroup, coeffs=None):
        if dimension < 0:
            raise ValueError("chain dimension must be nonnegative")
        coeffs = dict(coeffs or {})
        n = complex.n_simplices(dimension)
        if coeffs and any(not 0 <= i < n for i in coeffs):
            raise ValueError(f"coefficient on a non-simplex of dimension {dimension}")
        self.complex = complex
        self.dimension = dimension
        self.group = group
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    def allclose(self, other: "Chain", tol=None) -> bool:
        if (
            self.complex is not other.complex
            or self.dimension != other.dimension
            or self.group != other.group
        ):
            return False
        ids = set(self.coeffs) | set(other.coeffs)
        g = self.group
        for i in ids:
            a = self.coeffs.get(i, g.zero())
            b = other.coeffs.get(i, g.zero())
            if not g.equal(a, b, tol):
                return False
        return True

    def __repr__(self):
        return (
            f"Chain(dim={self.dimension}, terms={len(self.coeffs)}, "
            f"group={self.group.descriptor()['kind']})"
        )


def _canonical(complex, dimension, group, accumulator) -> Chain:
    coeffs = {i: g for i, g in accumulator.items() if not group.is_zero(g)}
    return Chain(complex, dimension, group, coeffs)


def make_chain(K: EmbeddedComplex, m: int, G: CoefficientGroup, terms) -> Chain:
    """Assemble a chain from (oriented vertex tuple, coefficient) terms.

    Tuples may come in any vertex order; odd permutations negate the
    coefficient.  Repeated simplices are summed in G and zeros dropped.
    """
    acc = {}
    for raw_tuple, raw_coeff in terms:
        t = tuple(int(v) for v in raw_tuple)
        if len(set(t)) != len(t):
            raise ValueError(f"{t} repeats a vertex")
        if len(t) != m + 1:
            raise ValueError(f"{t} is not an {m}-simplex")
        d, sid = K.simplex_id(tuple(sorted(t)))
        g = G.coerce(raw_coeff)
        if permutation_sign(t) < 0:
            g = G.neg(g)
        acc[sid] = G.add(acc[sid], g) if sid in acc else g
    return _canonical(K, m, G, acc)


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
    G = a.group
    acc = dict(a.coeffs)
    for i, g in b.coeffs.items():
        h = g if sign == 1 else G.neg(g)
        acc[i] = G.add(acc[i], h) if i in acc else h
    return _canonical(a.complex, a.dimension, G, acc)


def boundary(A: Chain) -> Chain:
    """Simplicial boundary: faces weighted by (-1)^j, canonicalized."""
    if A.dimension < 1:
        raise ValueError("boundary needs chain dimension >= 1")
    K, G, m = A.complex, A.group, A.dimension
    acc = {}
    face_table = K.faces[m]
    for sid, g in A.coeffs.items():
        neg = G.neg(g)
        for j in range(m + 1):
            fid = int(face_table[sid, j])
            h = g if j % 2 == 0 else neg
            acc[fid] = G.add(acc[fid], h) if fid in acc else h
    return _canonical(K, m - 1, G, acc)


def mass(A: Chain) -> float:
    """Weighted area: sum of |g_sigma| * H^m(sigma)."""
    if A.is_zero():
        return 0.0
    vols = A.complex.volumes(A.dimension)
    return float(sum(A.group.norm(g) * vols[i] for i, g in A.coeffs.items()))


def is_supported_in(A: Chain, gamma: BoundaryRegion, tol=None) -> bool:
    """True iff every coefficient of A above the tolerance sits inside gamma."""
    if gamma.face_dim != A.dimension:
        raise ValueError(
            f"chain has dimension {A.dimension} but region holds "
            f"{gamma.face_dim}-faces"
        )
    for i, g in A.coeffs.items():
        if A.group.norm(g) > config.zero_tol(tol) and i not in gamma.face_ids:
            return False
    return True


def transport_chain(A: Chain, corr: SubdivisionMap) -> Chain:
    """Re-express a chain on the refinement; mass and orientation preserved."""
    if corr.src is not A.complex:
        raise ValueError("subdivision map was built for a different complex")
    G = A.group
    acc = {}
    for sid, g in A.coeffs.items():
        for cid, sign in corr.children[(A.dimension, sid)]:
            h = g if sign > 0 else G.neg(g)
            acc[cid] = G.add(acc[cid], h) if cid in acc else h
    return _canonical(corr.dst, A.dimension, G, acc)


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
    coeffs = {smap[(d, i)]: g for i, g in A.coeffs.items() if smap[(d, i)] is not None}
    dropped = [(d, i) for i in A.coeffs if smap[(d, i)] is None]
    return PushforwardResult(
        chain=Chain(image, A.dimension, A.group, coeffs),
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
    coeffs = {}
    for sid, g in A.coeffs.items():
        found = H.represent(g, budget=budget)
        if found is None:
            raise ValueError(
                f"coefficient on simplex {sid} is not representable over the "
                f"generators within budget {budget}"
            )
        coords, _ = found
        coeffs[sid] = H.element(coords)
    return Chain(A.complex, A.dimension, H, coeffs)


def chain_to_json(A: Chain) -> dict:
    K = A.complex
    return {
        "dimension": A.dimension,
        "group": group_to_json(A.group),
        "terms": [
            {
                "simplex": list(K.simplex_tuple(A.dimension, sid)),
                "coeff": A.group.coeff_to_json(g),
            }
            for sid, g in sorted(A.coeffs.items())
        ],
    }


def chain_from_json(K: EmbeddedComplex, doc: dict) -> Chain:
    G = group_from_json(doc["group"])
    terms = [
        (term["simplex"], G.coeff_from_json(term["coeff"]))
        for term in json_list(doc, "terms", dict)
    ]
    return make_chain(K, int(doc["dimension"]), G, terms)
