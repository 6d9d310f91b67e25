"""Normed abelian coefficient groups.

Concrete groups: reals and integers with absolute value, Lambda_m R^N with
the Euclidean norm, and a finitely generated subgroup H of any of these with
the minimization norm

    |g|_H = min { sum |n_i| |g_i|  :  g = sum n_i g_i,  n_i integers }.

Every element is a 1-D numpy row: one entry for R and Z, the C(N, m)
lexicographic coefficients for Lambda_m R^N, and the integer coordinates over
the generators for a subgroup.  The subgroup norm searches the integer
coordinate vectors that cost no more than the given ones, whose cost is the
answer when nothing cheaper turns up.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import config


def _int_row(raw, width: int) -> np.ndarray:
    """Validated int64 row of ``width`` integers below 2**31 in size.

    The bound keeps every sum over a desk-scale complex inside int64.
    """
    items = np.ravel(np.asarray(raw, dtype=object)).tolist()
    if len(items) != width:
        raise ValueError(f"expected {width} integer entries, got {len(items)}")
    for x in items:
        if not (isinstance(x, numbers.Real) and float(x).is_integer()):
            raise ValueError(f"{x!r} is not an integer coefficient")
        if abs(x) >= 2**31:
            raise ValueError(f"integer coefficient {x} is not below 2**31 in size")
    return np.array(items, dtype=np.int64)


class CoefficientGroup:
    """Normed abelian group whose elements are 1-D numpy rows of ``width``.

    Subclasses supply ``width``, ``dtype``, the norm of each row of an
    (n, width) stack (``norms``), ``coerce`` and the JSON form; the group
    operations are row arithmetic.
    """

    width = 1
    dtype = float

    def norms(self, rows) -> np.ndarray:
        raise NotImplementedError

    def coerce(self, raw) -> np.ndarray:
        """Validate/convert a user-supplied coefficient into a row."""
        raise NotImplementedError

    def zero(self) -> np.ndarray:
        return np.zeros(self.width, dtype=self.dtype)

    def add(self, g, h):
        return g + h

    def neg(self, g):
        return -g

    def scale(self, g, k: int):
        """Integer multiple k*g."""
        return g * k

    def norm(self, g) -> float:
        return float(self.norms(np.reshape(g, (1, self.width)))[0])

    def zero_rows(self, rows, tol=None) -> np.ndarray:
        """Which rows of an (n, width) stack are zero within the tolerance."""
        return self.norms(rows) <= config.zero_tol(tol)

    def is_zero(self, g, tol=None) -> bool:
        return bool(self.zero_rows(np.reshape(g, (1, self.width)), tol)[0])

    def equal(self, g, h, tol=None) -> bool:
        return self.is_zero(self.add(g, self.neg(h)), tol)

    def coeff_to_json(self, g):
        return g.tolist()

    def descriptor(self) -> dict:
        raise NotImplementedError

    def __eq__(self, other):
        return type(other) is type(self) and other.descriptor() == self.descriptor()

    def __hash__(self):
        return hash(repr(self.descriptor()))


class RealGroup(CoefficientGroup):
    """(R, +) with absolute value."""

    def norms(self, rows):
        return np.abs(rows[:, 0])

    def coerce(self, raw):
        return np.array([float(np.squeeze(raw))])

    def coeff_to_json(self, g):
        return float(g[0])

    def descriptor(self):
        return {"kind": "real"}


class IntegerGroup(CoefficientGroup):
    """(Z, +) with absolute value; arithmetic stays exact in int64."""

    dtype = np.int64

    def norms(self, rows):
        return np.abs(rows[:, 0]).astype(float)

    def coerce(self, raw):
        return _int_row(raw, 1)

    def coeff_to_json(self, g):
        return int(g[0])

    def descriptor(self):
        return {"kind": "integer"}


class MultivectorGroup(CoefficientGroup):
    """Lambda_m R^N with the Euclidean norm."""

    def __init__(self, ambient_dim: int, grade: int):
        self.ambient_dim, self.grade = int(ambient_dim), int(grade)
        if not 1 <= self.ambient_dim <= config.MAX_AMBIENT_DIM:
            raise ValueError(
                f"ambient dimension {self.ambient_dim} outside supported range "
                f"1..{config.MAX_AMBIENT_DIM}"
            )
        if not 0 <= self.grade <= self.ambient_dim:
            raise ValueError(f"grade {self.grade} outside 0..{self.ambient_dim}")
        self.width = math.comb(self.ambient_dim, self.grade)

    def norms(self, rows):
        return np.linalg.norm(rows, axis=1)

    def coerce(self, raw):
        row = np.array(raw, dtype=float).reshape(-1)
        if row.size != self.width:
            raise ValueError(
                f"coefficient vector has length {row.size}, expected "
                f"C({self.ambient_dim},{self.grade}) = {self.width}"
            )
        return row

    def descriptor(self):
        return {
            "kind": "multivector",
            "ambient_dim": self.ambient_dim,
            "grade": self.grade,
        }


class SubgroupWithNorm(CoefficientGroup):
    """Subgroup H generated by S, normed by cheapest integer representation.

    An element is its integer coordinate row over the generators; its
    ambient value is ``value(row)``.
    """

    dtype = np.int64

    def __init__(self, ambient: CoefficientGroup, generators, generator_norms=None):
        if isinstance(ambient, SubgroupWithNorm):
            raise ValueError("nesting subgroups is not supported")
        self.ambient = ambient
        if len(generators) == 0:
            raise ValueError("need at least one generator")
        self.generators = np.array([ambient.coerce(g) for g in generators])
        self.generators.setflags(write=False)
        self.width = len(self.generators)
        if generator_norms is None:
            generator_norms = ambient.norms(self.generators)
        self.generator_norms = [float(x) for x in generator_norms]
        if len(self.generator_norms) != self.width:
            raise ValueError("generator_norms length must match generators")
        if all(x <= config.ZERO_TOL for x in self.generator_norms):
            raise ValueError("all generator norms vanish; subgroup norm is ill-posed")
        # search order: descending norm prunes earliest
        self._order = sorted(range(self.width), key=lambda i: -self.generator_norms[i])
        self._norm_cache = {}

    def value(self, rows) -> np.ndarray:
        """Ambient value(s) of coordinate row(s)."""
        if self.ambient.dtype is np.int64:
            # in Python integers: coordinates times generators can pass int64
            return np.asarray(rows, dtype=object) @ self.generators.astype(object)
        return np.asarray(rows) @ self.generators

    def coerce(self, raw):
        return _int_row(raw, self.width)

    def zero_rows(self, rows, tol=None):
        # zero means zero in the ambient group, whatever the coordinates
        return self.ambient.zero_rows(self.value(rows), tol)

    def representation_cost(self, coords) -> float:
        return sum(abs(int(n)) * w for n, w in zip(coords, self.generator_norms))

    def _enumerate(self, radius: float, tol: float) -> list:
        """Every integer coordinate vector with cost <= radius + tol.

        Depth first over the generators in search order; entries are (coords
        in search order, cost, ambient value).  A zero-norm generator stays
        at 0: a true norm forces it to be the zero element, so its
        coordinate is irrelevant.
        """
        norms = [self.generator_norms[i] for i in self._order]
        gens = [self.generators[i] for i in self._order]
        found = []

        def descend(level, cost, acc, coords):
            if level == self.width:
                found.append((tuple(coords), cost, acc))
                return
            w = norms[level]
            max_n = 0 if w <= tol else int(math.floor((radius + tol - cost) / w))
            for n in _signed_range(max_n):
                c = cost + abs(n) * w
                if c > radius + tol:
                    continue
                nxt = acc if n == 0 else self.ambient.add(acc, self.ambient.scale(gens[level], n))
                descend(level + 1, c, nxt, coords + [n])

        descend(0, 0.0, self.ambient.zero(), [])
        return found

    def _from_search_order(self, search_coords) -> tuple:
        coords = [0] * self.width
        for pos, i in enumerate(self._order):
            coords[i] = search_coords[pos]
        return tuple(coords)

    def represent(self, value, budget: float, tol=None):
        """Cheapest integer representation of an ambient value.

        Searches coordinate vectors with cost <= budget; returns (coords,
        cost) or None when nothing in the budget reproduces the value.  Ties
        go to the first vector in search order.
        """
        tol = config.zero_tol(tol)
        best = None
        for coords, cost, acc in self._enumerate(budget, tol):
            if (best is None or cost < best[1]) and self.ambient.equal(value, acc, tol):
                best = (coords, cost)
        if best is None:
            return None
        return self._from_search_order(best[0]), best[1]

    def norms(self, rows):
        return np.array([self._norm(tuple(r)) for r in np.asarray(rows).tolist()], dtype=float)

    def _norm(self, coords) -> float:
        out = self._norm_cache.get(coords)
        if out is None:
            stored = self.representation_cost(coords)
            found = self.represent(self.value(coords), budget=stored)
            # The stored coordinates represent the element by definition, but
            # the search re-sums values in its own order and may miss them by
            # rounding.
            out = stored if found is None else found[1]
            self._norm_cache[coords] = out
        return out

    def descriptor(self):
        desc = {
            "kind": "subgroup",
            "generators": [self.ambient.coeff_to_json(g) for g in self.generators],
            "generator_norms": list(self.generator_norms),
        }
        amb = self.ambient.descriptor()
        if amb["kind"] == "multivector":
            desc["ambient_dim"] = amb["ambient_dim"]
            desc["grade"] = amb["grade"]
        desc["ambient_kind"] = amb["kind"]
        return desc

    def __eq__(self, other):
        if type(other) is not SubgroupWithNorm or other.ambient != self.ambient:
            return False
        if other.width != self.width or other.generator_norms != self.generator_norms:
            return False
        return bool(np.all(self.ambient.norms(self.generators - other.generators) <= 1e-12))

    def __hash__(self):
        return hash(("subgroup", self.ambient, self.width))


def _signed_range(max_abs: int):
    yield 0
    for n in range(1, max_abs + 1):
        yield n
        yield -n


def subgroup_norm(H: SubgroupWithNorm, coords) -> float:
    """|g|_H for the element with the given integer coordinates."""
    return H.norm(H.coerce(coords))


@dataclass(frozen=True)
class BallMember:
    coords: tuple
    norm: float
    value: object


def norm_ball(H: SubgroupWithNorm, lam: float):
    """All distinct elements of H with |g|_H <= lam; always finite.

    Enumerates integer vectors of representation cost <= lam, then merges
    coordinate vectors that resolve to the same ambient element (keeping the
    cheapest cost, which is that element's norm).
    """
    lam = float(lam)
    if lam < 0:
        raise ValueError("norm ball radius must be nonnegative")
    if any(w <= config.ZERO_TOL for w in H.generator_norms):
        raise ValueError("norm_ball needs strictly positive generator norms")
    found = H._enumerate(lam, config.ZERO_TOL)  # coords in search order
    # merge coincidences: distinct coordinates, same ambient element
    members = []
    for oc, cost, value in sorted(found, key=lambda item: (item[1], item[0])):
        for m in members:
            if H.ambient.equal(m.value, value):
                break
        else:
            members.append(BallMember(coords=H._from_search_order(oc), norm=cost, value=value))
    members.sort(key=lambda m: (m.norm, m.coords))
    return members


def integrality_check(H: SubgroupWithNorm) -> bool:
    """True iff every generator norm is a positive integer.

    Then every |g|_H, being a finite sum of integer multiples of generator
    norms, is an integer as well.
    """
    for w in H.generator_norms:
        if w < 1 - 1e-9 or abs(w - round(w)) > 1e-9:
            return False
    return True


@dataclass
class AxiomReport:
    passed: bool
    violations: list

    def to_json(self):
        return {"passed": self.passed, "violations": self.violations}


def verify_group_axioms(G: CoefficientGroup, samples, tol=1e-9) -> AxiomReport:
    """Spot-check the norm axioms on the given sample elements."""
    samples = [G.coerce(s) for s in samples]
    violations = []
    zero = G.zero()
    if G.norm(zero) > tol:
        violations.append({"axiom": "zero-norm", "detail": f"|0| = {G.norm(zero)}"})
    for i, g in enumerate(samples):
        ng = G.norm(g)
        if ng < -tol:
            violations.append({"axiom": "nonnegativity", "sample": i, "norm": ng})
        if ng <= tol and not G.is_zero(g, tol):
            violations.append({"axiom": "definiteness", "sample": i, "norm": ng})
        if abs(G.norm(G.neg(g)) - ng) > tol:
            violations.append({"axiom": "symmetry", "sample": i})
        for j, h in enumerate(samples):
            if G.norm(G.add(g, h)) > ng + G.norm(h) + tol:
                violations.append({"axiom": "triangle", "samples": [i, j]})
    return AxiomReport(passed=not violations, violations=violations)


def group_from_json(desc: dict) -> CoefficientGroup:
    kind = desc.get("kind")
    if kind == "real":
        return RealGroup()
    if kind == "integer":
        return IntegerGroup()
    if kind == "multivector":
        return MultivectorGroup(desc["ambient_dim"], desc["grade"])
    if kind == "subgroup":
        gens = desc["generators"]
        ambient_kind = desc.get("ambient_kind")
        if ambient_kind is None:
            # infer: vector-valued generators live in a multivector group
            ambient_kind = "multivector" if gens and isinstance(gens[0], (list, tuple)) else "real"
        if ambient_kind == "multivector":
            ambient = MultivectorGroup(desc["ambient_dim"], desc["grade"])
        elif ambient_kind == "integer":
            ambient = IntegerGroup()
        else:
            ambient = RealGroup()
        return SubgroupWithNorm(
            ambient,
            gens,
            desc.get("generator_norms"),
        )
    raise ValueError(f"unknown group kind {kind!r}")


def group_to_json(G: CoefficientGroup) -> dict:
    return G.descriptor()
