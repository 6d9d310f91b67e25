"""Normed abelian coefficient groups.

Concrete groups: reals and integers with absolute value, Lambda_m R^N with
the Euclidean norm, and a finitely generated subgroup H of any of these with
the minimization norm

    |g|_H = min { sum |n_i| |g_i|  :  g = sum n_i g_i,  n_i integers }.

Subgroup elements carry an integer coordinate vector plus the resolved
ambient value; the norm searches the integer coordinate vectors that cost no
more than the stored representation, whose cost is the answer when nothing
cheaper turns up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import config
from .exterior_algebra import Multivector


class CoefficientGroup:
    """Abstract normed abelian group interface."""

    def zero(self):
        raise NotImplementedError

    def add(self, g, h):
        raise NotImplementedError

    def neg(self, g):
        raise NotImplementedError

    def norm(self, g) -> float:
        raise NotImplementedError

    def scale(self, g, k: int):
        """Integer multiple k*g."""
        raise NotImplementedError

    def coerce(self, raw):
        """Validate/convert a user-supplied coefficient."""
        raise NotImplementedError

    def equal(self, g, h, tol=None) -> bool:
        return self.norm(self.add(g, self.neg(h))) <= config.zero_tol(tol)

    def is_zero(self, g, tol=None) -> bool:
        return self.norm(g) <= config.zero_tol(tol)

    def coeff_to_json(self, g):
        raise NotImplementedError

    def coeff_from_json(self, raw):
        return self.coerce(raw)

    def descriptor(self) -> dict:
        raise NotImplementedError


class RealGroup(CoefficientGroup):
    """(R, +) with absolute value."""

    def zero(self):
        return 0.0

    def add(self, g, h):
        return g + h

    def neg(self, g):
        return -g

    def norm(self, g):
        return abs(g)

    def scale(self, g, k):
        return k * g

    def coerce(self, raw):
        return float(raw)

    def coeff_to_json(self, g):
        return float(g)

    def descriptor(self):
        return {"kind": "real"}

    def __eq__(self, other):
        return type(other) is RealGroup

    def __hash__(self):
        return hash("real")


class IntegerGroup(CoefficientGroup):
    """(Z, +) with absolute value; arithmetic stays exact."""

    def zero(self):
        return 0

    def add(self, g, h):
        return g + h

    def neg(self, g):
        return -g

    def norm(self, g):
        return float(abs(g))

    def scale(self, g, k):
        return k * g

    def coerce(self, raw):
        val = int(raw)
        if val != raw:
            raise ValueError(f"{raw!r} is not an integer coefficient")
        return val

    def is_zero(self, g, tol=None):
        return g == 0

    def coeff_to_json(self, g):
        return int(g)

    def descriptor(self):
        return {"kind": "integer"}

    def __eq__(self, other):
        return type(other) is IntegerGroup

    def __hash__(self):
        return hash("integer")


class MultivectorGroup(CoefficientGroup):
    """Lambda_m R^N with the Euclidean norm."""

    def __init__(self, ambient_dim: int, grade: int):
        self.ambient_dim = int(ambient_dim)
        self.grade = int(grade)
        # constructing a zero validates the (N, m) range
        self._zero = Multivector.zero(self.ambient_dim, self.grade)

    def zero(self):
        return self._zero

    def add(self, g, h):
        return g + h

    def neg(self, g):
        return -g

    def norm(self, g):
        return g.norm()

    def scale(self, g, k):
        return g * float(k)

    def coerce(self, raw):
        if isinstance(raw, Multivector):
            if raw.ambient_dim != self.ambient_dim or raw.grade != self.grade:
                raise ValueError(
                    f"multivector (N={raw.ambient_dim}, grade={raw.grade}) does not "
                    f"belong to Lambda_{self.grade} R^{self.ambient_dim}"
                )
            return raw
        return Multivector(self.ambient_dim, self.grade, raw)

    def coeff_to_json(self, g):
        return [float(x) for x in g.coeffs]

    def descriptor(self):
        return {
            "kind": "multivector",
            "ambient_dim": self.ambient_dim,
            "grade": self.grade,
        }

    def __eq__(self, other):
        return (
            type(other) is MultivectorGroup
            and other.ambient_dim == self.ambient_dim
            and other.grade == self.grade
        )

    def __hash__(self):
        return hash(("multivector", self.ambient_dim, self.grade))


@dataclass(frozen=True)
class SubgroupElement:
    """Integer coordinates over the generators plus the resolved ambient value."""

    coords: tuple
    value: object

    def __repr__(self):
        return f"SubgroupElement(coords={self.coords})"


class SubgroupWithNorm(CoefficientGroup):
    """Subgroup H generated by S, normed by cheapest integer representation."""

    def __init__(self, ambient: CoefficientGroup, generators, generator_norms=None):
        if isinstance(ambient, SubgroupWithNorm):
            raise ValueError("nesting subgroups is not supported")
        self.ambient = ambient
        self.generators = [ambient.coerce(g) for g in generators]
        if not self.generators:
            raise ValueError("need at least one generator")
        if generator_norms is None:
            generator_norms = [ambient.norm(g) for g in self.generators]
        self.generator_norms = [float(x) for x in generator_norms]
        if len(self.generator_norms) != len(self.generators):
            raise ValueError("generator_norms length must match generators")
        if all(x <= config.ZERO_TOL for x in self.generator_norms):
            raise ValueError("all generator norms vanish; subgroup norm is ill-posed")
        # search order: descending norm prunes earliest
        self._order = sorted(
            range(len(self.generators)), key=lambda i: -self.generator_norms[i]
        )
        self._norm_cache = {}

    @property
    def k(self) -> int:
        return len(self.generators)

    def element(self, coords) -> SubgroupElement:
        coords = tuple(int(n) for n in coords)
        if len(coords) != self.k:
            raise ValueError(f"coordinate vector must have length {self.k}")
        value = self.ambient.zero()
        for n, g in zip(coords, self.generators):
            if n:
                value = self.ambient.add(value, self.ambient.scale(g, n))
        return SubgroupElement(coords, value)

    def zero(self):
        return self.element((0,) * self.k)

    def add(self, g, h):
        coords = tuple(a + b for a, b in zip(g.coords, h.coords))
        return SubgroupElement(coords, self.ambient.add(g.value, h.value))

    def neg(self, g):
        return SubgroupElement(tuple(-a for a in g.coords), self.ambient.neg(g.value))

    def scale(self, g, k):
        return SubgroupElement(
            tuple(k * a for a in g.coords), self.ambient.scale(g.value, k)
        )

    def coerce(self, raw):
        if isinstance(raw, SubgroupElement):
            if len(raw.coords) != self.k:
                raise ValueError("coordinate length mismatch")
            return raw
        return self.element(raw)

    def representation_cost(self, coords) -> float:
        return sum(abs(n) * w for n, w in zip(coords, self.generator_norms))

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
            if level == self.k:
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
        coords = [0] * self.k
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

    def norm(self, g) -> float:
        g = self.coerce(g)
        cached = self._norm_cache.get(g.coords)
        if cached is not None:
            return cached
        stored = self.representation_cost(g.coords)
        found = self.represent(g.value, budget=stored)
        # The stored coordinates represent g by definition, but the search
        # re-sums values in its own order and may miss them by rounding.
        out = stored if found is None else found[1]
        self._norm_cache[g.coords] = out
        return out

    def equal(self, g, h, tol=None):
        return self.ambient.equal(g.value, h.value, tol)

    def is_zero(self, g, tol=None):
        return self.ambient.is_zero(g.value, tol)

    def coeff_to_json(self, g):
        return [int(n) for n in g.coords]

    def coeff_from_json(self, raw):
        return self.element(raw)

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
        if other.k != self.k or other.generator_norms != self.generator_norms:
            return False
        return all(
            self.ambient.equal(a, b, tol=0.0) if isinstance(self.ambient, IntegerGroup)
            else self.ambient.norm(self.ambient.add(a, self.ambient.neg(b))) <= 1e-12
            for a, b in zip(self.generators, other.generators)
        )

    def __hash__(self):
        return hash(("subgroup", self.ambient, self.k))


def _signed_range(max_abs: int):
    yield 0
    for n in range(1, max_abs + 1):
        yield n
        yield -n


def subgroup_norm(H: SubgroupWithNorm, coords) -> float:
    """|g|_H for the element with the given integer coordinates."""
    return H.norm(H.element(coords))


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
            [ambient.coeff_from_json(g) for g in gens],
            desc.get("generator_norms"),
        )
    raise ValueError(f"unknown group kind {kind!r}")


def group_to_json(G: CoefficientGroup) -> dict:
    return G.descriptor()
