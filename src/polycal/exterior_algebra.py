"""Exterior algebra over R^N with dense coefficients.

Grade-m multivectors are stored as dense vectors over the lexicographically
ordered basis ``e_{i1} ^ ... ^ e_{im}`` with ``i1 < ... < im``, which is
orthonormal for the Euclidean inner product used throughout.  The module also
provides the batched point kernels behind simplex geometry: the (unnormalized)
blade spanned by a simplex's edge vectors and its m-dimensional Hausdorff
measure; ``EmbeddedComplex.unit_blades`` and ``volumes`` build on them.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from . import config


class DegenerateSimplexError(ValueError):
    """Raised when an operation requires affinely independent vertices."""


@lru_cache(maxsize=None)
def basis_index_sets(ambient_dim: int, grade: int) -> tuple:
    """Lexicographically ordered index sets for the grade-m basis of Lambda_m R^N."""
    return tuple(itertools.combinations(range(ambient_dim), grade))


@lru_cache(maxsize=None)
def _basis_positions(ambient_dim: int, grade: int) -> dict:
    return {s: i for i, s in enumerate(basis_index_sets(ambient_dim, grade))}


@lru_cache(maxsize=None)
def _wedge_table(ambient_dim: int, p: int, q: int):
    """Index/sign table so that wedge reduces to one scatter-add.

    Entry k says: coefficient ``a[ia[k]] * b[ib[k]] * sign[k]`` accumulates
    into output slot ``iout[k]``.  Signs count the inversions needed to merge
    the two sorted index sets.
    """
    basis_p = basis_index_sets(ambient_dim, p)
    basis_q = basis_index_sets(ambient_dim, q)
    out_pos = _basis_positions(ambient_dim, p + q)
    ia, ib, iout, signs = [], [], [], []
    for i, left in enumerate(basis_p):
        left_set = set(left)
        for j, right in enumerate(basis_q):
            if left_set & set(right):
                continue
            inversions = sum(1 for a in left for b in right if a > b)
            ia.append(i)
            ib.append(j)
            iout.append(out_pos[tuple(sorted(left + right))])
            signs.append(-1.0 if inversions % 2 else 1.0)
    return (
        np.asarray(ia, dtype=np.intp),
        np.asarray(ib, dtype=np.intp),
        np.asarray(iout, dtype=np.intp),
        np.asarray(signs, dtype=float),
    )


class Multivector:
    """Element of Lambda_m R^N with dense lexicographic coefficients."""

    __slots__ = ("ambient_dim", "grade", "coeffs")

    def __init__(self, ambient_dim: int, grade: int, coeffs):
        if not 1 <= ambient_dim <= config.MAX_AMBIENT_DIM:
            raise ValueError(
                f"ambient dimension {ambient_dim} outside supported range "
                f"1..{config.MAX_AMBIENT_DIM}"
            )
        if not 0 <= grade <= ambient_dim:
            raise ValueError(f"grade {grade} outside 0..{ambient_dim}")
        arr = np.array(coeffs, dtype=float).reshape(-1)
        expected = math.comb(ambient_dim, grade)
        if arr.size != expected:
            raise ValueError(
                f"coefficient vector has length {arr.size}, expected "
                f"C({ambient_dim},{grade}) = {expected}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "grade", grade)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    @classmethod
    def zero(cls, ambient_dim: int, grade: int) -> "Multivector":
        return cls(ambient_dim, grade, np.zeros(math.comb(ambient_dim, grade)))

    @classmethod
    def basis_blade(cls, ambient_dim: int, indices, coefficient: float = 1.0) -> "Multivector":
        indices = tuple(indices)
        grade = len(indices)
        pos = _basis_positions(ambient_dim, grade).get(indices)
        if pos is None:
            raise ValueError(f"{indices} is not a strictly increasing index set in R^{ambient_dim}")
        coeffs = np.zeros(math.comb(ambient_dim, grade))
        coeffs[pos] = coefficient
        return cls(ambient_dim, grade, coeffs)

    @classmethod
    def from_vector(cls, vector) -> "Multivector":
        vector = np.asarray(vector, dtype=float).reshape(-1)
        return cls(vector.size, 1, vector)

    def _check_compatible(self, other: "Multivector", same_grade: bool):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient dimension mismatch: {self.ambient_dim} vs {other.ambient_dim}"
            )
        if same_grade and self.grade != other.grade:
            raise ValueError(f"grade mismatch: {self.grade} vs {other.grade}")

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check_compatible(other, same_grade=True)
        return Multivector(self.ambient_dim, self.grade, self.coeffs + other.coeffs)

    def __sub__(self, other: "Multivector") -> "Multivector":
        self._check_compatible(other, same_grade=True)
        return Multivector(self.ambient_dim, self.grade, self.coeffs - other.coeffs)

    def __neg__(self) -> "Multivector":
        return Multivector(self.ambient_dim, self.grade, -self.coeffs)

    def __mul__(self, scalar) -> "Multivector":
        return Multivector(self.ambient_dim, self.grade, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def is_zero(self, tol=None) -> bool:
        return self.norm() <= config.zero_tol(tol)

    def allclose(self, other: "Multivector", tol: float = 1e-12) -> bool:
        if self.ambient_dim != other.ambient_dim or self.grade != other.grade:
            return False
        return bool(np.allclose(self.coeffs, other.coeffs, rtol=0.0, atol=tol))

    def __repr__(self):
        basis = basis_index_sets(self.ambient_dim, self.grade)
        terms = [
            f"{c:+g}*e{''.join(str(i) for i in s)}" if s else f"{c:+g}"
            for s, c in zip(basis, self.coeffs)
            if c != 0.0
        ]
        body = " ".join(terms) if terms else "0"
        return f"Multivector(N={self.ambient_dim}, grade={self.grade}, {body})"


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product; bilinear, associative, graded-anticommutative."""
    a._check_compatible(b, same_grade=False)
    out_grade = a.grade + b.grade
    if out_grade > a.ambient_dim:
        raise ValueError(
            f"grade overflow: {a.grade} + {b.grade} > ambient dimension {a.ambient_dim}"
        )
    out = wedge_rows(a.coeffs[None], b.coeffs[None], a.ambient_dim, a.grade, b.grade)
    return Multivector(a.ambient_dim, out_grade, out[0])


def wedge_rows(a, b, ambient_dim: int, p: int, q: int) -> np.ndarray:
    """Row-wise wedge of stacked grade-p and grade-q coefficient rows."""
    ia, ib, iout, signs = _wedge_table(ambient_dim, p, q)
    out = np.zeros((len(a), math.comb(ambient_dim, p + q)))
    np.add.at(out.T, iout, (signs * a[:, ia] * b[:, ib]).T)
    return out


def inner(a: Multivector, b: Multivector) -> float:
    """Euclidean inner product for which the lexicographic basis is orthonormal."""
    a._check_compatible(b, same_grade=True)
    return float(np.dot(a.coeffs, b.coeffs))


def rowdot(a, b) -> np.ndarray:
    """Inner product of matching rows of two (n, width) stacks."""
    return np.einsum("ij,ij->i", a, b)


def blade_of_points(points) -> np.ndarray:
    """Coefficients of (v1-v0) ^ ... ^ (vm-v0) for stacked (..., m+1, N) points.

    The coefficient on e_I is the m x m minor of the edge matrix on the
    columns I; not normalized.  Grade 0 gives the scalar 1.
    """
    points = np.asarray(points, dtype=float)
    m, n = points.shape[-2] - 1, points.shape[-1]
    if m == 0:
        return np.ones(points.shape[:-2] + (1,))
    edges = points[..., 1:, :] - points[..., :1, :]
    columns = np.array(basis_index_sets(n, m))
    minors = np.moveaxis(edges[..., columns], -2, -3)  # (..., C(N,m), m, m)
    return np.linalg.det(minors)


def volume_of_points(points):
    """H^m measure sqrt(det(E E^T)) / m! of stacked (..., m+1, N) simplices."""
    points = np.asarray(points, dtype=float)
    edges = points[..., 1:, :] - points[..., :1, :]
    det = np.linalg.det(edges @ np.swapaxes(edges, -1, -2))  # 1 for a vertex
    return np.sqrt(np.maximum(det, 0.0)) / math.factorial(points.shape[-2] - 1)
