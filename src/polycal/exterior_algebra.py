"""Exterior algebra over R^N as numpy rows.

A grade-m multivector is a row of C(N, m) coefficients over the
lexicographically ordered basis ``e_{i1} ^ ... ^ e_{im}`` with
``i1 < ... < im``, which is orthonormal for the Euclidean inner product, so
the inner product of rows is ``rowdot``.  The kernels act on stacks of rows:
the row-wise wedge, the (unnormalized) blade spanned by a simplex's edge
vectors and its m-dimensional Hausdorff measure; ``EmbeddedComplex.unit_blades``
and ``volumes`` build on them.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np


class DegenerateSimplexError(ValueError):
    """Raised when an operation requires affinely independent vertices."""


@lru_cache(maxsize=None)
def basis_index_sets(ambient_dim: int, grade: int) -> tuple:
    """Lexicographically ordered index sets for the grade-m basis of Lambda_m R^N."""
    return tuple(itertools.combinations(range(ambient_dim), grade))


@lru_cache(maxsize=None)
def _wedge_table(ambient_dim: int, p: int, q: int):
    """Index/sign table so that wedge reduces to one scatter-add.

    Entry k says: coefficient ``a[ia[k]] * b[ib[k]] * sign[k]`` accumulates
    into output slot ``iout[k]``.  Signs count the inversions needed to merge
    the two sorted index sets.
    """
    basis_p = basis_index_sets(ambient_dim, p)
    basis_q = basis_index_sets(ambient_dim, q)
    out_pos = {s: i for i, s in enumerate(basis_index_sets(ambient_dim, p + q))}
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


def wedge_rows(a, b, ambient_dim: int, p: int, q: int) -> np.ndarray:
    """Row-wise wedge of stacked grade-p and grade-q coefficient rows."""
    if a.shape[1] != math.comb(ambient_dim, p) or b.shape[1] != math.comb(ambient_dim, q):
        raise ValueError(f"coefficient width mismatch for grades {p}, {q} in R^{ambient_dim}")
    if p + q > ambient_dim:
        raise ValueError(f"grade overflow: {p} + {q} > ambient dimension {ambient_dim}")
    ia, ib, iout, signs = _wedge_table(ambient_dim, p, q)
    out = np.zeros((len(a), math.comb(ambient_dim, p + q)))
    np.add.at(out.T, iout, (signs * a[:, ia] * b[:, ib]).T)
    return out


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
