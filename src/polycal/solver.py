"""Convex oracle: minimum mass under a boundary constraint, and flat norms.

Both problems are sums of weighted Euclidean block norms under linear
equality constraints,

    min  sum_j  w_j ||x_j||_2     subject to   M x = c,

solved by a relaxed primal-dual splitting: the proximal map of the objective
is closed-form block shrinkage, the dual update for the equality constraint
is a translation, and the steps are diagonal (Pock & Chambolle, ICCV 2011):
1 / sum_i |M_ij| for column j and 1 / sum_j |M_ij| for row i.

There is one stopping rule.  At every check the dual iterate Y is rescaled
so that max_j ||(M^T Y)_j|| / w_j = 1, which makes -<Y, c> a weak-duality
lower bound; a solve is converged only when M x = c holds within
``primal_tol`` and the objective is within ``obj_tol`` (relative) of the best
bound so far.  The flat norm is the case M = [I, -B], where M^T Y covers the
dual constraints on both blocks.  Scalar coefficient groups reuse the same
loop with 1-dimensional blocks, where shrinkage degenerates to
soft-thresholding.  Discrete groups are out of scope here; minimality over a
subgroup is inferred by retagging, never solved directly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import lsmr

from .chains import Chain, _canonical, boundary, chain_to_json, combine, mass
from .complexes import EmbeddedComplex
from .groups import CoefficientGroup, MultivectorGroup, RealGroup


@dataclass
class SolverConfig:
    max_iter: int = 200_000
    primal_tol: float = 1e-8
    obj_tol: float = 1e-6
    relax: float = 1.8
    check_every: int = 100

    def __post_init__(self):
        for name in ("max_iter", "check_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"solver config {name} must be an integer")
            if value < 1:
                raise ValueError(f"solver config {name} must be at least 1")
        for name in ("primal_tol", "obj_tol", "relax"):
            value = getattr(self, name)
            number = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (number and 0 < value < math.inf):
                raise ValueError(f"solver config {name} must be a finite number > 0")
        if self.relax >= 2:
            raise ValueError("solver config relax must lie in (0, 2)")

    @classmethod
    def from_json(cls, doc):
        """Config from a JSON object; unknown keys are ignored."""
        if not isinstance(doc, dict):
            raise ValueError("solver config must be a JSON object")
        return cls(**{f: doc[f] for f in cls.__dataclass_fields__ if f in doc})

    def to_json(self):
        return asdict(self)


@dataclass
class MinMassProblem:
    complex: EmbeddedComplex
    dimension: int
    boundary: Chain
    group: CoefficientGroup
    config: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.boundary.complex is not self.complex:
            raise ValueError("target boundary lives on a different complex")
        if self.boundary.dimension != self.dimension - 1:
            raise ValueError(
                f"target boundary must have dimension {self.dimension - 1}"
            )
        if self.boundary.group != self.group:
            raise ValueError("group mismatch between problem and target boundary")
        _block_size(self.group)  # validates the group kind


@dataclass
class SolveResult:
    chain: Chain
    objective: float
    primal_residual: float
    iterations: int
    status: str  # converged | iteration-cap | infeasible
    lower_bound: float | None = None
    gap: float | None = None
    config: SolverConfig = field(default_factory=SolverConfig)

    def to_json(self):
        return {
            "objective": self.objective,
            "primal_residual": self.primal_residual,
            "iterations": self.iterations,
            "status": self.status,
            "lower_bound": self.lower_bound,
            "gap": self.gap,
            "chain": chain_to_json(self.chain),
            "config": self.config.to_json(),
        }


def _block_size(group) -> int:
    if not isinstance(group, (RealGroup, MultivectorGroup)):
        raise ValueError(
            "solver supports coefficient groups R and Lambda_m R^N only; "
            "use retagging for discrete groups"
        )
    return group.width


def _inverse_abs_sums(M, axis):
    """Pock-Chambolle diagonal steps: 1 / sum |M| along an axis (0 when empty)."""
    sums = np.asarray(abs(M).sum(axis=axis)).ravel()
    return np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)


def _shrink_rows(V, thresholds):
    norms = np.linalg.norm(V, axis=1)
    factor = np.maximum(0.0, 1.0 - thresholds / np.maximum(norms, 1e-300))
    return V * factor[:, None]


def _dual_bound(MT, weights, target, Y) -> float:
    """Weak-duality bound of Y rescaled onto max_j ||(M^T Y)_j|| / w_j = 1."""
    scale = float((np.linalg.norm(MT @ Y, axis=1) / weights).max(initial=0.0))
    value = -float(np.vdot(Y, target))
    return max(0.0, value) / scale if scale > 0 else 0.0


def _least_squares(M, rhs):
    """Least-squares solution X of M X = rhs, one lsmr solve per column."""
    cap = 8 * sum(M.shape)
    return np.column_stack([lsmr(M, col, atol=1e-13, btol=1e-13, maxiter=cap)[0] for col in rhs.T])


def _solve_blockwise(M, weights, target, cfg: SolverConfig, warm=None):
    """Relaxed primal-dual iteration for min sum w_j ||x_j|| s.t. M x = c.

    Converged means primal feasible within ``primal_tol`` and within
    ``obj_tol`` (relative) of the best weak-duality bound seen so far.
    """
    M = sparse.csr_matrix(M)
    MT = sparse.csr_matrix(M.T)
    weights = np.asarray(weights, dtype=float)
    X = np.zeros((M.shape[1], target.shape[1])) if warm is None else warm.copy()
    Y = np.zeros_like(target)
    tau = _inverse_abs_sums(M, 0)[:, None]
    sigma = _inverse_abs_sums(M, 1)[:, None]
    thresholds = tau[:, 0] * weights
    status, iterations, bound = "iteration-cap", cfg.max_iter, 0.0
    for k in range(1, cfg.max_iter + 1):
        Xt = _shrink_rows(X - tau * (MT @ Y), thresholds)
        Yt = Y + sigma * (M @ (2.0 * Xt - X) - target)
        X += cfg.relax * (Xt - X)
        Y += cfg.relax * (Yt - Y)
        if k % cfg.check_every == 0 or k == cfg.max_iter:
            bound = max(bound, _dual_bound(MT, weights, target, Y))
            residual = float(np.linalg.norm(M @ X - target))
            obj = float(weights @ np.linalg.norm(X, axis=1))
            if residual <= cfg.primal_tol and obj - bound <= cfg.obj_tol * max(1.0, bound):
                status, iterations = "converged", k
                break
    return X, {"status": status, "iterations": iterations, "lower_bound": bound}


def min_mass_fixed_boundary(problem: MinMassProblem) -> SolveResult:
    """Minimize mass over chains with the prescribed boundary.

    Infeasible targets (boundaries outside the image of the boundary
    operator) are detected through the least-squares residual, which cannot
    reach zero for them.
    """
    K, m, cfg = problem.complex, problem.dimension, problem.config
    group = problem.group
    size = _block_size(group)
    if not 1 <= m <= K.dim:
        raise ValueError(f"complex has no simplices of dimension {m}")
    M = K.boundary_matrix(m)
    target = np.zeros((M.shape[0], size))
    target[problem.boundary.ids] = problem.boundary.coeffs
    weights = K.volumes(m)
    # least-squares feasibility probe doubles as the warm start
    warm = _least_squares(M, target)
    lsq_residual = float(np.linalg.norm(M @ warm - target))
    if lsq_residual > max(100 * cfg.primal_tol, 1e-6) * max(1.0, float(np.linalg.norm(target))):
        zero = Chain(K, m, group)
        return SolveResult(
            chain=zero,
            objective=0.0,
            primal_residual=lsq_residual,
            iterations=0,
            status="infeasible",
            config=cfg,
        )
    X, info = _solve_blockwise(M, weights, target, cfg, warm=warm)
    # the iterate is feasible only within primal_tol: report its projection onto M X = c
    X += _least_squares(M, target - M @ X)
    chain = _canonical(K, m, group, np.arange(X.shape[0]), X)
    objective = mass(chain)
    dC = boundary(chain)
    off_target = target.copy()
    off_target[dC.ids] -= dC.coeffs
    primal_residual = float(np.linalg.norm(off_target))
    return SolveResult(
        chain=chain,
        objective=objective,
        primal_residual=primal_residual,
        iterations=info["iterations"],
        status=info["status"],
        lower_bound=info["lower_bound"],
        gap=objective - info["lower_bound"],
        config=cfg,
    )


@dataclass
class FlatNormResult:
    value: float
    filling: Chain       # optimal (m+1)-chain Q*
    remainder: Chain     # R* = A + boundary(Q*)
    iterations: int
    status: str
    lower_bound: float
    used_zero_filling: bool = False

    def to_json(self):
        return {
            "value": self.value,
            "lower_bound": self.lower_bound,
            "iterations": self.iterations,
            "status": self.status,
            "used_zero_filling": self.used_zero_filling,
            "filling": chain_to_json(self.filling),
            "remainder": chain_to_json(self.remainder),
        }


def flat_norm_solve(A: Chain, config: SolverConfig | None = None) -> FlatNormResult:
    """Complex-restricted flat norm: min over fillings Q of M(A+dQ) + M(Q).

    The reported value is the recomputed objective of the returned feasible
    pair, so it always upper-bounds the true flat norm and never exceeds
    M(A): when the iterate beats no filling at all, Q = 0 is returned.
    """
    cfg = config or SolverConfig()
    K, m = A.complex, A.dimension
    group = A.group
    size = _block_size(group)
    base_mass = mass(A)
    q_dim = m + 1
    if q_dim > K.dim or K.n_simplices(q_dim) == 0:
        return FlatNormResult(
            value=base_mass,
            filling=Chain(K, q_dim, group),
            remainder=A,
            iterations=0,
            status="converged",
            lower_bound=base_mass,  # A is the only feasible point
            used_zero_filling=True,
        )
    n_m, n_q = K.n_simplices(m), K.n_simplices(q_dim)
    B = K.boundary_matrix(q_dim)
    M = sparse.hstack([sparse.identity(n_m, format="csr"), -B], format="csr")
    weights = np.concatenate([K.volumes(m), K.volumes(q_dim)])
    target = np.zeros((n_m, size))
    target[A.ids] = A.coeffs
    warm = np.vstack([target, np.zeros((n_q, size))])  # exactly feasible: R=A, Q=0
    X, info = _solve_blockwise(M, weights, target, cfg, warm=warm)
    q_chain = _canonical(K, q_dim, group, np.arange(n_q), X[n_m:])
    remainder = combine(A, boundary(q_chain), 1)
    value = mass(remainder) + mass(q_chain)
    used_zero = False
    if value > base_mass:
        q_chain = Chain(K, q_dim, group)
        remainder = A
        value = base_mass
        used_zero = True
    return FlatNormResult(
        value=value,
        filling=q_chain,
        remainder=remainder,
        iterations=info["iterations"],
        status=info["status"],
        lower_bound=info["lower_bound"],
        used_zero_filling=used_zero,
    )
