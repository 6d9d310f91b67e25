"""The canonical calibration and mass-minimality certificates.

For chains over Lambda_m R^N the functional

    Phi(A) = sum_sigma  <g_sigma, eta(sigma)>  H^m(sigma)

is an additive homomorphism dominated by mass (Cauchy-Schwarz per simplex)
and vanishing on boundaries (constant-form Stokes).  Equality Phi(A) = M(A)
therefore certifies that A minimizes mass among all chains over the same
group with the same boundary; the ambient space is homologically trivial, so
the boundary class is the full competitor class.  Certificates record each
numeric check with its residual and tolerance, plus enough provenance to
replay them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .chains import (
    Chain,
    boundary,
    chain_to_json,
    is_supported_in,
    make_chain,
    mass,
    transport_chain,
)
from .complexes import BoundaryRegion, EmbeddedComplex, subdivide
from .exterior_algebra import rowdot
from .groups import MultivectorGroup, group_to_json
from .solver import MinMassProblem, SolverConfig, min_mass_fixed_boundary, flat_norm_solve
from .varifolds import PolyhedralVarifold, stationarity, varifold_to_json

COMPETITOR_CLASS = (
    "all chains over Lambda_m R^N on the ambient space with equal boundary"
)


def _require_matching_group(A: Chain):
    if not isinstance(A.group, MultivectorGroup) or A.group.grade != A.dimension:
        raise ValueError(
            "calibration needs coefficients in Lambda_m R^N with m equal to "
            "the chain dimension"
        )


def phi(A: Chain) -> float:
    """The calibration functional; additive in the chain."""
    _require_matching_group(A)
    if A.is_zero():
        return 0.0
    K, m = A.complex, A.dimension
    return float(K.volumes(m)[A.ids] @ rowdot(A.coeffs, K.unit_blades(m)[A.ids]))


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float
    tol: float

    def to_json(self):
        return {
            "name": self.name,
            "pass": self.passed,
            "residual": self.residual,
            "tol": self.tol,
        }


@dataclass
class Certificate:
    subject: str
    checks: list
    conclusion: str
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.conclusion == "calibrated-minimizer" and not all(
            c.passed for c in self.checks
        ):
            raise ValueError("calibrated-minimizer requires every check to pass")

    @property
    def passed(self) -> bool:
        return self.conclusion == "calibrated-minimizer"

    def check(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self):
        return {
            "subject": self.subject,
            "checks": [c.to_json() for c in self.checks],
            "conclusion": self.conclusion,
            "provenance": self.provenance,
        }


def _provenance(K: EmbeddedComplex, group, tols: dict, extra=None) -> dict:
    out = {
        "complex_hash": K.content_hash(),
        "group": group_to_json(group),
        "tolerances": tols,
        "version": __version__,
        "competitor_class": COMPETITOR_CLASS,
    }
    if extra:
        out.update(extra)
    return out


def _calibration_checks(A: Chain, tol: float):
    """The calibration checks on A, with Phi(A) and M(A)."""
    K, m = A.complex, A.dimension
    value = phi(A)  # validates the coefficient group
    total_mass = mass(A)
    scale = max(1.0, total_mass)
    checks = [
        CheckResult(
            name="phi-mass-inequality",
            passed=value <= total_mass + tol * scale,
            residual=max(0.0, value - total_mass),
            tol=tol * scale,
        ),
        CheckResult(
            name="calibration-equality",
            passed=abs(value - total_mass) <= tol * scale,
            residual=abs(value - total_mass),
            tol=tol * scale,
        ),
    ]
    norms = A.group.norms(A.coeffs)
    aligned = K.unit_blades(m)[A.ids] * norms[:, None]
    misalignment = np.linalg.norm(A.coeffs - aligned, axis=1) / np.maximum(1.0, norms)
    worst = float(misalignment.max(initial=0.0))
    checks.append(
        CheckResult(
            name="per-simplex-alignment",
            passed=worst <= tol,
            residual=worst,
            tol=tol,
        )
    )
    return checks, value, total_mass


def certify_calibrated(A: Chain, tol: float = 1e-9) -> Certificate:
    """Check the calibration equality Phi(A) = M(A) and its per-simplex form.

    Equality holds exactly when every coefficient is a nonnegative scalar
    multiple of the unit m-vector of its simplex (the Cauchy-Schwarz equality
    case), and it implies mass minimality in the boundary class.
    """
    checks, value, total_mass = _calibration_checks(A, tol)
    ok = all(c.passed for c in checks)
    subject = "chain:" + _digest(chain_to_json(A))
    return Certificate(
        subject=subject,
        checks=checks,
        conclusion="calibrated-minimizer" if ok else "not-calibrated",
        provenance=_provenance(
            A.complex, A.group, {"tol": tol}, {"phi": value, "mass": total_mass}
        ),
    )


def _digest(doc) -> str:
    import hashlib

    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class StokesReport:
    trials: int
    max_normalized_residual: float
    passed: bool
    tol: float

    def to_json(self):
        return {
            "trials": self.trials,
            "max_normalized_residual": self.max_normalized_residual,
            "passed": self.passed,
            "tol": self.tol,
        }


def check_stokes(K: EmbeddedComplex, m: int, trials: int = 100, tol: float = 1e-10, seed: int = 0) -> StokesReport:
    """Phi vanishes on boundaries: sample random (m+1)-chains and test Phi(dQ).

    Residuals are normalized by 1 + M(Q).  Raises when the complex has no
    (m+1)-simplices to bound with.
    """
    if m + 1 > K.dim or K.n_simplices(m + 1) == 0:
        raise ValueError(f"complex has no ({m + 1})-simplices")
    rng = np.random.default_rng(seed)
    G = MultivectorGroup(K.ambient_dim, m)
    n = K.n_simplices(m + 1)
    worst = 0.0
    for _ in range(trials):
        size = int(rng.integers(1, n + 1))
        picks = rng.choice(n, size=size, replace=False)
        terms = [(K.simplex_tuple(m + 1, int(i)), rng.standard_normal(G.width)) for i in picks]
        Q = make_chain(K, m + 1, G, terms)
        residual = abs(phi(boundary(Q))) / (1.0 + mass(Q))
        worst = max(worst, residual)
    return StokesReport(
        trials=trials, max_normalized_residual=worst, passed=worst <= tol, tol=tol
    )


@dataclass
class FlatBoundReport:
    phi: float | None
    flat_value: float
    mass: float
    passed: bool
    solver_status: str
    notes: str = ""

    def to_json(self):
        return {
            "phi": self.phi,
            "flat_value": self.flat_value,
            "mass": self.mass,
            "passed": self.passed,
            "solver_status": self.solver_status,
            "notes": self.notes,
        }


def phi_flat_bound(A: Chain, solver_config: SolverConfig | None = None, tol: float = 1e-8) -> FlatBoundReport:
    """Verify the chain of inequalities Phi(A) <= F_K(A) <= M(A).

    F_K is the complex-restricted flat norm, an upper bound for the true flat
    norm since the minimization runs over a restricted competitor class.  Phi
    is reported only when the coefficient grade matches the chain dimension;
    solver trouble is reported, not raised.
    """
    total_mass = mass(A)
    value = None
    if isinstance(A.group, MultivectorGroup) and A.group.grade == A.dimension:
        value = phi(A)
    try:
        res = flat_norm_solve(A, config=solver_config)
        flat_value, status = res.value, res.status
        notes = "zero filling retained" if res.used_zero_filling else ""
    except Exception as exc:  # solver failure is a report, not an error
        return FlatBoundReport(
            phi=value,
            flat_value=float("nan"),
            mass=total_mass,
            passed=False,
            solver_status="error",
            notes=str(exc),
        )
    ok = flat_value <= total_mass + tol
    if value is not None:
        ok = ok and (value <= flat_value + tol)
    return FlatBoundReport(
        phi=value,
        flat_value=flat_value,
        mass=total_mass,
        passed=ok,
        solver_status=status,
        notes=notes,
    )


def minimality_certificate(
    V: PolyhedralVarifold,
    gamma: BoundaryRegion,
    tol: float = 1e-9,
    with_solver: bool = False,
    solver_config: SolverConfig | None = None,
    solver_tol: float = 1e-5,
) -> Certificate:
    """End-to-end certificate that the varifold's chain minimizes mass.

    Runs, in order: the conormal-balance stationarity test, the boundary
    support check on the associated chain, the calibration equality, and
    optionally a convex-solver cross-check on one barycentric refinement.
    The solver bounds only the complex-restricted problem; the unrestricted
    minimality claim is carried by the calibration, and the certificate
    records whether the solver ran.
    """
    K = V.complex
    report = stationarity(V, gamma, tol=tol)
    A, dA = report.chain, report.chain_boundary
    checks = [
        CheckResult(
            name="stationarity",
            passed=report.is_stationary,
            residual=report.max_relative_residual,
            tol=tol,
        )
    ]
    # boundary coefficients are measured against the largest one of A
    support_tol = tol * float(A.group.norms(A.coeffs).max(initial=0.0))
    interior = ~np.isin(dA.ids, list(gamma.face_ids))
    interior_norms = dA.group.norms(dA.coeffs[interior])
    checks.append(
        CheckResult(
            name="boundary-support",
            passed=is_supported_in(dA, gamma, tol=support_tol),
            residual=float(interior_norms.max(initial=0.0)),
            tol=support_tol,
        )
    )
    calib_checks, _, total_mass = _calibration_checks(A, tol)
    checks.extend(calib_checks)
    solver_info = {"ran": False}
    if with_solver:
        refined, corr = subdivide(K, "barycentric")
        A2 = transport_chain(A, corr)
        problem = MinMassProblem(
            refined, V.dimension, boundary(A2), A2.group, solver_config or SolverConfig()
        )
        result = min_mass_fixed_boundary(problem)
        # the solver's own weak-duality bound, not its objective, must reach M(A)
        margin = solver_tol * max(1.0, total_mass)
        shortfall = max(0.0, total_mass - (result.lower_bound or 0.0))
        checks.append(
            CheckResult(
                name="solver-lower-bound",
                passed=result.status == "converged" and shortfall <= margin,
                residual=shortfall,
                tol=margin,
            )
        )
        solver_info = {
            "ran": True,
            "status": result.status,
            "objective": result.objective,
            "lower_bound": result.lower_bound,
            "gap": result.gap,
            "iterations": result.iterations,
            "primal_residual": result.primal_residual,
            "config": (solver_config or SolverConfig()).to_json(),
        }
    if all(c.passed for c in checks):
        conclusion = "calibrated-minimizer"
    elif not (checks[0].passed and checks[1].passed):
        conclusion = "boundary-not-in-gamma"
    elif not all(c.passed for c in calib_checks):
        conclusion = "not-calibrated"
    else:
        conclusion = "inconclusive"
    subject = "varifold:" + _digest(varifold_to_json(V))
    offending = [
        {"face": list(K.simplex_tuple(V.dimension - 1, sid)), "coefficient_norm": norm}
        for sid, norm in zip(dA.ids[interior].tolist(), interior_norms.tolist())
        if norm > support_tol
    ]
    prov = _provenance(
        K,
        A.group,
        {"tol": tol, "solver_tol": solver_tol},
        {
            "solver": solver_info,
            "varifold_mass": V.mass(),
            "offending_boundary": offending,
        },
    )
    return Certificate(subject=subject, checks=checks, conclusion=conclusion, provenance=prov)
