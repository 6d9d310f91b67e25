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
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .chains import (
    Chain,
    boundary,
    calibration_cochain,
    chain_to_json,
    mass,
    transport_chain,
)
from .complexes import BoundaryRegion, EmbeddedComplex, digest, interior_faces, subdivide
from .exterior_algebra import rowdot
from .groups import MultivectorGroup
from .solver import MinMassProblem, SolverConfig, min_mass_fixed_boundary, flat_norm_solve
from .varifolds import PolyhedralVarifold, stationarity, varifold_text

COMPETITOR_CLASS = (
    "all chains over Lambda_m R^N on the ambient space with equal boundary"
)
# the solver-lower-bound check's tolerance, relative to max(1, M(A))
SOLVER_TOL = 1e-5


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


def _provenance(K: EmbeddedComplex, group, tols: dict, extra: dict) -> dict:
    return {
        "complex_hash": K.content_hash(),
        "group": group.descriptor(),
        "tolerances": tols,
        "version": __version__,
        "competitor_class": COMPETITOR_CLASS,
        **extra,
    }


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
    subject = "chain:" + digest(json.dumps(chain_to_json(A), sort_keys=True))
    return Certificate(
        subject=subject,
        checks=checks,
        conclusion="calibrated-minimizer" if ok else "not-calibrated",
        provenance=_provenance(
            A.complex, A.group, {"tol": tol}, {"phi": value, "mass": total_mass}
        ),
    )


@dataclass
class StokesReport:
    max_normalized_residual: float
    passed: bool
    tol: float


def check_stokes(K: EmbeddedComplex, m: int, tol: float = 1e-10) -> StokesReport:
    """Phi vanishes on boundaries: vol * eta = M^T Y for the calibration cochain Y.

    Then Phi(dQ) = <Y, ddQ> = 0 for every (m+1)-chain Q.  The residual is
    max_j ||(M^T Y)_j - vol_j eta_j|| / e_j^m over the m-simplices, e_j the
    longest edge (the scale of ``flat``; a sliver's volume carries more
    rounding than that), and M the solver's ``boundary_matrix``.  Raises when
    the complex has no m-simplices with faces.
    """
    if not 1 <= m <= K.dim:
        raise ValueError(f"complex has no {m}-simplices with faces")
    coboundary = K.boundary_matrix(m).T @ calibration_cochain(K, m)
    residuals = np.linalg.norm(coboundary - K.volumes(m)[:, None] * K.unit_blades(m), axis=1)
    residuals /= K.longest_edges(m) ** m
    worst = float(residuals.max(initial=0.0))
    return StokesReport(max_normalized_residual=worst, passed=worst <= tol, tol=tol)


@dataclass
class FlatBoundReport:
    phi: float | None
    flat_value: float | None
    mass: float
    passed: bool
    solver_status: str
    notes: str = ""
    lower_bound: float | None = None
    gap: float | None = None
    iterations: int = 0

    def to_json(self):
        return asdict(self)


def phi_flat_bound(A: Chain, solver_config: SolverConfig | None = None, tol: float = 1e-8) -> FlatBoundReport:
    """Verify the chain of inequalities Phi(A) <= F_K(A) <= M(A).

    F_K is the complex-restricted flat norm, an upper bound for the true flat
    norm since the minimization runs over a restricted competitor class.  Phi
    is reported only when the coefficient grade matches the chain dimension;
    solver trouble is reported, not raised, with ``flat_value`` None, but a
    group the solver does not take raises ValueError.
    """
    total_mass = mass(A)
    value = None
    if isinstance(A.group, MultivectorGroup) and A.group.grade == A.dimension:
        value = phi(A)
    try:
        res = flat_norm_solve(A, config=solver_config)
    except ValueError:
        raise  # an input the solver does not take, such as a discrete group
    except Exception as exc:  # solver failure is a report, not an error
        return FlatBoundReport(
            phi=value,
            flat_value=None,
            mass=total_mass,
            passed=False,
            solver_status="error",
            notes=str(exc),
        )
    ok = res.value <= total_mass + tol
    if value is not None:
        ok = ok and (value <= res.value + tol)
    return FlatBoundReport(
        phi=value,
        flat_value=res.value,
        mass=total_mass,
        passed=ok,
        solver_status=res.status,
        notes="zero filling retained" if res.used_zero_filling else "",
        lower_bound=res.lower_bound,
        gap=res.value - res.lower_bound,
        iterations=res.iterations,
    )


def minimality_certificate(
    V: PolyhedralVarifold,
    gamma: BoundaryRegion,
    tol: float = 1e-9,
    with_solver: bool = False,
    solver_config: SolverConfig | None = None,
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
    interior = interior_faces(K, V.dimension, gamma)[dA.ids]
    interior_norms = dA.group.norms(dA.coeffs[interior])
    residual = float(interior_norms.max(initial=0.0))
    checks.append(
        CheckResult(
            name="boundary-support",
            passed=residual <= support_tol,
            residual=residual,
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
        margin = SOLVER_TOL * max(1.0, total_mass)
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
    subject = "varifold:" + digest(varifold_text(V))
    offending = [
        {"face": list(K.simplex_tuple(V.dimension - 1, sid)), "coefficient_norm": norm}
        for sid, norm in zip(dA.ids[interior].tolist(), interior_norms.tolist())
        if norm > support_tol
    ]
    prov = _provenance(
        K,
        A.group,
        {"tol": tol, "solver_tol": SOLVER_TOL},
        {
            "solver": solver_info,
            "varifold_mass": V.mass(),
            "offending_boundary": offending,
        },
    )
    return Certificate(subject=subject, checks=checks, conclusion=conclusion, provenance=prov)
