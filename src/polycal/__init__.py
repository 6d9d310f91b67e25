"""Polyhedral chains, varifolds, and calibration certificates."""

__version__ = "0.1.0"

from .complexes import (
    BoundaryRegion,
    EmbeddedComplex,
    build_complex,
    interior_faces,
    subdivide,
    validate_geometry,
)
from .groups import (
    CoefficientGroup,
    IntegerGroup,
    MultivectorGroup,
    RealGroup,
    SubgroupWithNorm,
    integrality_check,
    norm_ball,
    subgroup_norm,
    verify_group_axioms,
)
from .chains import (
    Chain,
    boundary,
    combine,
    is_supported_in,
    make_chain,
    mass,
    pushforward_chain,
    retag_chain,
    transport_chain,
)
from .varifolds import (
    PolyhedralVarifold,
    StationarityReport,
    chainify,
    conormal,
    generate_example,
    make_varifold,
    pushforward_varifold,
    stationarity,
)
from .calibration import (
    Certificate,
    certify_calibrated,
    check_stokes,
    minimality_certificate,
    phi,
    phi_flat_bound,
)
from .solver import (
    MinMassProblem,
    SolveResult,
    SolverConfig,
    flat_norm_solve,
    min_mass_fixed_boundary,
)
