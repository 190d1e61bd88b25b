"""Flag curvature of the rotating Kepler problem's Cartan metrics.

The cotangent-side fundamental function of the rotating Kepler problem is
evaluated together with all partial derivatives up to total order 4 through
exact jet arithmetic; from that single jet per point the package assembles
the cometric, the fiber Legendre map and the spray coefficients (read
together through ``curvature_terms``), and the flag curvature.  A
transcribed closed form along the fiber ray (r, t) = (0, x) serves as an
independent oracle, and verifiers cover fiberwise convexity, the scaling
symmetry, and the structural identities of the construction.
"""

from .convexity import (
    ConvexityReport,
    LambdaRoots,
    f_of_t,
    hessian_form,
    hp_value,
    lambda_roots,
    verify_convexity,
)
from .curvature import (
    CallbackCartanMetric,
    CurvatureSample,
    CurvatureTerms,
    curvature_terms,
    flag_curvature,
    flag_curvature_closed_form,
)
from .errors import ConsistencyError, DegeneracyError, DomainError, PreconditionError
from .jets import Jet
from .metric import (
    CartesianFiberPoint,
    DomainStatus,
    MetricParams,
    PhasePoint,
    cartesian_fiber_point,
    fstar_cartesian,
    fstar_polar,
    fstar_polar_jet,
    hypothesis_gap,
    lstar,
    lstar_jet,
    scaling_reduce,
    validate_domain,
)
from .scan import (
    GridSpec,
    ScanResult,
    ScanSummary,
    SliceSpec,
    emit,
    grid_scan,
    slice_scan,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "Jet",
    "MetricParams",
    "PhasePoint",
    "CartesianFiberPoint",
    "DomainStatus",
    "CallbackCartanMetric",
    "CurvatureSample",
    "CurvatureTerms",
    "LambdaRoots",
    "ConvexityReport",
    "GridSpec",
    "SliceSpec",
    "ScanResult",
    "ScanSummary",
    "DomainError",
    "PreconditionError",
    "DegeneracyError",
    "ConsistencyError",
    "fstar_cartesian",
    "fstar_polar",
    "fstar_polar_jet",
    "lstar",
    "lstar_jet",
    "validate_domain",
    "scaling_reduce",
    "cartesian_fiber_point",
    "hypothesis_gap",
    "hp_value",
    "lambda_roots",
    "f_of_t",
    "hessian_form",
    "verify_convexity",
    "curvature_terms",
    "flag_curvature",
    "flag_curvature_closed_form",
    "grid_scan",
    "slice_scan",
    "summarize",
    "emit",
]
