"""Flag curvature of the rotating Kepler problem's Cartan metrics.

The cotangent-side fundamental function of the rotating Kepler problem is
evaluated together with all partial derivatives up to total order 4 through
exact jet arithmetic; from that single jet per point the package assembles
the cometric, the fiber Legendre map, the spray coefficients, and the flag
curvature.  A transcribed closed form along the fiber ray (r, t) = (0, x)
serves as an independent oracle, and verifiers cover fiberwise convexity,
the scaling symmetry, and the structural identities of the construction.
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
    CometricBlock,
    CurvatureSample,
    SprayPair,
    cometric_at,
    flag_curvature,
    flag_curvature_closed_form,
    legendre_fiber,
    spray_coeffs,
)
from .errors import ConsistencyError, DegeneracyError, DomainError, PreconditionError
from .jets import Jet
from .metric import (
    CartesianFiberPoint,
    DomainStatus,
    KeplerCartanMetric,
    MetricParams,
    PhasePoint,
    cartesian_fiber_point,
    fstar_cartesian,
    fstar_polar,
    fstar_polar_jet,
    hypothesis_gap,
    inner_radicand,
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
    "KeplerCartanMetric",
    "CallbackCartanMetric",
    "CometricBlock",
    "SprayPair",
    "CurvatureSample",
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
    "inner_radicand",
    "validate_domain",
    "scaling_reduce",
    "cartesian_fiber_point",
    "hypothesis_gap",
    "hp_value",
    "lambda_roots",
    "f_of_t",
    "hessian_form",
    "verify_convexity",
    "cometric_at",
    "legendre_fiber",
    "spray_coeffs",
    "flag_curvature",
    "flag_curvature_closed_form",
    "grid_scan",
    "slice_scan",
    "summarize",
    "emit",
]
