"""Flag curvature of the rotating Kepler problem's Cartan metrics.

The cotangent-side fundamental function of the rotating Kepler problem is
evaluated together with all partial derivatives up to total order 4 through
exact jet arithmetic; from that single jet per point the package assembles
the cometric, the fiber Legendre map and the spray coefficients (read
together through ``curvature_terms``), and the flag curvature.  A
transcribed closed form along the fiber ray (r, t) = (0, x) serves as an
independent oracle, and verifiers cover fiberwise convexity, the scaling
symmetry, and the structural identities of the construction.

``import keplerflag`` loads what a point query needs: the jets, the metric
family and the curvature.  The names exported from :mod:`keplerflag.scan`
and :mod:`keplerflag.convexity`, and those two modules themselves, are
imported on first use and read from their modules at each use (PEP 562).
"""

import importlib

from .curvature import (
    CallbackCartanMetric,
    CurvatureSample,
    CurvatureTerms,
    curvature_terms,
    flag_curvature,
    flag_curvature_closed_form,
)
from .errors import ConsistencyError, DomainError, PreconditionError
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

# Exported names whose modules a point query does not need, by module.
_LAZY = {name: module for module, names in (
    ("convexity", ("ConvexityReport", "LambdaRoots", "f_of_t", "hessian_form", "hp_value",
                   "lambda_roots", "verify_convexity")),
    ("scan", ("GridSpec", "ScanResult", "ScanSummary", "SliceSpec", "emit", "grid_scan",
              "slice_scan", "summarize")),
) for name in names}


def __getattr__(name):
    """Import a lazily exported name's module, or the module itself, and
    read the name from it at each use: nothing is bound here, so the name
    is always the module's own."""
    if name in _LAZY.values():
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__, *_LAZY.values()})
