"""Cartan fundamental functions of the rotating Kepler family.

Two equivalent forms of the fundamental function are implemented and
cross-tested against each other:

* the Cartesian-fiber form ``F*_p(q) = C|q| (1 + sqrt(1 + a<p_perp,q>/(|q|C^2)))``
  on a single cotangent fiber, and
* the polar-chart family ``F*_{c,a}(x, y, r, t)`` on the whole bundle, where
  ``(x, y)`` are polar coordinates of the momentum 2-vector and ``(r, t)``
  the dual fiber coordinates, so that ``|q|^2 = r^2 + t^2/x^2``,
  ``<p_perp, q> = -t`` and ``|p| = |x|``.

The polar form never depends on ``y``; its jets are taken in ``(x, r, t)``
(optionally with a fourth, unused ``y`` slot).  Both scalar and jet
evaluation share one expression, so there is a single source of truth for
the formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .jets import Jet

__all__ = [
    "MetricParams",
    "PhasePoint",
    "CartesianFiberPoint",
    "DomainStatus",
    "KeplerCartanMetric",
    "RADICAND_CLAMP",
    "perp_inner",
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
]

# Inner radicands in [-RADICAND_CLAMP, 0) are rounded up to 0 in scalar
# evaluation: the boundary of the bounded component is a legitimate target
# that rounding can place marginally outside.
RADICAND_CLAMP = 1e-12


@dataclass(frozen=True)
class MetricParams:
    """Rotation rate ``a >= 0`` and energy parameter ``c > 0``."""

    a: float
    c: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a >= 0.0):
            raise ValueError(f"rotation rate a must be finite and >= 0, got {self.a}")
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ValueError(f"energy parameter c must be finite and > 0, got {self.c}")

    @property
    def critical_c(self):
        """Threshold (3/2) a^(2/3) above which the bounded component exists."""
        return 1.5 * self.a ** (2.0 / 3.0)

    @property
    def has_bounded_component(self):
        return self.a == 0.0 or self.c > self.critical_c


@dataclass(frozen=True)
class PhasePoint:
    """Cotangent-bundle coordinates ``(x, y, r, t)`` in the polar chart."""

    x: float
    y: float
    r: float
    t: float


@dataclass(frozen=True)
class CartesianFiberPoint:
    """A single cotangent fiber: base momentum ``p``, fiber ``q``, offset ``C``."""

    p: tuple[float, float]
    q: tuple[float, float]
    C: float

    def __post_init__(self):
        if not self.C > 0.0:
            raise ValueError(f"half-offset C must be positive, got {self.C}")


@dataclass(frozen=True)
class DomainStatus:
    """Structured admissibility verdict for a phase point."""

    ok: bool
    reason: str | None = None
    radicand: float | None = None
    certificate_ok: bool | None = None


def perp_inner(p, q):
    """<p_perp, q> with p_perp = (p2, -p1)."""
    return p[1] * q[0] - p[0] * q[1]


def _sqrt(u):
    return u.sqrt() if isinstance(u, Jet) else np.sqrt(u)


def _clamped_radicand(rad):
    """Apply the boundary clamp; jets must stay strictly inside the domain."""
    if isinstance(rad, Jet):
        if np.any(np.asarray(rad.coeffs[0]) <= 0.0):
            raise DomainError(
                "inner radicand must be strictly positive for jet evaluation, "
                f"got {float(np.min(rad.coeffs[0]))}",
                value=float(np.min(rad.coeffs[0])),
            )
        return rad
    rad = np.asarray(rad, dtype=float)
    if rad.ndim == 0:
        v = float(rad)
        if v < -RADICAND_CLAMP:
            raise DomainError(f"inner radicand is negative: {v}", value=v)
        return max(v, 0.0)
    with np.errstate(invalid="ignore"):
        return np.where(rad < -RADICAND_CLAMP, np.nan, np.maximum(rad, 0.0))


def _fstar_expr(x, r, t, a, c):
    """The polar fundamental function on floats, arrays, or jets."""
    norm_q = _sqrt(r * r + (t * t) / (x * x))
    w = x * x + 2.0 * c
    rad = _clamped_radicand(1.0 - (16.0 * a) * t / (norm_q * (w * w)))
    return 0.25 * w * norm_q * (1.0 + _sqrt(rad))


def fstar_cartesian(pt, a=1.0):
    """Fundamental function on one fiber, with momentum scaled by ``a``.

    Returns the unique positive scale placing ``q/F*`` on the bounded
    component of the zero level of ``H_p``.
    """
    qn = math.hypot(*pt.q)
    if qn == 0.0:
        raise DomainError("fiber point q must be nonzero", value=0.0)
    rad = 1.0 + a * perp_inner(pt.p, pt.q) / (qn * pt.C * pt.C)
    if rad < -RADICAND_CLAMP:
        raise DomainError(f"radicand is negative: {rad}", value=rad)
    return pt.C * qn * (1.0 + math.sqrt(max(rad, 0.0)))


def inner_radicand(params, x, r, t):
    """Radicand under the inner square root of the polar F*; no clamping.

    Accepts scalars or arrays; ``x`` must be nonzero elementwise.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        norm_q = np.sqrt(r * r + (t * t) / (x * x))
        w = x * x + 2.0 * params.c
        out = 1.0 - (16.0 * params.a) * t / (norm_q * w * w)
    return float(out) if out.ndim == 0 else out


def validate_domain(params, pt):
    """Full admissibility check for the polar chart.

    Also evaluates the hypothesis certificate ``a|p| < (|p|^2/4 + c/2)^2``
    at the point (informational; it holds automatically whenever the energy
    condition does).  A non-finite ``x``, ``r`` or ``t`` is reported as
    ``nonfinite_input``.
    """
    if not all(math.isfinite(v) for v in (pt.x, pt.r, pt.t)):
        return DomainStatus(False, "nonfinite_input", None, None)
    if pt.x == 0.0:
        return DomainStatus(False, "chart_singularity", None, None)
    half_w = pt.x * pt.x / 4.0 + params.c / 2.0
    cert = params.a * abs(pt.x) < half_w * half_w
    if pt.r == 0.0 and pt.t == 0.0:
        return DomainStatus(False, "zero_fiber_direction", None, cert)
    if params.a > 0.0 and params.c <= params.critical_c:
        return DomainStatus(False, "energy_below_critical", None, cert)
    rad = inner_radicand(params, pt.x, pt.r, pt.t)
    if rad < -RADICAND_CLAMP:
        return DomainStatus(False, "negative_radicand", rad, cert)
    if not cert:
        return DomainStatus(False, "hypothesis_certificate_failed", rad, cert)
    return DomainStatus(True, None, rad, cert)


def _require_evaluable(params, pt):
    """Evaluability guard: the formula itself must make sense at ``pt``.

    The global energy condition is deliberately not enforced here; the
    scaling identity is algebraic and holds through the critical energy,
    and the curvature and scan layers enforce full admissibility via
    :func:`validate_domain`.
    """
    if pt.x == 0.0:
        raise DomainError("chart singularity at x = 0", value=0.0)
    if pt.r == 0.0 and pt.t == 0.0:
        raise DomainError("zero fiber direction", value=0.0)


def fstar_polar(params, pt):
    """Scalar value of the polar fundamental function ``F*_{c,a}``."""
    _require_evaluable(params, pt)
    return float(_fstar_expr(pt.x, pt.r, pt.t, params.a, params.c))


def fstar_polar_jet(params, pt, max_order=4, include_y=False):
    """Jet of ``F*_{c,a}`` at ``pt`` in the variables ``(x, r, t)``.

    ``F*`` never depends on ``y``; with ``include_y=True`` the jet instead
    lives in ``(x, y, r, t)`` and all its ``y``-coefficients are zero.
    """
    _require_evaluable(params, pt)
    if include_y:
        x = Jet.variable(0, pt.x, 4, max_order)
        r = Jet.variable(2, pt.r, 4, max_order)
        t = Jet.variable(3, pt.t, 4, max_order)
    else:
        x = Jet.variable(0, pt.x, 3, max_order)
        r = Jet.variable(1, pt.r, 3, max_order)
        t = Jet.variable(2, pt.t, 3, max_order)
    return _fstar_expr(x, r, t, params.a, params.c)


def _fstar_jet_batch(params, x, r, t, max_order=4):
    """Batched jets in ``(x, r, t)`` over prevalidated coordinate arrays."""
    xj = Jet.variable(0, x, 3, max_order)
    rj = Jet.variable(1, r, 3, max_order)
    tj = Jet.variable(2, t, 3, max_order)
    return _fstar_expr(xj, rj, tj, params.a, params.c)


def lstar(params, pt):
    """Half the squared fundamental function, ``L* = F*^2 / 2``."""
    f = fstar_polar(params, pt)
    return 0.5 * f * f


def lstar_jet(params, pt, max_order=4, include_y=False):
    f = fstar_polar_jet(params, pt, max_order, include_y)
    return 0.5 * f * f


def scaling_reduce(params, pt):
    """Reduce to rotation rate 1: returns ``(params', pt')`` with
    ``F*_{c,a}(pt) = a^(1/3) * F*_{c',1}(pt')``.
    """
    if params.a == 0.0:
        raise ValueError("scaling reduction requires a > 0")
    s = params.a ** (1.0 / 3.0)
    reduced = MetricParams(1.0, params.c / (s * s))
    moved = PhasePoint(pt.x / s, pt.y, pt.r * s, pt.t)
    return reduced, moved


def cartesian_fiber_point(params, pt):
    """Change of variables from the polar chart back to one Cartesian fiber.

    ``p = (x cos y, x sin y)``, ``q`` reconstructed from ``(r, t)``, and
    ``2C = |p|^2/2 + c``.
    """
    if pt.x == 0.0:
        raise DomainError("chart singularity at x = 0", value=0.0)
    cy, sy = math.cos(pt.y), math.sin(pt.y)
    p = (pt.x * cy, pt.x * sy)
    q = (cy * pt.r - sy * pt.t / pt.x, sy * pt.r + cy * pt.t / pt.x)
    C = (pt.x * pt.x + 2.0 * params.c) / 4.0
    return CartesianFiberPoint(p, q, C)


def hypothesis_gap(x):
    """g(x) = x^4 + 6x^2 - 16x + 9, the scaled hypothesis certificate.

    Nonnegative for all x >= 0, with minimum 0 attained at x = 1; its
    nonnegativity is what makes every bounded-component point admissible.
    """
    x = np.asarray(x, dtype=float)
    out = x**4 + 6.0 * x**2 - 16.0 * x + 9.0
    return float(out) if out.ndim == 0 else out


class KeplerCartanMetric:
    """Jet provider for the built-in family, consumed by the curvature layer.

    The fiber Hessian data lives in the cotangent variables ``(x, r, t)``;
    the family does not depend on ``y``, so ``depends_on_y`` is False and
    all ``y``-derivative terms are supplied as zero jets downstream.
    """

    depends_on_y = False

    def __init__(self, params):
        self.params = params

    def fstar_jet(self, pt, max_order):
        return fstar_polar_jet(self.params, pt, max_order)

    def validate(self, pt):
        return validate_domain(self.params, pt)

    def __repr__(self):
        return f"KeplerCartanMetric(a={self.params.a}, c={self.params.c})"
