"""Cartan fundamental functions of the rotating Kepler family.

Two equivalent forms of the fundamental function are implemented and
cross-tested against each other:

* the Cartesian-fiber form ``F*_p(q) = C|q| (1 + sqrt(1 + a<p_perp,q>/(|q|C^2)))``
  on a single cotangent fiber, and
* the polar-chart family ``F*_{c,a}(x, y, r, t)`` on the whole bundle, where
  ``(x, y)`` are polar coordinates of the momentum 2-vector and ``(r, t)``
  the dual fiber coordinates, so that ``|q|^2 = r^2 + t^2/x^2``,
  ``<p_perp, q> = -t`` and ``|p| = |x|``.

The polar form never depends on ``y``; its jets are taken in ``(x, r, t)``.
A :class:`MetricParams` is the family itself: the curvature layer takes it
as a metric as it stands, with :func:`_fstar_jet_batch` as its jets.
Both scalar and jet evaluation share one expression and one root rule (a
positive argument gets its root, anything else NaN, or DomainError on a
jet), so there is a single source of truth for the formula, and one domain:
:func:`classify`, whose second return is the one read of the inner
radicand.  One check, ``q != 0``, guards every Cartesian fiber.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DomainError
from .jets import Jet

__all__ = [
    "MetricParams",
    "PhasePoint",
    "CartesianFiberPoint",
    "DomainStatus",
    "RADICAND_CLAMP",
    "CHART_BAND",
    "VERDICTS",
    "perp_inner",
    "fstar_cartesian",
    "fstar_polar",
    "fstar_polar_jet",
    "lstar",
    "lstar_jet",
    "classify",
    "validate_domain",
    "scaling_reduce",
    "cartesian_fiber_point",
    "hypothesis_gap",
]

# fstar_cartesian rounds radicands in [-RADICAND_CLAMP, 0) up to 0: the
# boundary of the bounded component is a legitimate target (verify_convexity
# evaluates there) that rounding can place marginally outside.
RADICAND_CLAMP = 1e-12

# Half-width of the band around the polar chart's singularity x = 0 that
# classify rejects as chart_singularity.  The polar K loses about u / x^2
# of its accuracy there (u = 2^-53): 9e-9 relative at |x| = 1e-3, 4e-7 at
# 1e-4, and no correct digit below about 1e-7.
CHART_BAND = 1e-3

# Every (status, reason) pair the package reports, indexed by verdict code:
# ok, then the domain rules in the order classify applies them, then the
# curvature kernel's verdicts on the lanes classify admits.
VERDICTS = (
    ("ok", None),
    ("domain_error", "nonfinite_input"),
    ("domain_error", "chart_singularity"),
    ("domain_error", "zero_fiber_direction"),
    ("domain_error", "energy_below_critical"),
    ("domain_error", "negative_radicand"),
    ("domain_error", "undefined_radicand"),
    ("domain_error", "degenerate_cometric"),
    ("singular_v", "denominator_below_tolerance"),
    ("domain_error", "nonfinite_result"),
)
(OK, NONFINITE_INPUT, CHART_SINGULARITY, ZERO_FIBER_DIRECTION, ENERGY_BELOW_CRITICAL,
 NEGATIVE_RADICAND, UNDEFINED_RADICAND, DEGENERATE_COMETRIC, DENOMINATOR_BELOW_TOLERANCE,
 NONFINITE_RESULT) = range(len(VERDICTS))


@dataclass(frozen=True)
class MetricParams:
    """Rotation rate ``a >= 0`` and energy parameter ``c > 0``: numbers, or
    arrays of the lanes' shape that give each lane its own pair.

    ``has_bounded_component`` (``a == 0`` or ``c`` above
    :attr:`critical_c`) is computed once, when the pair is made, for the
    domain rules of every query; equality and hashing read ``a`` and ``c``
    only."""

    a: float
    c: float

    def __post_init__(self):
        a, c = self.a, self.c
        if isinstance(a, np.ndarray) or isinstance(c, np.ndarray):
            a, c = np.broadcast_arrays(a, c)
            bad = ~(np.isfinite(a) & (a >= 0.0) & np.isfinite(c) & (c > 0.0))
            if bad.any():
                _check_params(float(a[bad][0]), float(c[bad][0]))  # the first bad lane's rules
        else:
            _check_params(a, c)
            # NumPy scalars are held as the floats a point query reads, as
            # its coordinates are, so its verdicts and radicand are Python
            # numbers.
            if isinstance(a, np.generic) or isinstance(c, np.generic):
                object.__setattr__(self, "a", float(a))
                object.__setattr__(self, "c", float(c))
        object.__setattr__(self, "has_bounded_component",
                           (self.a == 0.0) | (self.c > self.critical_c))

    @property
    def critical_c(self):
        """Threshold (3/2) a^(2/3) above which the bounded component exists."""
        return 1.5 * self.a ** (2.0 / 3.0)


def _check_params(a, c):
    if not (math.isfinite(a) and a >= 0.0):
        raise ValueError(f"rotation rate a must be finite and >= 0, got {a}")
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError(f"energy parameter c must be finite and > 0, got {c}")


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
        if not 0.0 < self.C < math.inf:
            raise ValueError(f"half-offset C must be positive and finite, got {self.C}")


@dataclass(frozen=True)
class DomainStatus:
    """Structured admissibility verdict for a phase point."""

    ok: bool
    reason: str | None = None
    radicand: float | None = None


def perp_inner(p, q):
    """<p_perp, q> with p_perp = (p2, -p1)."""
    return p[1] * q[0] - p[0] * q[1]


def _fiber_norm(q):
    """``|q|`` of a Cartesian fiber point, which must be nonzero."""
    qn = math.hypot(*q)
    if qn == 0.0:
        raise DomainError("fiber point q must be nonzero", value=0.0)
    return qn


def _sqrt(u):
    """``Jet.sqrt``'s rule on floats and arrays too: the root of a positive
    argument, NaN without a warning for anything else."""
    if type(u) is not float:
        if isinstance(u, Jet):
            return u.sqrt()
        if isinstance(u, np.ndarray):
            return np.sqrt(np.where(u > 0.0, u, np.nan))
    return math.sqrt(u) if u > 0.0 else math.nan


def _radicand(x, r, t, a, c):
    """``(x^2 + 2c, |q|, inner radicand)`` of the polar F*."""
    xx = x * x
    norm_q = _sqrt(r * r + (t * t) / xx)
    w = xx + 2.0 * c
    return w, norm_q, 1.0 - (16.0 * a) * t / (norm_q * (w * w))


def _fstar_expr(x, r, t, a, c):
    """The polar fundamental function on floats, arrays, or jets."""
    w, norm_q, rad = _radicand(x, r, t, a, c)
    return 0.25 * w * norm_q * (1.0 + _sqrt(rad))


def fstar_cartesian(pt, a=1.0):
    """Fundamental function on one fiber, with momentum scaled by ``a``.

    Returns the unique positive scale placing ``q/F*`` on the bounded
    component of the zero level of ``H_p``.
    """
    qn = _fiber_norm(pt.q)
    scale = qn * pt.C * pt.C
    if scale == 0.0:
        raise DomainError(f"|q| C^2 underflows to 0 at q = {pt.q}, C = {pt.C}", value=scale)
    rad = 1.0 + a * perp_inner(pt.p, pt.q) / scale
    if rad < -RADICAND_CLAMP:
        raise DomainError(f"radicand is negative: {rad}", value=rad)
    return pt.C * qn * (1.0 + math.sqrt(max(rad, 0.0)))


def _first_broken(rules):
    """Verdict code of the first rule each lane breaks, ``OK`` if none.

    ``rules`` holds ``(code, broken)`` pairs in precedence order: bools at a
    point, boolean arrays of the lanes' shape (or bools for all) on a block."""
    for _, broken in rules:
        if type(broken) is not bool:
            break
    else:
        for which, broken in rules:
            if broken:
                return which
        return OK
    code = np.zeros(np.broadcast_shapes(*(np.shape(b) for _, b in rules)), np.int8)
    for which, broken in reversed(rules):
        code[broken] = which
    return code


# Python's numbers and NumPy's scalars, floats first: bound here, so a point
# query looks up no attribute of ``np``.
_NUMBERS = (float, int, np.floating, np.integer)


def _is_point(*coords):
    """Whether ``coords`` are numbers, one point's, evaluated as floats."""
    return all(map(isinstance, coords, repeat(_NUMBERS)))


def classify(params, x, r, t):
    """Domain verdict codes and the inner radicand, the one read of it: an
    int and a float at a point, arrays over lane arrays of one shape.

    The rules, in precedence order: ``nonfinite_input`` (``x``, ``r`` or
    ``t`` not finite), ``chart_singularity`` (``|x| <`` :data:`CHART_BAND`,
    where the polar chart loses the digits of ``K``), ``zero_fiber_direction``
    (``r == t == 0``), ``energy_below_critical`` (no bounded component,
    :attr:`MetricParams.has_bounded_component`), and ``negative_radicand``
    (the inner radicand zero or negative) or ``undefined_radicand`` (the
    inner radicand NaN: ``|q|`` underflows to 0 though ``r`` or ``t`` is
    not, or ``x * x`` overflows with ``r = 0``).  The radicand is NaN where
    the chart rule fires.
    """
    if _is_point(x, r, t):
        return _classify(params, float(x), float(r), float(t))
    x, r, t = (np.asarray(v, dtype=float) for v in (x, r, t))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _classify(params, x, r, t)


def _classify(params, x, r, t):
    """:func:`classify` on arrays, or on floats, which never read the
    radicand inside the chart band, so never divide by zero."""
    chart = abs(x) < CHART_BAND
    if isinstance(chart, np.ndarray):
        rad = np.where(chart, np.nan, _radicand(x, r, t, params.a, params.c)[2])
    else:
        rad = math.nan if chart else _radicand(x, r, t, params.a, params.c)[2]
    bounded = params.has_bounded_component
    return _first_broken([
        # a product with 0 is NaN exactly where a factor is not finite
        (NONFINITE_INPUT, x * 0.0 + r * 0.0 + t * 0.0 != 0.0),
        (CHART_SINGULARITY, chart),
        (ZERO_FIBER_DIRECTION, (r == 0.0) & (t == 0.0)),
        (ENERGY_BELOW_CRITICAL, ~bounded if isinstance(bounded, np.ndarray) else not bounded),
        (NEGATIVE_RADICAND, rad <= 0.0),
        (UNDEFINED_RADICAND, rad != rad),  # NaN
    ]), rad


def validate_domain(params, pt):
    """Admissibility of one phase point: :func:`classify` on its floats.

    ``radicand`` is reported where the radicand rule was reached.
    """
    code, rad = classify(params, pt.x, pt.r, pt.t)
    reached = code in (OK, NEGATIVE_RADICAND, UNDEFINED_RADICAND)
    return DomainStatus(code == OK, VERDICTS[code][1], rad if reached else None)


def _finite(value, name, pt):
    if not math.isfinite(value):
        raise DomainError(f"{name} is not finite at {pt}: {value}", value=value)
    return value


def fstar_polar(params, pt):
    """Scalar value of the polar fundamental function ``F*_{c,a}``; raises
    DomainError where it is not finite (``x = 0``, ``r = t = 0``, a radicand
    at or below 0, ``|q|`` or ``x * x`` underflowing).  It evaluates below
    the critical energy."""
    # x as a NumPy float divides by zero without raising, in the same bits
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f = float(_fstar_expr(np.float64(pt.x), pt.r, pt.t, params.a, params.c))
    return _finite(f, "F*", pt)


def fstar_polar_jet(params, pt, max_order=4):
    """Jet of ``F*_{c,a}`` at ``pt`` in ``(x, r, t)``; ``Jet.reciprocal`` and
    ``Jet.sqrt`` raise DomainError at ``x = 0`` and at ``r = t = 0``.  A
    coefficient beyond the float range is not finite, without a warning."""
    with np.errstate(all="ignore"):
        return _fstar_jet_batch(pt.x, pt.r, pt.t, params.a, params.c, max_order)


def _variables(coords, max_order):
    """Jets of the coordinate functions at ``coords``, scalars or arrays."""
    return [Jet.variable(i, v, len(coords), max_order) for i, v in enumerate(coords)]


def _fstar_jet_batch(x, r, t, a, c, max_order=4):
    """Jets in ``(x, r, t)`` over numbers, arrays of any shape or tape nodes."""
    return _fstar_expr(*_variables((x, r, t), max_order), a, c)


def lstar(params, pt):
    """Half the squared fundamental function, ``L* = F*^2 / 2``."""
    f = fstar_polar(params, pt)
    return _finite(0.5 * f * f, "L*", pt)


def lstar_jet(params, pt, max_order=4):
    f = fstar_polar_jet(params, pt, max_order)
    with np.errstate(all="ignore"):
        return 0.5 * f * f


def scaling_reduce(params, pt):
    """Reduce to rotation rate 1: returns ``(params', pt')`` with
    ``F*_{c,a}(pt) = a^(1/3) * F*_{c',1}(pt')``, lane by lane on arrays.
    """
    if np.any(params.a == 0.0):
        raise ValueError("scaling reduction requires a > 0")
    s = params.a ** (1.0 / 3.0)
    reduced = MetricParams(1.0, params.c / (s * s))
    moved = PhasePoint(pt.x / s, pt.y, pt.r * s, pt.t)
    return reduced, moved


def cartesian_fiber_point(params, pt):
    """Change of variables from the polar chart back to one Cartesian fiber.

    ``p = (x cos y, x sin y)``, ``q`` reconstructed from ``(r, t)``, and
    ``2C = |p|^2/2 + c``.  DomainError names the rule broken: ``nonfinite_input``
    (a coordinate not finite) or ``chart_singularity`` (``x == 0``); the
    point is not otherwise checked against :func:`classify`.
    """
    for v in (pt.x, pt.y, pt.r, pt.t):
        if not math.isfinite(v):
            raise DomainError(f"nonfinite_input at {pt}", value=v)
    if pt.x == 0.0:
        raise DomainError(f"chart_singularity at {pt}", value=0.0)
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
    with np.errstate(all="ignore"):  # beyond the float range: inf, or NaN at x = -inf
        out = x**4 + 6.0 * x**2 - 16.0 * x + 9.0
    return float(out) if out.ndim == 0 else out
