"""Flag curvature of a Cartan surface, computed from the cotangent side.

Everything is assembled from a single order-4 jet of ``L* = F*^2 / 2`` per
evaluation point.  The chain of quantities is:

* cometric ``g^{ij}`` = fiber Hessian of ``L*`` in ``(r, t)``, inverted
  analytically (2x2) to the metric coefficients ``g_{ij}``;
* tangent fiber coordinates ``u = L*_r``, ``v = L*_t`` (the fiber Legendre
  map), with the inverse relations ``r = g_11 u + g_12 v``,
  ``t = g_21 u + g_22 v``;
* spray coefficients

  ``2G = (g11 L*_x + g12 L*_y) - (g11 L*_rx + g12 L*_ry) r - (g12 L*_rx + g22 L*_ry) t``
  ``2H = (g12 L*_x + g22 L*_y) - (g12 L*_tx + g22 L*_ty) t - (g11 L*_tx + g12 L*_ty) r``

  (cometric superscripts written inline; the tangent-side Lagrangian
  satisfies ``L_u = r`` and ``L_v = t``, which is how ``r`` and ``t`` enter).
  H is renamed ``H_spray`` throughout to avoid any collision with a
  Hamiltonian;
* flag curvature

  ``K = ((G_xv - G_yu) v + 2 G G_uu + 2 H G_uv - G_u G_u - G_v H_u) / (v L_v)``

  with every tangent-side derivative rewritten through the fiberwise chain
  rule ``d/du = g_11 d/dr + g_21 d/dt``, ``d/dv = g_12 d/dr + g_22 d/dt``,
  and base derivatives at frozen ``(u, v)`` corrected by the
  metric-coefficient derivative terms
  ``(dr/dx)|_{u,v} = (dg_11/dx) u + (dg_12/dx) v`` (same shape for ``t``
  and for ``y``).

For the built-in rotating-Kepler family nothing depends on ``y``; the
assembly is shared with generic callback metrics by feeding zero jets for
every ``y``-derivative.

A transcription of the closed-form curvature along the fiber ray
``(r, t) = (0, x)`` at rotation rate 1 serves as the independent oracle; it
is evaluated in extended precision because the expression cancels
catastrophically near the zero set of its radicand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from mpmath import mp, mpf
from mpmath import sqrt as mp_sqrt

from .errors import ConsistencyError, DegeneracyError, DomainError
from .jets import Jet
from .metric import KeplerCartanMetric, MetricParams, PhasePoint, _fstar_jet_batch

__all__ = [
    "CometricBlock",
    "SprayPair",
    "CurvatureSample",
    "CallbackCartanMetric",
    "SINGULAR_V_TOL",
    "cometric_at",
    "legendre_fiber",
    "spray_coeffs",
    "flag_curvature",
    "flag_curvature_closed_form",
    "closed_form_radicand",
]

# |v * t| below this threshold makes the curvature formula's denominator
# numerically meaningless; such points are reported, not evaluated.
SINGULAR_V_TOL = 1e-12

_RECONSTRUCTION_RTOL = 1e-10


@dataclass(frozen=True)
class CometricBlock:
    """Fiber Hessian of L*, its determinant, and the inverse (metric) block."""

    g11: float
    g12: float
    g22: float
    det: float
    inv11: float
    inv12: float
    inv22: float


@dataclass(frozen=True)
class SprayPair:
    G: float
    H_spray: float


@dataclass(frozen=True)
class CurvatureSample:
    """A phase point with its flag curvature, or the reason there is none."""

    point: PhasePoint
    K: float | None
    status: str  # "ok" | "domain_error" | "singular_v"
    reason: str | None = None

    @property
    def ok(self):
        return self.status == "ok"


@dataclass(frozen=True)
class CallbackCartanMetric:
    """Extension hook: a user fundamental function evaluated on jets.

    ``fstar`` receives jets of ``(x, y, r, t)`` (``y`` is passed as a plain
    float when ``depends_on_y`` is False, in which case jets live in
    ``(x, r, t)``) and must return the fundamental-function jet built with
    jet arithmetic only.
    """

    fstar: Callable
    depends_on_y: bool = True

    def fstar_jet(self, pt, max_order):
        if self.depends_on_y:
            x = Jet.variable(0, pt.x, 4, max_order)
            y = Jet.variable(1, pt.y, 4, max_order)
            r = Jet.variable(2, pt.r, 4, max_order)
            t = Jet.variable(3, pt.t, 4, max_order)
            return self.fstar(x, y, r, t)
        x = Jet.variable(0, pt.x, 3, max_order)
        r = Jet.variable(1, pt.r, 3, max_order)
        t = Jet.variable(2, pt.t, 3, max_order)
        return self.fstar(x, pt.y, r, t)


def _as_metric(metric):
    if isinstance(metric, MetricParams):
        return KeplerCartanMetric(metric)
    return metric


def _var_indices(metric):
    """(ix, iy, ir, it) for the metric's jet variable convention."""
    if getattr(metric, "depends_on_y", False):
        return 0, 1, 2, 3
    return 0, None, 1, 2


def _mu(space_vars, index, order, second=None, second_order=1):
    mu = [0] * space_vars
    mu[index] = order
    if second is not None:
        mu[second] += second_order
    return tuple(mu)


def _cometric_entries(L, ir, it):
    nv = L.num_vars
    g11 = L.extract(_mu(nv, ir, 2))
    g12 = L.extract(_mu(nv, ir, 1, it))
    g22 = L.extract(_mu(nv, it, 2))
    return g11, g12, g22


def cometric_at(metric, pt):
    """Cometric block at ``pt``: fiber Hessian of L*, inverted analytically."""
    m = _as_metric(metric)
    ix, iy, ir, it = _var_indices(m)
    f = m.fstar_jet(pt, 2)
    L = 0.5 * f * f
    g11, g12, g22 = _cometric_entries(L, ir, it)
    det = g11 * g22 - g12 * g12
    if det <= 0.0:
        raise DegeneracyError(
            f"cometric determinant not positive at {pt}: det={det}"
        )
    return CometricBlock(
        g11=g11, g12=g12, g22=g22, det=det,
        inv11=g22 / det, inv12=-g12 / det, inv22=g11 / det,
    )


def legendre_fiber(metric, pt):
    """Tangent-side fiber coordinates ``(u, v) = (L*_r, L*_t)``.

    Asserts the inverse relation ``(r, t) = metric block applied to (u, v)``
    before returning; failure raises :class:`ConsistencyError`.
    """
    m = _as_metric(metric)
    ix, iy, ir, it = _var_indices(m)
    f = m.fstar_jet(pt, 2)
    L = 0.5 * f * f
    u = L.extract(_mu(L.num_vars, ir, 1))
    v = L.extract(_mu(L.num_vars, it, 1))
    block = cometric_at(metric, pt)
    r_back = block.inv11 * u + block.inv12 * v
    t_back = block.inv12 * u + block.inv22 * v
    scale = max(abs(pt.r), abs(pt.t), 1.0)
    if (
        abs(r_back - pt.r) > _RECONSTRUCTION_RTOL * scale
        or abs(t_back - pt.t) > _RECONSTRUCTION_RTOL * scale
    ):
        raise ConsistencyError(
            f"Legendre reconstruction failed at {pt}: "
            f"({r_back}, {t_back}) != ({pt.r}, {pt.t})"
        )
    return u, v


def spray_coeffs(metric, pt):
    """Spray coefficients ``(G, H_spray)`` from base derivatives of L*."""
    m = _as_metric(metric)
    ix, iy, ir, it = _var_indices(m)
    f = m.fstar_jet(pt, 2)
    L = 0.5 * f * f
    nv = L.num_vars
    g11, g12, g22 = _cometric_entries(L, ir, it)
    Lx = L.extract(_mu(nv, ix, 1))
    Lrx = L.extract(_mu(nv, ir, 1, ix))
    Ltx = L.extract(_mu(nv, it, 1, ix))
    if iy is None:
        Ly = Lry = Lty = 0.0
    else:
        Ly = L.extract(_mu(nv, iy, 1))
        Lry = L.extract(_mu(nv, ir, 1, iy))
        Lty = L.extract(_mu(nv, it, 1, iy))
    r, t = pt.r, pt.t
    two_g = (g11 * Lx + g12 * Ly) \
        - (g11 * Lrx + g12 * Lry) * r \
        - (g12 * Lrx + g22 * Lry) * t
    two_h = (g12 * Lx + g22 * Ly) \
        - (g12 * Ltx + g22 * Lty) * t \
        - (g11 * Ltx + g12 * Lty) * r
    return SprayPair(G=0.5 * two_g, H_spray=0.5 * two_h)


@dataclass(frozen=True)
class _CurvatureTerms:
    """Assembled curvature pieces; fields are scalars or batch arrays."""

    numerator: object
    u: object
    v: object
    det: object
    G: object
    H_spray: object


def _zero_like(jet):
    return Jet.constant(np.zeros(jet.coeffs.shape[1:]), jet.num_vars, jet.max_order)


def _assemble(L, ix, iy, ir, it, r0, t0):
    """Curvature numerator and diagnostics from the order-4 jet of L*.

    One jet evaluation feeds every sub-expression; derivative orders fall
    as quantities are differentiated, with explicit truncation wherever
    factors of different remaining order meet.
    """
    def dy(jet):
        return jet.derivative(iy) if iy is not None else _zero_like(
            jet.truncated(jet.max_order - 1)
        )

    Lr = L.derivative(ir)                 # order 3: the function u
    Lt = L.derivative(it)                 # order 3: the function v
    gi11 = Lr.derivative(ir)              # order 2 cometric entries
    gi12 = Lr.derivative(it)
    gi22 = Lt.derivative(it)
    det = gi11 * gi22 - gi12 * gi12

    det0 = np.asarray(det.coeffs[0])
    bad_det = det0 <= 0.0
    if np.any(bad_det):
        # Shift degenerate lanes to a harmless dummy so the batch can
        # proceed; their results are discarded via the returned det.
        shift = np.where(bad_det, 1.0 - det0, 0.0)
        det = det + shift
    det_inv = det.reciprocal()
    g11 = gi22 * det_inv                  # metric coefficients, order 2
    g12 = -(gi12 * det_inv)
    g22 = gi11 * det_inv

    Lx = L.derivative(ix).truncated(2)
    Ly = dy(L).truncated(2)
    Lrx = Lr.derivative(ix)
    Ltx = Lt.derivative(ix)
    Lry = dy(Lr)
    Lty = dy(Lt)
    r_jet = Jet.variable(ir, r0, L.num_vars, 2)
    t_jet = Jet.variable(it, t0, L.num_vars, 2)

    G = 0.5 * (
        gi11 * Lx + gi12 * Ly
        - r_jet * (gi11 * Lrx + gi12 * Lry)
        - t_jet * (gi12 * Lrx + gi22 * Lry)
    )
    H = 0.5 * (
        gi12 * Lx + gi22 * Ly
        - t_jet * (gi12 * Ltx + gi22 * Lty)
        - r_jet * (gi11 * Ltx + gi12 * Lty)
    )

    Gar = G.derivative(ir)                # order 1
    Gat = G.derivative(it)
    Gu = Gar * g11.truncated(1) + Gat * g12.truncated(1)
    Gv = Gar * g12.truncated(1) + Gat * g22.truncated(1)

    ge11, ge12, ge22 = g11.coeffs[0], g12.coeffs[0], g22.coeffs[0]
    u0, v0 = Lr.coeffs[0], Lt.coeffs[0]

    Gur = Gu.derivative(ir).coeffs[0]
    Gut = Gu.derivative(it).coeffs[0]
    Guu = Gur * ge11 + Gut * ge12
    Guv = Gur * ge12 + Gut * ge22

    # (dG_v/dx) at frozen (y, u, v): chain-rule correction through the
    # x-dependence of the metric coefficients.
    Gvx = Gv.derivative(ix).coeffs[0]
    Gvr = Gv.derivative(ir).coeffs[0]
    Gvt = Gv.derivative(it).coeffs[0]
    drdx = g11.derivative(ix).coeffs[0] * u0 + g12.derivative(ix).coeffs[0] * v0
    dtdx = g12.derivative(ix).coeffs[0] * u0 + g22.derivative(ix).coeffs[0] * v0
    Gxv = Gvx + Gvr * drdx + Gvt * dtdx

    # (dG_u/dy) at frozen (x, u, v); identically zero without y-dependence.
    Guy = dy(Gu).coeffs[0]
    drdy = dy(g11).coeffs[0] * u0 + dy(g12).coeffs[0] * v0
    dtdy = dy(g12).coeffs[0] * u0 + dy(g22).coeffs[0] * v0
    Gyu = Guy + Gur * drdy + Gut * dtdy

    Hr = H.derivative(ir).coeffs[0]
    Ht = H.derivative(it).coeffs[0]
    Hu = Hr * ge11 + Ht * ge12

    G0 = G.coeffs[0]
    H0 = H.coeffs[0]
    Gu0 = Gu.coeffs[0]
    Gv0 = Gv.coeffs[0]

    numerator = (Gxv - Gyu) * v0 + 2.0 * G0 * Guu + 2.0 * H0 * Guv \
        - Gu0 * Gu0 - Gv0 * Hu
    return _CurvatureTerms(
        numerator=numerator, u=u0, v=v0, det=det0, G=G0, H_spray=H0,
    )


def flag_curvature(metric, pt):
    """Flag curvature at one phase point, as a :class:`CurvatureSample`.

    Domain violations and a vanishing denominator ``v * t`` are reported in
    the sample's status instead of raising.
    """
    m = _as_metric(metric)
    validate = getattr(m, "validate", None)
    if validate is not None:
        status = validate(pt)
        if not status.ok:
            return CurvatureSample(pt, None, "domain_error", status.reason)
    ix, iy, ir, it = _var_indices(m)
    # Overflow far out in x turns coefficients into inf/NaN; such points
    # end as nonfinite_result, so the floating-point warnings are noise.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        try:
            f = m.fstar_jet(pt, 4)
        except DomainError as exc:
            return CurvatureSample(pt, None, "domain_error", str(exc))
        L = 0.5 * f * f
        terms = _assemble(L, ix, iy, ir, it, pt.r, pt.t)
    det = float(np.asarray(terms.det))
    if det <= 0.0:
        return CurvatureSample(pt, None, "domain_error", "degenerate_cometric")
    vt = float(np.asarray(terms.v)) * pt.t
    if abs(vt) < SINGULAR_V_TOL:
        return CurvatureSample(pt, None, "singular_v", f"v*t={vt}")
    K = float(np.asarray(terms.numerator)) / vt
    if not math.isfinite(K):
        return CurvatureSample(pt, None, "domain_error", "nonfinite_result")
    return CurvatureSample(pt, K, "ok")


def _kepler_flag_batch(params, x, r, t):
    """Curvature over prevalidated coordinate arrays of the built-in family.

    Returns ``(K, vt, det)``; callers classify lanes with ``det <= 0`` or
    ``|vt| < SINGULAR_V_TOL`` themselves.
    """
    # Lanes that overflow end as nonfinite_result, as in flag_curvature.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f = _fstar_jet_batch(params, x, r, t, 4)
        L = 0.5 * f * f
        terms = _assemble(L, 0, None, 1, 2, r, t)
        vt = terms.v * t
        K = terms.numerator / vt
    return K, vt, terms.det


# ----------------------------------------------------------------------
# Closed-form oracle along the fiber ray (r, t) = (0, x) at rotation rate 1.


def closed_form_radicand(c, x):
    """Radicand ``x^4 + 4x^2 c + 4c^2 - 16x`` of the closed form's root."""
    return x**4 + 4.0 * x**2 * c + 4.0 * c**2 - 16.0 * x


def _bracket_plain(x, c):
    """Monomials of the closed-form bracket that carry no root factor.

    Written term by term in a fixed reference order; a second, structurally
    independent transcription lives in the test suite and the two are
    compared exactly over rationals before anything else trusts this one.
    """
    return (
        5824 * x**2 * c**4
        - 5888 * x**3 * c**5
        - 3840 * x**2 * c
        - 2240 * c**6 * x
        - 6320 * x**5 * c**4
        + 1120 * x**6 * c**5
        + 2 * x**14 * c
        + 28 * x**12 * c**2
        - 6528 * x**5 * c
        + 256 * c**8
        + 896 * x**2 * c**7
        - 1296 * x**7
        + 204 * x**10
        - 768 * c**5
        - 9 * x**13
        + 2096 * x**8 * c
        - 160 * x**11 * c
        - 1060 * c**2 * x**9
        - 3520 * c**3 * x**7
        + 11520 * x**4 * c**3
        + 3840 * c**3 * x
        + 7584 * x**6 * c**2
        - 5952 * x**3 * c**2
        + 1920 * x**4
        + 168 * x**10 * c**3
        + 1344 * x**4 * c**6
        + 560 * x**8 * c**4
    )


def _bracket_alpha(x, c):
    """Coefficient polynomial of the root factor in the closed-form bracket."""
    return (
        -384 * x**2
        - 864 * c**5 * x
        - 1872 * c**4 * x**3
        - 648 * x**7 * c**2
        - 126 * x**9 * c
        - 1120 * x**3 * c
        + 2448 * x**4 * c**2
        + 1152 * c**2 * x
        + 1032 * x**6 * c
        - 1584 * x**5 * c**3
        + 1632 * c**3 * x**2
        + 128 * c**7
        + 384 * c**6 * x**2
        - 9 * x**11
        + 2 * x**12 * c
        + 132 * x**8
        + 320 * x**6 * c**4
        + 120 * x**8 * c**3
        + 24 * x**10 * c**2
        + 480 * c**5 * x**4
        - 528 * x**5
        - 384 * c**4
    )


def flag_curvature_closed_form(c, x, dps=50):
    """Closed-form flag curvature at ``(x, 0, 0, x)`` for rotation rate 1.

    Valid for negative ``x`` as well.  Evaluated with ``dps`` decimal digits
    internally: near the zero set of the radicand the bracket loses most of
    its leading digits to cancellation, so double precision is not enough.
    """
    beta_check = closed_form_radicand(float(c), float(x))
    if beta_check < 0.0:
        raise DomainError(
            f"closed-form radicand is negative at (c={c}, x={x}): {beta_check}",
            value=beta_check,
        )
    with mp.workdps(dps):
        xm = mpf(float(x))
        cm = mpf(float(c))
        beta = xm**4 + 4 * xm**2 * cm + 4 * cm**2 - 16 * xm
        if beta == 0:
            raise DomainError(
                f"closed-form denominator vanishes at (c={c}, x={x})", value=0.0
            )
        alpha = mp_sqrt(beta)
        denom = (
            (xm**2 + 2 * cm + alpha)
            * (xm**2 * alpha + 2 * cm * alpha
               + xm**4 + 4 * xm**2 * cm + 4 * cm**2 - 8 * xm)
            * beta**2
        )
        if denom == 0:
            raise DomainError(
                f"closed-form denominator vanishes at (c={c}, x={x})", value=0.0
            )
        bracket = _bracket_plain(xm, cm) + alpha * _bracket_alpha(xm, cm)
        return float(2 * bracket / denom)
