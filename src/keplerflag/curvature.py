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

A metric is either the built-in family itself, a
:class:`~keplerflag.metric.MetricParams`, or a :class:`CallbackCartanMetric`.
The family does not depend on ``y``: its jets are taken in ``(x, r, t)`` and
the assembly leaves out every ``y``-derivative term.  A callback receives
jets of ``(x, y, r, t)``.  :func:`_terms` is the one place that tells the
two apart for the jets, and only the family has a domain classifier.

One evaluator serves point queries and scans: the domain classifier of
:mod:`keplerflag.metric`, the kernel on the lanes it admits, and the
kernel's verdicts, all over arrays of any shape.  A point query is the
0-d case, a scan row a lane of a 1-d block, and both get the same status
and reason.  On arrays the built-in family's kernel replays an operation
tape (:mod:`keplerflag.tape`), its jet arithmetic recorded once per
process, with the jets' bits; 0-d arrays and callbacks run the jets.  A
point's ``K`` and a row's can differ in the last bits: ``Jet.power`` takes
``c0**e`` with libm's ``pow`` on a NumPy scalar but with NumPy's own
vectorised ``pow`` on an array, as the tape does, and the two round
differently (970 of 20,000 uniform draws on ``[0.1, 100]`` at ``e =
-1.5``).  On the 64x64 ``c = 1.55`` lattice over ``x in [-3, 3]``, 1,745
of 4,096 values differ, by at most 5.6e-11 relative.

A transcription of the closed-form curvature along the fiber ray
``(r, t) = (0, x)`` at rotation rate 1 serves as the independent oracle; it
is evaluated in extended precision because the expression cancels
catastrophically near the zero set of its radicand.  Its two bracket
polynomials and its denominator read ``x**k`` and ``c**k`` from power
tables built once per call: the integer powers were most of the oracle's
cost, and each table entry is the same once-rounded ``mpf`` power a term
would take itself, so the oracle's value does not move.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np
from mpmath import mp, mpf
from mpmath import sqrt as mp_sqrt

from .errors import DegeneracyError, DomainError
from .jets import Jet
from .metric import (
    DEGENERATE_COMETRIC,
    DENOMINATOR_BELOW_TOLERANCE,
    NONFINITE_RESULT,
    OK,
    VERDICTS,
    MetricParams,
    PhasePoint,
    _first_broken,
    _fstar_expr,
    _fstar_jet_batch,
    _variables,
    classify,
)

__all__ = [
    "CurvatureSample",
    "CurvatureTerms",
    "CallbackCartanMetric",
    "SINGULAR_V_TOL",
    "curvature_terms",
    "flag_curvature",
    "flag_curvature_closed_form",
    "closed_form_radicand",
]

# |v * t| below this threshold makes the curvature formula's denominator
# numerically meaningless; such points are reported, not evaluated.
SINGULAR_V_TOL = 1e-12


@dataclass(frozen=True)
class CurvatureSample:
    """A phase point with its flag curvature, or the reason there is none."""

    point: PhasePoint
    K: float | None
    status: str  # VERDICTS[code][0]
    reason: str | None = None

    @property
    def ok(self):
        return self.status == "ok"


@dataclass(frozen=True)
class CallbackCartanMetric:
    """Extension hook: a user fundamental function evaluated on jets.

    ``fstar`` receives jets of ``(x, y, r, t)`` and must return the
    fundamental-function jet built with jet arithmetic only.  A callback has
    no domain rules: a point where its jets raise is ``nonfinite_result``.
    """

    fstar: Callable


def _terms(metric, x, y, r, t):
    """:func:`_assemble`'s terms from the order-4 jet of ``L*`` at
    coordinates that may be arrays of one shape: jets in ``(x, r, t)`` for
    the built-in family, in ``(x, y, r, t)`` for a callback."""
    if isinstance(metric, MetricParams):
        f, indices = _fstar_jet_batch(metric, x, r, t), (0, None, 1, 2)
    else:
        f, indices = metric.fstar(*_variables((x, y, r, t), 4)), (0, 1, 2, 3)
    return _assemble(0.5 * f * f, *indices, r, t)


@dataclass(frozen=True)
class CurvatureTerms:
    """Assembled curvature pieces; fields are scalars or batch arrays.

    ``g11, g12, g22`` are the cometric entries (the fiber Hessian of ``L*``)
    and ``det`` their determinant, unshifted; the metric block is their
    inverse, ``(g22, -g12, g11) / det``.  ``u, v`` are the tangent fiber
    coordinates ``(L*_r, L*_t)``, ``G, H_spray`` the spray coefficients, and
    ``K = numerator / (v t)``.
    """

    g11: object
    g12: object
    g22: object
    det: object
    u: object
    v: object
    G: object
    H_spray: object
    numerator: object


def curvature_terms(metric, pt):
    """:class:`CurvatureTerms` at one phase point, as floats.

    A DomainError message starts with a reason code: the :func:`classify`
    verdict of a point it rejects (built-in family only), or
    ``nonfinite_result`` where the jets raise.  ``det <= 0`` raises
    DegeneracyError."""
    if isinstance(metric, MetricParams):
        code = int(classify(metric, pt.x, pt.r, pt.t)[0])
        if code != OK:
            raise DomainError(f"{VERDICTS[code][1]} at {pt}")
    try:
        terms = _terms(metric, pt.x, pt.y, pt.r, pt.t)
    except DomainError as exc:
        raise DomainError(f"nonfinite_result at {pt}: {exc}", exc.value) from exc
    terms = CurvatureTerms(*(float(v) for v in astuple(terms)))
    if terms.det <= 0.0:
        raise DegeneracyError(f"degenerate_cometric at {pt}: det={terms.det}")
    return terms


def _assemble(L, ix, iy, ir, it, r0, t0):
    """Curvature numerator and diagnostics from the order-4 jet of L*.

    One jet evaluation feeds every sub-expression; derivative orders fall
    as quantities are differentiated, with explicit truncation wherever
    factors of different remaining order meet.  Without ``y`` (``iy`` is
    None) every term carrying a ``y``-derivative is zero and is left out.
    """
    Lr = L.derivative(ir)                 # order 3: the function u
    Lt = L.derivative(it)                 # order 3: the function v
    gi11 = Lr.derivative(ir)              # order 2 cometric entries
    gi12 = Lr.derivative(it)
    gi22 = Lt.derivative(it)
    det = gi11 * gi22 - gi12 * gi12

    # Give degenerate lanes the dummy determinant 1 so the batch can
    # proceed; their results are discarded via the returned det.
    det0 = det.coeffs[0]
    coeffs = det.coeffs.copy()
    coeffs[0] = np.where(det0 <= 0.0, 1.0, det0)
    det_inv = Jet(det._space, coeffs).reciprocal()
    g11 = gi22 * det_inv                  # metric coefficients, order 2
    g12 = -(gi12 * det_inv)
    g22 = gi11 * det_inv

    Lx = L.derivative(ix).truncated(2)
    Lrx = Lr.derivative(ix)
    Ltx = Lt.derivative(ix)
    r_jet = Jet.variable(ir, r0, L.num_vars, 2)
    t_jet = Jet.variable(it, t0, L.num_vars, 2)

    # The spray formulas of the module docstring, each bracket built up
    # from its x-terms.
    G_x, G_r, G_t = gi11 * Lx, gi11 * Lrx, gi12 * Lrx
    H_x, H_t, H_r = gi12 * Lx, gi12 * Ltx, gi11 * Ltx
    if iy is not None:
        Ly = L.derivative(iy).truncated(2)
        Lry = Lr.derivative(iy)
        Lty = Lt.derivative(iy)
        G_x, G_r, G_t = G_x + gi12 * Ly, G_r + gi12 * Lry, G_t + gi22 * Lry
        H_x, H_t, H_r = H_x + gi22 * Ly, H_t + gi22 * Lty, H_r + gi12 * Lty
    G = 0.5 * (G_x - r_jet * G_r - t_jet * G_t)
    H = 0.5 * (H_x - t_jet * H_t - r_jet * H_r)

    Gar = G.derivative(ir)                # order 1
    Gat = G.derivative(it)
    Gu = Gar * g11.truncated(1) + Gat * g12.truncated(1)
    Gv = Gar * g12.truncated(1) + Gat * g22.truncated(1)

    ge11, ge12, ge22 = g11.coeffs[0], g12.coeffs[0], g22.coeffs[0]
    u0, v0 = Lr.coeffs[0], Lt.coeffs[0]

    # A first derivative at the point is the first-order coefficient
    # (derivative() scales it by 1), so these reads build no jets.
    unit = L._space.unit
    dx, dr, dt = unit[ix], unit[ir], unit[it]
    Gur = Gu.coeffs[dr]
    Gut = Gu.coeffs[dt]
    Guu = Gur * ge11 + Gut * ge12
    Guv = Gur * ge12 + Gut * ge22

    # (dG_v/dx) at frozen (y, u, v): chain-rule correction through the
    # x-dependence of the metric coefficients.
    Gvx = Gv.coeffs[dx]
    Gvr = Gv.coeffs[dr]
    Gvt = Gv.coeffs[dt]
    drdx = g11.coeffs[dx] * u0 + g12.coeffs[dx] * v0
    dtdx = g12.coeffs[dx] * u0 + g22.coeffs[dx] * v0
    Gxv = Gvx + Gvr * drdx + Gvt * dtdx

    # (dG_u/dy) at frozen (x, u, v).
    Gyu = 0.0
    if iy is not None:
        dy = unit[iy]
        Guy = Gu.coeffs[dy]
        drdy = g11.coeffs[dy] * u0 + g12.coeffs[dy] * v0
        dtdy = g12.coeffs[dy] * u0 + g22.coeffs[dy] * v0
        Gyu = Guy + Gur * drdy + Gut * dtdy

    Hr = H.coeffs[dr]
    Ht = H.coeffs[dt]
    Hu = Hr * ge11 + Ht * ge12

    G0 = G.coeffs[0]
    H0 = H.coeffs[0]
    Gu0 = Gu.coeffs[0]
    Gv0 = Gv.coeffs[0]

    numerator = (Gxv - Gyu) * v0 + 2.0 * G0 * Guu + 2.0 * H0 * Guv \
        - Gu0 * Gu0 - Gv0 * Hu
    return CurvatureTerms(
        g11=gi11.coeffs[0], g12=gi12.coeffs[0], g22=gi22.coeffs[0], det=det0,
        u=u0, v=v0, G=G0, H_spray=H0, numerator=numerator,
    )


def _flag(terms, t):
    """``(K, vt, det)`` from the assembled terms."""
    vt = terms.v * t
    return terms.numerator / vt, vt, terms.det


def _flag_batch(metric, x, y, r, t):
    """``(K, vt, det)`` of any metric over coordinate arrays, from its jets."""
    # Lanes that overflow end as nonfinite_result: the warnings are noise.
    with np.errstate(all="ignore"):
        return _flag(_terms(metric, x, y, r, t), t)


@lru_cache(maxsize=None)
def _kernel_tape():
    """:func:`_flag_batch`'s arithmetic for the built-in family as a tape with
    inputs ``(x, r, t, a, c)``, recorded once for every parameter pair."""
    from . import tape  # on the first array call: point queries never load it

    def kernel(x, r, t, a, c):
        f = _fstar_expr(*_variables((x, r, t), 4), a, c)
        return _flag(_assemble(0.5 * f * f, 0, None, 1, 2, r, t), t)

    return tape.record(kernel, 5)


def _kepler_flag_batch(params, x, r, t):
    """Curvature of the built-in family over coordinate arrays it admits.

    Returns ``(K, vt, det)``; :func:`_evaluate` turns ``det <= 0`` and
    ``|vt| < SINGULAR_V_TOL`` into verdicts.  Arrays replay the tape, and
    the jets run the lanes its guard fails and a lone lane it raises on;
    0-d arrays run the jets.
    """
    if np.ndim(x) == 0:
        return _flag_batch(params, x, 0.0, r, t)
    try:
        with np.errstate(all="ignore"):
            *out, exact = _kernel_tape().replay(x, r, t, params.a, params.c)
    except DomainError:
        if np.size(x) > 1:
            raise  # _guarded bisects down to the lanes that fail
        return _flag_batch(params, x, 0.0, r, t)
    if not exact.all():
        lanes = ~exact
        for column, jets in zip(out, _flag_batch(params, x[lanes], 0.0, r[lanes], t[lanes])):
            column[lanes] = jets
    return tuple(out)


def _guarded(kernel, *columns):
    """``kernel(*columns)``, with NaN for a lane whose jets raise.

    Jets, and the tape, check a whole block at once, so one lane whose
    constant term underflows to zero (say ``x = 1e-200``) raises
    DomainError for all of them.  The block is then split in halves, and
    each half guarded in turn, down to single lanes.  A lane's bits do not
    depend on the block it runs in, so the other lanes keep theirs while
    staying batched, and the failing lane ends as ``nonfinite_result``.
    """
    try:
        return kernel(*columns)
    except DomainError:
        shape = np.shape(columns[0])
        if columns[0].size == 1:
            nan = np.full(shape, np.nan)
            return nan, nan, nan
        flat = [c.ravel() for c in np.broadcast_arrays(*columns)]
        mid = flat[0].size // 2
        halves = [_guarded(kernel, *(c[s] for c in flat))
                  for s in (slice(None, mid), slice(mid, None))]
        return tuple(np.concatenate(v).reshape(shape) for v in zip(*halves))


def _evaluate(metric, x, y, r, t, exclude_band=0.0):
    """Flag curvature and verdict codes over coordinate arrays of one shape.

    The one evaluator behind point queries (0-d arrays) and scans: the
    domain classifier (built-in family only), the kernel on the lanes it
    admits, then the kernel's verdicts.  Returns ``(K, code)``, with ``K``
    NaN wherever ``code`` is not ``OK``; ``VERDICTS[code]`` is the
    ``(status, reason)`` pair.
    """
    x, y, r, t = (np.asarray(v, dtype=float) for v in (x, y, r, t))
    if isinstance(metric, MetricParams):
        code = classify(metric, x, r, t, exclude_band)[0]
        kernel, columns = partial(_kepler_flag_batch, metric), (x, r, t)
    else:
        code = np.zeros(x.shape, np.int8)
        kernel, columns = partial(_flag_batch, metric), (x, y, r, t)
    K = np.full(x.shape, np.nan)
    lanes = code == OK
    if not lanes.any():
        return K, code
    if lanes.all():
        lanes = ...  # no gather: a point query stays 0-d
    Kl, vt, det = _guarded(kernel, *(c[lanes] for c in columns))
    verdict = _first_broken([
        (DEGENERATE_COMETRIC, det <= 0.0),
        (DENOMINATOR_BELOW_TOLERANCE, np.abs(vt) < SINGULAR_V_TOL),
        (NONFINITE_RESULT, ~np.isfinite(Kl)),
    ], np.shape(Kl))
    code[lanes] = verdict
    K[lanes] = np.where(verdict == OK, Kl, np.nan)
    return K, code


def flag_curvature(metric, pt):
    """Flag curvature at one phase point, as a :class:`CurvatureSample`.

    The evaluator on 0-d arrays: domain violations and a vanishing
    denominator ``v * t`` are reported in the sample's status instead of
    raising.
    """
    K, code = _evaluate(metric, pt.x, pt.y, pt.r, pt.t)
    status, reason = VERDICTS[code]
    return CurvatureSample(pt, float(K) if code == OK else None, status, reason)


# ----------------------------------------------------------------------
# Closed-form oracle along the fiber ray (r, t) = (0, x) at rotation rate 1.


def closed_form_radicand(c, x):
    """Radicand ``x^4 + 4x^2 c + 4c^2 - 16x`` of the closed form's root."""
    return x**4 + 4.0 * x**2 * c + 4.0 * c**2 - 16.0 * x


def _powers(z, n):
    """``[1, z, z**2, ..., z**n]``, each entry one ``z**k``.

    mpmath forms an integer power exactly and rounds it once, so an entry
    is the value a term's own ``z**k`` would take; powers by repeated
    multiplication would round at every step.  Two tables serve a whole
    closed-form call: 20 integer powers of ``x`` and ``c`` in place of 81.
    """
    return [1, z] + [z**k for k in range(2, n + 1)]


def _bracket_plain(xp, cp):
    """Monomials of the closed-form bracket that carry no root factor.

    ``xp[k]`` and ``cp[k]`` are ``x**k`` and ``c**k`` (:func:`_powers`, up
    to 14 and 8).  Written term by term in a fixed reference order; a
    second, structurally independent transcription lives in the test suite
    and the two are compared exactly over rationals before anything else
    trusts this one.
    """
    x, c = xp[1], cp[1]
    return (
        5824 * xp[2] * cp[4]
        - 5888 * xp[3] * cp[5]
        - 3840 * xp[2] * c
        - 2240 * cp[6] * x
        - 6320 * xp[5] * cp[4]
        + 1120 * xp[6] * cp[5]
        + 2 * xp[14] * c
        + 28 * xp[12] * cp[2]
        - 6528 * xp[5] * c
        + 256 * cp[8]
        + 896 * xp[2] * cp[7]
        - 1296 * xp[7]
        + 204 * xp[10]
        - 768 * cp[5]
        - 9 * xp[13]
        + 2096 * xp[8] * c
        - 160 * xp[11] * c
        - 1060 * cp[2] * xp[9]
        - 3520 * cp[3] * xp[7]
        + 11520 * xp[4] * cp[3]
        + 3840 * cp[3] * x
        + 7584 * xp[6] * cp[2]
        - 5952 * xp[3] * cp[2]
        + 1920 * xp[4]
        + 168 * xp[10] * cp[3]
        + 1344 * xp[4] * cp[6]
        + 560 * xp[8] * cp[4]
    )


def _bracket_alpha(xp, cp):
    """Coefficient polynomial of the root factor in the closed-form bracket,
    over the power tables of :func:`_bracket_plain` (up to 12 and 7)."""
    x, c = xp[1], cp[1]
    return (
        -384 * xp[2]
        - 864 * cp[5] * x
        - 1872 * cp[4] * xp[3]
        - 648 * xp[7] * cp[2]
        - 126 * xp[9] * c
        - 1120 * xp[3] * c
        + 2448 * xp[4] * cp[2]
        + 1152 * cp[2] * x
        + 1032 * xp[6] * c
        - 1584 * xp[5] * cp[3]
        + 1632 * cp[3] * xp[2]
        + 128 * cp[7]
        + 384 * cp[6] * xp[2]
        - 9 * xp[11]
        + 2 * xp[12] * c
        + 132 * xp[8]
        + 320 * xp[6] * cp[4]
        + 120 * xp[8] * cp[3]
        + 24 * xp[10] * cp[2]
        + 480 * cp[5] * xp[4]
        - 528 * xp[5]
        - 384 * cp[4]
    )


def flag_curvature_closed_form(c, x, dps=50):
    """Closed-form flag curvature at ``(x, 0, 0, x)`` for rotation rate 1.

    Valid for negative ``x`` as well.  Evaluated with ``dps`` decimal digits
    internally: near the zero set of the radicand the bracket loses most of
    its leading digits to cancellation, so double precision is not enough.
    """
    if not (math.isfinite(c) and math.isfinite(x)):
        raise DomainError(f"closed form needs finite c and x, got (c={c}, x={x})")
    try:
        beta_check = closed_form_radicand(float(c), float(x))
    except OverflowError as exc:  # x**4 or c**2 beyond the float range
        raise DomainError(f"closed-form radicand overflows at (c={c}, x={x})") from exc
    if beta_check < 0.0:
        raise DomainError(
            f"closed-form radicand is negative at (c={c}, x={x}): {beta_check}",
            value=beta_check,
        )
    with mp.workdps(dps):
        xm = mpf(float(x))
        cm = mpf(float(c))
        xp, cp = _powers(xm, 14), _powers(cm, 8)
        beta = xp[4] + 4 * xp[2] * cm + 4 * cp[2] - 16 * xm
        if beta == 0:
            raise DomainError(
                f"closed-form denominator vanishes at (c={c}, x={x})", value=0.0
            )
        alpha = mp_sqrt(beta)
        denom = (
            (xp[2] + 2 * cm + alpha)
            * (xp[2] * alpha + 2 * cm * alpha
               + xp[4] + 4 * xp[2] * cm + 4 * cp[2] - 8 * xm)
            * beta**2
        )
        if denom == 0:
            raise DomainError(
                f"closed-form denominator vanishes at (c={c}, x={x})", value=0.0
            )
        bracket = _bracket_plain(xp, cp) + alpha * _bracket_alpha(xp, cp)
        return float(2 * bracket / denom)
