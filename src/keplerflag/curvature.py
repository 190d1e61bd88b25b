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
:mod:`keplerflag.metric`, the kernel where it admits, and the kernel's
verdicts, each rule list evaluated on floats for a point and on arrays
for a block, so a point query and a scan row get the same status and
reason.  The classifier's band ``|x| < CHART_BAND`` around the polar
chart's singularity is one of its rules, not an option, so no query
reaches the kernel where the chart has lost the digits of ``K``.  Every
metric's kernel is an operation tape (:mod:`keplerflag.tape`), its jet
arithmetic recorded once per process
with the jets' bits: one for the built-in family and every parameter
pair, one for each callback.  Arrays replay it, and point queries run it
emitted as Python over floats, all but the built-in family's first and
those where it raises, which run the jets on 0-d arrays.  A point query
is one frame, :func:`_evaluate`, from the coordinates' floats to the
verdict: it calls the classifier's rules, the emitted pieces and the
kernel's verdicts, and no plumbing between them.  A point's
``K`` and a row's can differ in the last bits: ``Jet.power`` takes
``c0**e`` with libm's ``pow`` on a NumPy scalar, as the emitted tape does,
but with NumPy's own vectorised ``pow`` on an array, as the replay does,
and the two round differently (970 of 20,000 uniform draws on
``[0.1, 100]`` at ``e = -1.5``).  On the 64x64 ``c = 1.55`` lattice over
``x in [-3, 3]``, 1,745 of 4,096 values differ, by at most 5.6e-11 relative.

A transcription of the closed-form curvature along the fiber ray
``(r, t) = (0, x)`` at rotation rate 1 serves as the independent oracle.
The expression cancels catastrophically near the zero set of its
radicand, so it is evaluated in Python integers.  Float inputs are dyadic
rationals: scaled by a common power of two, the two bracket polynomials,
the radicand and every factor of the denominator but the root are exact
integers, and the root, the one irrational number, is an integer square
root carried to as many bits as asked.  The oracle's value is the one
rounding of an integer quotient, correct but for that root's error.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError
from .jets import Jet
from .metric import (
    DEGENERATE_COMETRIC,
    DENOMINATOR_BELOW_TOLERANCE,
    NONFINITE_RESULT,
    OK,
    VERDICTS,
    MetricParams,
    PhasePoint,
    _classify,
    _first_broken,
    _fstar_jet_batch,
    _is_point,
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
    fundamental-function jet built with jet arithmetic only: its first block
    or point query records it on a tape, where a comparison can only take
    ``np.any`` and a branch on one raises TypeError.  A callback has no
    domain rules: a point where a jet check fails is ``nonfinite_result``.
    """

    fstar: Callable


def _kernel_inputs(metric, x, y, r, t):
    """``metric``'s :class:`_Kernel` and its inputs: ``(x, r, t, a, c)`` for
    the built-in family, ``(x, y, r, t)`` for a callback."""
    if isinstance(metric, MetricParams):
        return _FAMILY, (x, r, t, metric.a, metric.c)
    return _callback_kernel(metric.fstar), (x, y, r, t)


def _terms(kernel, inputs):
    """:func:`_assemble`'s terms, and ``t``, from the order-4 jet of ``L*``
    over a kernel's inputs, numbers, arrays of one shape or tape nodes: jets
    in ``(x, r, t)`` for the built-in family, in ``(x, y, r, t)`` for a
    callback."""
    if kernel.fstar is None:
        r, t = inputs[1:3]
        f, indices = _fstar_jet_batch(*inputs), (0, None, 1, 2)
    else:
        r, t = inputs[2:]
        f, indices = kernel.fstar(*_variables(inputs, 4)), (0, 1, 2, 3)
    return _assemble(0.5 * f * f, *indices, r, t), t


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

    The evaluator's rules, in :data:`VERDICTS` order: the :func:`classify`
    verdict of a point it rejects (built-in family only), then
    ``degenerate_cometric`` (``det <= 0``) and ``nonfinite_result`` (the
    jets raise, or a term is not finite).  A broken rule raises DomainError
    whose message starts with its reason code."""
    if isinstance(metric, MetricParams):
        code = classify(metric, pt.x, pt.r, pt.t)[0]
        if code != OK:
            raise DomainError(f"{VERDICTS[code][1]} at {pt}")
    with np.errstate(all="ignore"):  # a term that overflows is nonfinite_result
        try:
            terms = _terms(*_kernel_inputs(metric, pt.x, pt.y, pt.r, pt.t))[0]
        except DomainError as exc:
            raise DomainError(f"nonfinite_result at {pt}: {exc}", exc.value) from exc
    terms = CurvatureTerms(*(float(v) for v in astuple(terms)))
    code = _first_broken([(DEGENERATE_COMETRIC, terms.det <= 0.0),
                          (NONFINITE_RESULT, not all(map(math.isfinite, astuple(terms))))])
    if code != OK:
        raise DomainError(f"{VERDICTS[code][1]} at {pt}: {terms}")
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
        return _flag(*_terms(*_kernel_inputs(metric, x, y, r, t)))


class _Kernel:
    """A metric's tape of :func:`_flag_batch`'s arithmetic, recorded at its
    first use, and emitted as Python over floats for point queries.

    ``warm``: whether a point query runs the emitted tape.  The family's
    first runs the jets: on a 2-vCPU Xeon that takes 3-7 ms in a fresh
    interpreter, where recording takes about 20 ms and emitting about
    12 ms, and a warm query about 40 us.  A process that makes one query,
    such as `keplerflag point`, should not pay for the tape.  A callback's
    first records, so one that is not jet arithmetic fails at once."""

    def __init__(self, fstar=None):
        self.fstar, self.warm = fstar, fstar is not None

    @cached_property
    def tape(self):
        from . import tape  # on the first array call or point query that runs it

        n = 5 if self.fstar is None else 4
        with np.errstate(all="ignore"):  # a degenerate callback folds 0 / 0
            try:
                return tape.record(lambda *inputs: _flag(*_terms(self, inputs)), n)
            except DomainError:  # a jet check failed on a number, so on every lane
                return tape.record(lambda *inputs: (math.nan,) * 3, n)

    @cached_property
    def emitted(self):
        return self.tape.emit()


# The built-in family's kernel, one for every parameter pair, and those of
# the 16 callbacks last used: the round sphere's holds 240 kB with its
# emitted program, so 16 stay within about 4 MB.
_FAMILY = _Kernel()
_callback_kernel = lru_cache(maxsize=16)(_Kernel)


def _kepler_flag_batch(metric, x, y, r, t):
    """``(K, vt, det)``, for :func:`_verdict`, of any metric over coordinate
    arrays of one shape (for the built-in family, lanes its classifier
    admits).  The arrays replay the metric's tape, which raises nothing: a
    lane that fails a check is NaN, the jets' answer there, and the jets run
    the lanes its guard fails."""
    kernel, inputs = _kernel_inputs(metric, x, y, r, t)
    with np.errstate(all="ignore"):
        *out, exact = kernel.tape.replay(*inputs)
    if not exact.all():
        lanes = ~exact
        # the tape's checks passed on these lanes, so the jets raise nothing
        for column, jets in zip(out, _flag_batch(*_on_lanes(lanes, metric, x, y, r, t))):
            column[lanes] = jets
    return tuple(out)


def _on_lanes(lanes, metric, *coords):
    """``metric`` and coordinate arrays of one shape on the lanes ``lanes``
    picks: the built-in family's lane arrays of ``a`` and ``c`` go too."""
    if isinstance(metric, MetricParams) and (np.ndim(metric.a) or np.ndim(metric.c)):
        shape = coords[0].shape
        metric = MetricParams(*(np.broadcast_to(v, shape)[lanes] for v in (metric.a, metric.c)))
    return (metric, *(c[lanes] for c in coords))


def _verdict(K, vt, det):
    """The kernel's verdict codes, on floats or on arrays."""
    return _first_broken([(DEGENERATE_COMETRIC, det <= 0.0),
                          (DENOMINATOR_BELOW_TOLERANCE, abs(vt) < SINGULAR_V_TOL),
                          (NONFINITE_RESULT, (K != K) | (abs(K) == math.inf))])


def _evaluate(metric, x, y, r, t):
    """Flag curvature and verdict codes at a point (numbers: a float and an
    int) or over lane arrays of one shape, ``a`` and ``c`` too (arrays of it).

    The one evaluator behind point queries and scans: the domain classifier
    (built-in family only), the kernel where it admits, then the kernel's
    verdicts.  ``K`` is NaN wherever ``VERDICTS[code]`` is not ok."""
    kepler = isinstance(metric, MetricParams)
    if _is_point(x, y, r, t):
        x, y, r, t = float(x), float(y), float(r), float(t)
        if kepler:
            code = _classify(metric, x, r, t)[0]
            if code != OK:
                return math.nan, code
            kernel, values = _FAMILY, (x, r, t, float(metric.a), float(metric.c), 0.0)
        else:
            kernel, values = _callback_kernel(metric.fstar), (x, y, r, t, 0.0)
        exact = kernel.warm  # the family's first query runs the jets on 0-d arrays
        if exact:
            try:
                for piece in kernel.emitted.pieces:
                    values = piece(*values)
            except (ArithmeticError, ValueError):  # DomainError is a ValueError
                exact = False
            else:
                K, vt, det, guard = values
                exact = math.isfinite(guard)
        if not exact:  # so does one where the tape raises or its guard is not finite
            kernel.warm = True
            try:
                K, vt, det = map(float, _flag_batch(metric, x, y, r, t))
            except DomainError:  # a check fails, as the tape's would
                K = vt = det = math.nan
        code = _verdict(K, vt, det)
        return (K if code == OK else math.nan), code
    x, y, r, t = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, y, r, t)))
    code = classify(metric, x, r, t)[0] if kepler else np.zeros(x.shape, np.int8)
    K = np.full(x.shape, np.nan)
    lanes = code == OK
    if not lanes.any():
        return K, code
    if lanes.all():
        lanes = ...  # no gather
    Kl, vt, det = _kepler_flag_batch(*_on_lanes(lanes, metric, x, y, r, t))
    verdict = _verdict(Kl, vt, det)
    code[lanes] = verdict
    K[lanes] = np.where(verdict == OK, Kl, np.nan)
    return K, code


def flag_curvature(metric, pt):
    """Flag curvature at one phase point, as a :class:`CurvatureSample`.

    The evaluator on the point's floats: domain violations and a vanishing
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


def _bracket_plain(x, c, w):
    """Monomials of the closed-form bracket that carry no root factor, times
    ``w**24``, by Horner's rule in ``c`` for each power of ``x``, then in
    ``x``.

    For floats ``x = X / w`` and ``c = C / w`` with ``w = 2**e``, it is an
    exact integer of ``X``, ``C`` and ``w``: every monomial ``x**i c**j``
    becomes ``X**i C**j w**(24 - i - j)``, and that power of ``w`` a shift
    of its coefficient.  At ``w = 1`` it is the polynomial itself, in the
    number type of ``x`` and ``c``.  A second, structurally independent
    transcription lives in the test suite, term by term in a fixed
    reference order, and the two are compared exactly over rationals
    before anything else trusts this one.
    """
    e, c2 = w.bit_length() - 1, c * c
    c3 = c2 * c
    h = (2 << 9 * e) * c                                                      # x**14
    h = h * x - (9 << 11 * e)
    h = h * x + (28 << 10 * e) * c2
    h = h * x - (160 << 12 * e) * c
    h = h * x + (168 << 11 * e) * c3 + (204 << 14 * e)                       # x**10
    h = h * x - (1060 << 13 * e) * c2
    h = h * x + ((560 << 12 * e) * c3 + (2096 << 15 * e)) * c
    h = h * x - (3520 << 14 * e) * c3 - (1296 << 17 * e)
    h = h * x + ((1120 << 13 * e) * c3 + (7584 << 16 * e)) * c2
    h = h * x - ((6320 << 15 * e) * c3 + (6528 << 18 * e)) * c              # x**5
    h = h * x + ((1344 << 14 * e) * c3 + (11520 << 17 * e)) * c3 + (1920 << 20 * e)
    h = h * x - ((5888 << 16 * e) * c3 + (5952 << 19 * e)) * c2
    h = h * x + (((896 << 15 * e) * c3 + (5824 << 18 * e)) * c3 - (3840 << 21 * e)) * c
    h = h * x + ((3840 << 20 * e) - (2240 << 17 * e) * c3) * c3
    return h * x + ((256 << 16 * e) * c3 - (768 << 19 * e)) * c2 * c3        # x**0


def _bracket_alpha(x, c, w):
    """Coefficient polynomial of the root factor in the closed-form bracket,
    times ``w**22``, as :func:`_bracket_plain` takes its own."""
    e, c2 = w.bit_length() - 1, c * c
    c3 = c2 * c
    h = (2 << 9 * e) * c                                                      # x**12
    h = h * x - (9 << 11 * e)
    h = h * x + (24 << 10 * e) * c2                                           # x**10
    h = h * x - (126 << 12 * e) * c
    h = h * x + (120 << 11 * e) * c3 + (132 << 14 * e)
    h = h * x - (648 << 13 * e) * c2
    h = h * x + ((320 << 12 * e) * c3 + (1032 << 15 * e)) * c
    h = h * x - (1584 << 14 * e) * c3 - (528 << 17 * e)                      # x**5
    h = h * x + ((480 << 13 * e) * c3 + (2448 << 16 * e)) * c2
    h = h * x - ((1872 << 15 * e) * c3 + (1120 << 18 * e)) * c
    h = h * x + ((384 << 14 * e) * c3 + (1632 << 17 * e)) * c3 - (384 << 20 * e)
    h = h * x + ((1152 << 19 * e) - (864 << 16 * e) * c3) * c2
    return h * x + ((128 << 15 * e) * c3 - (384 << 18 * e)) * c * c3         # x**0


def flag_curvature_closed_form(c, x, dps=50):
    """Closed-form flag curvature at ``(x, 0, 0, x)`` for rotation rate 1.

    Valid for negative ``x`` as well, and for ``c > 0``, the family's own
    rule; ``c <= 0`` raises DomainError, for there the factors of the
    denominator can cancel to a value that is all rounding.

    Evaluated in integers, exactly but for the root of the radicand, which
    is ``isqrt`` of the radicand times ``4**m`` with ``m = ceil(dps *
    log2(10))``: at least ``dps`` decimal digits.  The result is the one
    rounding of an integer quotient.  Near the zero set of the radicand
    the bracket's terms cancel in most of their leading digits, which
    exact integers do not lose; where its plain part ``P`` and its root part
    ``alpha A`` differ in sign, it is taken as the exact ``P**2 - beta
    A**2`` over ``P - alpha A``, so no inexact factor cancels.  A value
    beyond the float range is an infinity.
    """
    if not (math.isfinite(c) and math.isfinite(x)):
        raise DomainError(f"closed form needs finite c and x, got (c={c}, x={x})")
    if c <= 0.0:
        raise DomainError(f"closed form needs c > 0, got (c={c}, x={x})")
    try:
        beta_check = closed_form_radicand(float(c), float(x))
    except OverflowError as exc:  # x**4 or c**2 beyond the float range
        raise DomainError(f"closed-form radicand overflows at (c={c}, x={x})") from exc
    # x = X / w and c = C / w; every name below in capitals is an integer
    (X, wx), (C, wc) = float(x).as_integer_ratio(), float(c).as_integer_ratio()
    w = max(wx, wc)
    X, C, e = X * (w // wx), C * (w // wc), w.bit_length() - 1   # w = 2**e
    S = X * X + 2 * C * w                 # w**2 (x**2 + 2c)
    X8 = 8 * X << 3 * e                   # 8 x w**4
    B = S * S - 2 * X8                    # w**4 beta, the radicand
    if B < 0:
        raise DomainError(
            f"closed-form radicand is negative at (c={c}, x={x}): {beta_check}",
            value=beta_check,
        )
    if B == 0:
        raise DomainError(
            f"closed-form denominator vanishes at (c={c}, x={x})", value=0.0
        )
    T = S * S - X8                        # B + X8 > 0, or S**2 > 0 at x <= 0
    # the bracket is (P + sqrt(B) A) / w**24, with A's w**22 meeting the
    # root's w**2
    P, A = _bracket_plain(X, C, w), _bracket_alpha(X, C, w)
    bits = math.ceil(dps * math.log2(10))
    one = 1 << bits
    root = math.isqrt(B << 2 * bits)      # one * sqrt(B), low by under 1
    # one**2 (S + sqrt(B)) (S sqrt(B) + T) B**2 w**10, every factor positive
    den = (S * one + root) * (S * root + T * one) * B * B << 10 * e
    if (P < 0) == (A < 0):
        num = 2 * (P * one + root * A) * one
    else:
        # P and alpha A differ in sign: their sum is the exact P**2 - B A**2
        # over P - alpha A, whose two parts add
        num = 2 * (P * P - B * A * A) * one**3
        den *= P * one - root * A
    try:
        return num / den
    except OverflowError:
        return math.inf if (num > 0) == (den > 0) else -math.inf
