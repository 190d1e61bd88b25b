"""Fiberwise-convexity verifiers for the level curves H_p^{-1}(0).

The level function ``H_p(q) = <p_perp, q> - 1/|q| + 2C`` has, for
``|p| < C^2``, a bounded zero component enclosing a strictly convex domain.
This module computes the checkable quantities behind that statement: the
radial roots that place a ray on the level set, the Hessian quadratic form
along the tangent direction (by two independent routes that must agree),
and the reduced periodic profile ``f``; plus a sampling verifier that
sweeps fiber directions and reports the minimal form value.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ConsistencyError, DomainError, PreconditionError
from .metric import CartesianFiberPoint, _fiber_norm, fstar_cartesian, perp_inner

__all__ = [
    "LambdaRoots",
    "ConvexityReport",
    "hp_value",
    "lambda_roots",
    "f_of_t",
    "hessian_form",
    "verify_convexity",
]

_FORM_AGREEMENT_RTOL = 1e-10


@dataclass(frozen=True)
class LambdaRoots:
    """The three radial solutions of ``H_p(lambda^{-1} q) = 0``.

    Computed under the normalization ``<p_perp, q> >= 0``; ``sign_flipped``
    records whether the input ``q`` had to be replaced by its reflection
    across ``p`` to reach that normalization.  ``degenerate_minus`` flags
    the ``lambda_minus = 0`` root that occurs exactly at ``<p_perp, q> = 0``
    (the unbounded branch receding to infinity).
    """

    lambda0: float
    lambda_plus: float
    lambda_minus: float
    sign_flipped: bool
    degenerate_minus: bool


@dataclass(frozen=True)
class ConvexityReport:
    """Outcome of a directional sweep of the Hessian form over the level curve."""

    n: int
    min_form: float | None
    argmin_direction: tuple[float, float] | None
    failure_point: tuple[float, float] | None
    verdict: bool | None

    def to_dict(self):
        return {
            "n": self.n,
            "min_form": self.min_form,
            "argmin_direction": list(self.argmin_direction)
            if self.argmin_direction
            else None,
            "failure_point": list(self.failure_point) if self.failure_point else None,
            "verdict": self.verdict,
        }


def hp_value(pt):
    """The level function ``H_p(q) = <p_perp, q> - 1/|q| + 2C``."""
    return perp_inner(pt.p, pt.q) - 1.0 / _fiber_norm(pt.q) + 2.0 * pt.C


def lambda_roots(pt):
    """All radial roots, normalized to ``<p_perp, q> >= 0``.

    Requires the convexity hypothesis ``|p| < C^2``, which keeps the inner
    radical of the negative roots real.
    """
    pn = math.hypot(*pt.p)
    if not pn < pt.C * pt.C:
        raise PreconditionError(
            f"lambda_roots requires |p| < C^2 (got |p|={pn}, C^2={pt.C * pt.C})"
        )
    qn = _fiber_norm(pt.q)
    ip = perp_inner(pt.p, pt.q)
    flipped = ip < 0.0
    ratio = abs(ip) / (qn * pt.C * pt.C)
    cq = pt.C * qn
    lam0 = cq * (1.0 + math.sqrt(1.0 + ratio))
    lam_plus = -cq * (1.0 + math.sqrt(1.0 - ratio))
    lam_minus = -cq * (1.0 - math.sqrt(1.0 - ratio))
    return LambdaRoots(
        lambda0=lam0,
        lambda_plus=lam_plus,
        lambda_minus=lam_minus,
        sign_flipped=flipped,
        degenerate_minus=ratio < 1e-15,
    )


def f_of_t(a_lem, t):
    """Reduced angular profile ``a^2 + 2a cos t + 1 - 3a^2 sin^2 t``.

    Strictly positive for ``0 <= a < 4/9``, which is the quantitative core
    of the convexity lemma.
    """
    s, c = math.sin(t), math.cos(t)
    return a_lem * a_lem + 2.0 * a_lem * c + 1.0 - 3.0 * a_lem * a_lem * s * s


def hessian_form(pt):
    """|q|^5 <v, Hess H_p(q) v> with v the tangent direction -(grad H_p)^perp.

    Evaluated from the explicit 2x2 Hessian and gradient, then checked
    against the reduced closed form
    ``(|p|^2 |q|^4 + 2|q|<p_perp,q> + 1 - 3|q|^2 <p,q>^2) / |q|^2``;
    disagreement beyond 1e-10 relative raises :class:`ConsistencyError`.
    """
    q1, q2 = pt.q
    p1, p2 = pt.p
    qn = _fiber_norm(pt.q)
    try:
        qn3, qn4 = qn**3, qn**4
    except OverflowError:
        raise DomainError(f"|q|^4 overflows at q = {pt.q}", value=qn) from None
    if qn3 < sys.float_info.min:  # 0 or subnormal: the two routes lose their bits
        raise DomainError(f"|q|^3 underflows at q = {pt.q}", value=qn)
    v1 = p1 - q2 / qn3
    v2 = p2 + q1 / qn3
    h11 = qn * qn - 3.0 * q1 * q1
    h12 = -3.0 * q1 * q2
    h22 = qn * qn - 3.0 * q2 * q2
    # |q|^5 cancels the Hessian's 1/|q|^5 prefactor.
    matrix_route = h11 * v1 * v1 + 2.0 * h12 * v1 * v2 + h22 * v2 * v2

    ip_perp = perp_inner(pt.p, pt.q)
    ip = p1 * q1 + p2 * q2
    pn2 = p1 * p1 + p2 * p2
    reduced = (
        pn2 * qn4 + 2.0 * qn * ip_perp + 1.0 - 3.0 * qn * qn * ip * ip
    ) / (qn * qn)

    scale = max(abs(matrix_route), abs(reduced), 1e-300)
    if abs(matrix_route - reduced) > _FORM_AGREEMENT_RTOL * scale:
        raise ConsistencyError(
            f"Hessian form disagreement at {pt}: matrix route {matrix_route} "
            f"vs reduced form {reduced}"
        )
    return matrix_route


def verify_convexity(p, C, a, n):
    """Sweep ``n`` fiber directions, rescale each onto the level curve, and
    evaluate the Hessian form there.

    The effective momentum is ``a * p`` throughout.  Requires the scaled
    hypothesis ``a|p| < C^2``.  With ``n = 0`` the report is empty and
    carries no verdict.
    """
    pe = (a * p[0], a * p[1])
    pn = math.hypot(*pe)
    if not pn < C * C:
        raise PreconditionError(
            f"verify_convexity requires a|p| < C^2 (got a|p|={pn}, C^2={C * C})"
        )
    if n < 0:
        raise ValueError(f"direction count must be nonnegative, got {n}")
    if n == 0:
        return ConvexityReport(0, None, None, None, None)

    min_form = math.inf
    argmin = None
    failure = None
    for k in range(n):
        theta = 2.0 * math.pi * k / n
        direction = (math.cos(theta), math.sin(theta))
        scale = fstar_cartesian(CartesianFiberPoint(p, direction, C), a)
        on_level = (direction[0] / scale, direction[1] / scale)
        form = hessian_form(CartesianFiberPoint(pe, on_level, C))
        if form < min_form:
            min_form = form
            argmin = direction
        if form <= 0.0 and failure is None:
            failure = on_level
    return ConvexityReport(n, min_form, argmin, failure, failure is None)
