"""The structural-identity suite behind ``verify-identities``.

Each check draws randomized admissible configurations from a seeded
generator, measures the worst violation of one structural identity, and
compares it against a fixed tolerance.  The CLI renders the results as a
pass/fail table; the acceptance tests run the same suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import flag_curvature, flag_curvature_closed_form
from .metric import (
    MetricParams,
    PhasePoint,
    fstar_polar,
    fstar_polar_jet,
    hypothesis_gap,
    lstar,
    lstar_jet,
    scaling_reduce,
    validate_domain,
)

__all__ = ["CheckResult", "DEFAULT_SEED", "run_identity_checks", "random_admissible"]

DEFAULT_SEED = 20260810


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str = ""


def random_admissible(rng, a=None, c=None):
    """One admissible ``(MetricParams, PhasePoint)`` pair by rejection."""
    while True:
        aa = float(rng.uniform(0.0, 3.0)) if a is None else a
        if c is None:
            crit = MetricParams(aa, 1.0).critical_c
            cc = float((crit if crit > 0 else 0.5) * rng.uniform(1.05, 3.0) + 0.1)
        else:
            cc = c
        params = MetricParams(aa, cc)
        x = float(rng.uniform(0.2, 4.0) * rng.choice([-1.0, 1.0]))
        y = float(rng.uniform(-math.pi, math.pi))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        scale = float(10.0 ** rng.uniform(-1.0, 1.0))
        pt = PhasePoint(x, y, scale * math.sin(theta), scale * math.cos(theta))
        status = validate_domain(params, pt)
        if status.ok and status.radicand > 1e-6:
            return params, pt


def _rel(a, b, floor=1e-30):
    return abs(a - b) / max(abs(a), abs(b), floor)


def _check_fiber_homogeneity(rng, n=200, tol=1e-12):
    worst = 0.0
    for _ in range(n):
        params, pt = random_admissible(rng)
        lam = float(rng.uniform(0.3, 4.0))
        scaled = PhasePoint(pt.x, pt.y, lam * pt.r, lam * pt.t)
        worst = max(
            worst,
            _rel(fstar_polar(params, scaled), lam * fstar_polar(params, pt)),
        )
    return CheckResult("fstar fiber 1-homogeneity", worst <= tol, worst, tol)


def _check_euler(rng, n=200, tol=1e-10):
    worst = 0.0
    for _ in range(n):
        params, pt = random_admissible(rng)
        L = lstar_jet(params, pt, max_order=1)
        lhs = pt.r * L.extract((0, 1, 0)) + pt.t * L.extract((0, 0, 1))
        worst = max(worst, _rel(lhs, 2.0 * lstar(params, pt)))
    return CheckResult("lstar Euler 2-homogeneity", worst <= tol, worst, tol)


def _check_y_invariance(rng, n=200):
    failures = 0
    for _ in range(n):
        params, pt = random_admissible(rng)
        y2 = float(rng.uniform(-10.0, 10.0))
        a_val = fstar_polar(params, pt)
        b_val = fstar_polar(params, PhasePoint(pt.x, y2, pt.r, pt.t))
        if a_val != b_val:
            failures += 1
    return CheckResult(
        "fstar y-invariance (bit-identical)", failures == 0, float(failures), 0.0
    )


def _check_scaling(rng, n=1000, tol=1e-12):
    worst = 0.0
    for _ in range(n):
        params, pt = random_admissible(rng)
        if params.a == 0.0:
            continue
        reduced, moved = scaling_reduce(params, pt)
        lhs = fstar_polar(params, pt)
        rhs = params.a ** (1.0 / 3.0) * fstar_polar(reduced, moved)
        worst = max(worst, _rel(lhs, rhs))
    return CheckResult("scaling reduction identity", worst <= tol, worst, tol)


def _check_curvature_symmetries(rng, n=60, tol=1e-9):
    worst = 0.0
    for _ in range(n):
        params, pt = random_admissible(rng)
        base = flag_curvature(params, pt)
        if not base.ok:
            continue
        lam = float(rng.uniform(0.3, 4.0))
        y2 = float(rng.uniform(-10.0, 10.0))
        moved = flag_curvature(
            params, PhasePoint(pt.x, y2, lam * pt.r, lam * pt.t)
        )
        if not moved.ok:
            continue
        worst = max(worst, _rel(base.K, moved.K))
    return CheckResult(
        "K fiber 0-homogeneity and y-invariance", worst <= tol, worst, tol
    )


def _check_oracle_agreement(rng, n=120, tol=1e-8):
    worst = 0.0
    for _ in range(n):
        c = float(rng.uniform(1.51, 5.0))
        x = float(rng.uniform(0.3, 10.0) * rng.choice([-1.0, 1.0]))
        params = MetricParams(1.0, c)
        pt = PhasePoint(x, 0.0, 0.0, x)
        sample = flag_curvature(params, pt)
        if not sample.ok:
            continue
        worst = max(worst, _rel(sample.K, flag_curvature_closed_form(c, x)))
    return CheckResult("pipeline vs closed-form oracle", worst <= tol, worst, tol)


# Central-difference steps balancing truncation against roundoff per order.
_FD_STEPS = {1: 1e-6, 2: 1e-4, 3: 3e-4, 4: 1e-3}


def _finite_difference(fn, point, mu):
    """Iterated central differences for the mixed partial ``mu``."""
    order = sum(mu)
    h = _FD_STEPS[order]

    def diff(f, var, times):
        if times == 0:
            return f
        def stepped(p):
            lo = list(p)
            hi = list(p)
            lo[var] -= h
            hi[var] += h
            inner = diff(f, var, times - 1)
            return (inner(tuple(hi)) - inner(tuple(lo))) / (2.0 * h)
        return stepped

    f = fn
    for var, times in enumerate(mu):
        f = diff(f, var, times)
    return f(point)


def _check_jets_vs_fd(rng, tol_low=1e-5, tol_high=1e-3):
    params = MetricParams(1.0, 2.0)
    pt = PhasePoint(1.1, 0.0, 0.35, 0.9)

    def scalar_fn(coords):
        return fstar_polar(params, PhasePoint(coords[0], 0.0, coords[1], coords[2]))

    jet = fstar_polar_jet(params, pt, max_order=4)
    worst_low = worst_high = 0.0
    space = jet._space
    for mu in space.monomials:
        order = sum(mu)
        if order == 0:
            continue
        exact = jet.extract(mu)
        approx = _finite_difference(scalar_fn, (pt.x, pt.r, pt.t), mu)
        rel = _rel(exact, approx, floor=1.0)
        if order <= 2:
            worst_low = max(worst_low, rel)
        else:
            worst_high = max(worst_high, rel)
    passed = worst_low <= tol_low and worst_high <= tol_high
    return CheckResult(
        "jet derivatives vs central differences",
        passed,
        max(worst_low, worst_high),
        tol_high,
        detail=f"orders<=2: {worst_low:.2e} (tol {tol_low}); "
        f"orders 3-4: {worst_high:.2e} (tol {tol_high})",
    )


def _check_hypothesis_gap(n=100_000, tol=1e-12):
    xs = np.linspace(0.0, 10.0, n)
    vals = hypothesis_gap(xs)
    worst = float(-min(np.min(vals), 0.0))
    return CheckResult("hypothesis gap g >= 0 on [0, 10]", worst <= tol, worst, tol)


def run_identity_checks(seed=DEFAULT_SEED):
    """Run the whole suite with one seeded generator; order is fixed."""
    rng = np.random.default_rng(seed)
    return [
        _check_fiber_homogeneity(rng),
        _check_euler(rng),
        _check_y_invariance(rng),
        _check_scaling(rng),
        _check_curvature_symmetries(rng),
        _check_oracle_agreement(rng),
        _check_jets_vs_fd(rng),
        _check_hypothesis_gap(),
    ]
