"""The structural-identity suite behind ``verify-identities``.

Each check draws randomized admissible configurations from a seeded
generator, measures the worst violation of one structural identity, and
compares it against a fixed tolerance.  The CLI renders the results as a
pass/fail table; the acceptance tests run the same suite.

The draws are one scalar stream, point by point in a fixed order.  Each
check evaluates its points at once on the array paths grids take, whose
powers round as grid rows do (:mod:`keplerflag.curvature`).  A lane whose
``F*`` is not finite fails its check, and nothing raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import _evaluate, flag_curvature_closed_form
from .metric import (
    OK,
    MetricParams,
    PhasePoint,
    _fstar_expr,
    _fstar_jet_batch,
    cartesian_fiber_point,
    classify,
    fstar_cartesian,
    fstar_polar,
    fstar_polar_jet,
    hypothesis_gap,
    scaling_reduce,
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


def _uniform(rng, lo, hi):
    """``rng.uniform(lo, hi)``, bit for bit: NumPy's own ``low + range *
    next_double``, without the cost of its call."""
    return lo + (hi - lo) * rng.random()


def _draw(rng, a=None, c=None):
    """One admissible draw by rejection, as floats ``(a, c, x, y, r, t)``."""
    while True:
        aa = _uniform(rng, 0.0, 3.0) if a is None else a
        cc = c
        if c is None:
            crit = MetricParams(aa, 1.0).critical_c
            cc = (crit if crit > 0 else 0.5) * _uniform(rng, 1.05, 3.0) + 0.1
        x = _uniform(rng, 0.2, 4.0) * (-1.0, 1.0)[rng.integers(2)]
        y = _uniform(rng, -math.pi, math.pi)
        theta = _uniform(rng, 0.0, 2.0 * math.pi)
        scale = 10.0 ** _uniform(rng, -1.0, 1.0)
        r, t = scale * math.sin(theta), scale * math.cos(theta)
        code, rad = classify(MetricParams(aa, cc), x, r, t)
        if code == OK and rad > 1e-6:
            return aa, cc, x, y, r, t


def random_admissible(rng, a=None, c=None):
    """One admissible ``(MetricParams, PhasePoint)`` pair by rejection."""
    aa, cc, *pt = _draw(rng, a, c)
    return MetricParams(aa, cc), PhasePoint(*pt)


def _rows(rng, n, *extra):
    """``n`` draws, each then a uniform on each ``(lo, hi)`` of ``extra``, as rows."""
    return np.array([(*_draw(rng), *(_uniform(rng, lo, hi) for lo, hi in extra))
                     for _ in range(n)]).T


def _rel(a, b, floor=1e-30):  # NaN where a or b is not finite
    return abs(a - b) / np.maximum(np.maximum(abs(a), abs(b)), floor)


def _result(name, violations, tol):
    """The check ``name`` on its largest violation: NaN if any is, 0 if none."""
    worst = float(np.max(violations, initial=0.0))
    return CheckResult(name, worst <= tol, worst, tol)


def _check_fiber_homogeneity(rng, n=200, tol=1e-12):
    a, c, x, _, r, t, lam = _rows(rng, n, (0.3, 4.0))
    rel = _rel(_fstar_expr(x, lam * r, lam * t, a, c), lam * _fstar_expr(x, r, t, a, c))
    return _result("fstar fiber 1-homogeneity", rel, tol)


def _check_euler(rng, n=200, tol=1e-10):
    a, c, x, _, r, t = _rows(rng, n)
    f = _fstar_jet_batch(x, r, t, a, c, max_order=1)
    L, value = 0.5 * f * f, _fstar_expr(x, r, t, a, c)
    rel = _rel(r * L.extract((0, 1, 0)) + t * L.extract((0, 0, 1)), 2.0 * (0.5 * value * value))
    return _result("lstar Euler 2-homogeneity", rel, tol)


def _cartesian_fstar(params, x, y, r, t):
    """The Cartesian-fiber F* at one point, NaN where it raises."""
    try:
        return fstar_cartesian(cartesian_fiber_point(params, PhasePoint(x, y, r, t)), params.a)
    except ValueError:  # a coordinate not finite, or x = 0; DomainError is one
        return math.nan


def _check_y_invariance(rng, n=200, tol=1e-12):
    """The Cartesian-fiber F*, which reads ``y``, at each point and with
    ``y`` drawn anew: the polar family takes no ``y`` at all."""
    a, c, x, y, r, t, y2 = _rows(rng, n, (-10.0, 10.0)).tolist()
    params = list(map(MetricParams, a, c))
    f, moved = (np.array(list(map(_cartesian_fstar, params, x, ys, r, t))) for ys in (y, y2))
    return _result("fstar y-invariance (Cartesian fiber)", _rel(f, moved), tol)


def _check_scaling(rng, n=1000, tol=1e-12):
    rows = _rows(rng, n)
    a, c, x, y, r, t = rows[:, rows[0] != 0.0]  # a = 0 has no reduction
    reduced, moved = scaling_reduce(MetricParams(a, c), PhasePoint(x, y, r, t))
    rhs = a ** (1.0 / 3.0) * _fstar_expr(moved.x, moved.r, moved.t, reduced.a, reduced.c)
    return _result("scaling reduction identity", _rel(_fstar_expr(x, r, t, a, c), rhs), tol)


def _check_curvature_symmetries(rng, n=60, tol=1e-9):
    """``K`` at each point and at ``(x, y2, lam r, lam t)`` where both are ok.  Only
    a point whose ``K`` is ok draws ``lam`` and ``y2``: past one that is not, rewind."""
    rels = []
    while n:
        start = rng.bit_generator.state
        a, c, x, y, r, t, lam, y2 = _rows(rng, n, (0.3, 4.0), (-10.0, 10.0))
        base, code = _evaluate(MetricParams(a, c), x, y, r, t)
        moved, moved_code = _evaluate(MetricParams(a, c), x, y2, lam * r, lam * t)
        k = next(iter(np.flatnonzero(code != OK)), n)
        rels.append(_rel(base, moved)[:k][(moved_code == OK)[:k]])
        if k < n:
            rng.bit_generator.state = start
            _rows(rng, k, (0.3, 4.0), (-10.0, 10.0))
            _draw(rng)
        n -= min(k + 1, n)
    return _result("K fiber 0-homogeneity and y-invariance", np.concatenate(rels), tol)


def _check_oracle_agreement(rng, n=120, tol=1e-8):
    c, x = np.array([(_uniform(rng, 1.51, 5.0),
                      _uniform(rng, 0.3, 10.0) * (-1.0, 1.0)[rng.integers(2)])
                     for _ in range(n)]).T
    K, code = _evaluate(MetricParams(1.0, c), x, 0.0, 0.0, x)
    ok = code == OK
    oracle = [flag_curvature_closed_form(*ck) for ck in zip(c[ok].tolist(), x[ok].tolist())]
    return _result("pipeline vs closed-form oracle", _rel(K[ok], np.array(oracle)), tol)


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
        rel = float(_rel(exact, approx, floor=1.0))
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
    # the same points in 16 blocks, so the polynomial's temporaries stay small
    blocks = np.array_split(np.linspace(0.0, 10.0, n), 16)
    low = np.min([np.min(hypothesis_gap(block)) for block in blocks])
    worst = 0.0 - min(float(low), 0.0)  # +0.0 where g >= 0, NaN if g is
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
