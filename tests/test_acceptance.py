"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Every tolerance is pinned here; nothing is deferred.
"""

import math
import time

import numpy as np
import pytest

from keplerflag.convexity import f_of_t, hessian_form, verify_convexity
from keplerflag.curvature import _kepler_flag_batch, flag_curvature_closed_form
from keplerflag.identities import DEFAULT_SEED, run_identity_checks
from keplerflag.metric import (
    CartesianFiberPoint,
    MetricParams,
    PhasePoint,
    fstar_cartesian,
    fstar_polar,
    hypothesis_gap,
    scaling_reduce,
    validate_domain,
)
from keplerflag.scan import GridSpec, SliceSpec, grid_scan, slice_scan

TAU = 2.0 * math.pi


def report(index, name, detail):
    print(f"ACCEPTANCE {index} PASS: {name} ({detail})")


def test_acceptance_1_oracle_equivalence():
    """Pipeline vs transcribed closed form, 1e-8 relative, 400 points per c."""
    start = time.time()
    worst = 0.0
    for c in (1.51, 1.55, 1.65, 2.0, 5.0):
        params = MetricParams(1.0, c)
        xs = np.concatenate(
            [np.linspace(0.3, 10.0, 200), np.linspace(-10.0, -0.3, 200)]
        )
        if np.any(xs**4 + 4 * xs**2 * c + 4 * c**2 - 16 * xs < 0):
            pytest.fail("radicand violation inside the declared grid")
        zero = np.zeros_like(xs)
        K, vt, det = _kepler_flag_batch(params, xs, zero, zero, xs.copy())
        assert np.all(det > 0) and np.all(np.abs(vt) > 1e-12)
        for x, k in zip(xs, K):
            oracle = flag_curvature_closed_form(c, float(x))
            worst = max(worst, abs(k - oracle) / abs(oracle))
    elapsed = time.time() - start
    assert worst <= 1e-8
    assert elapsed < 10.0
    report(1, "oracle equivalence", f"worst rel {worst:.2e}, {elapsed:.1f}s")


def test_acceptance_2_negative_curvature_low_energy():
    """K < 0 occurs on the c = 1.51 slice; none on the c = 10 slice."""
    start = time.time()
    low, _ = slice_scan(SliceSpec(c=1.51, a=1.0))
    low_ks = low.K[low.status == "ok"]
    assert min(low_ks) < 0.0
    high, _ = slice_scan(SliceSpec(c=10.0, a=1.0))
    high_ks = high.K[high.status == "ok"]
    assert min(high_ks) > 0.0
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(
        2,
        "negative curvature at low energy",
        f"min K(c=1.51) = {min(low_ks):.3f}, min K(c=10) = {min(high_ks):.3f}, "
        f"{elapsed:.1f}s",
    )


def test_acceptance_3_grid_extremes():
    """A 256x256 lattice domain reproducing the reported extremes.

    The lattice domain behind the reported values is not pinned anywhere,
    so it was searched over rectangular candidates (see README); the
    documented find is x in [-3, 3], phi in [0, 2 pi].
    """
    start = time.time()
    spec = GridSpec(x_min=-3.0, x_max=3.0, nx=256, phi_min=0.0, phi_max=TAU,
                    nphi=256, c=1.55, a=1.0)
    _, summary = grid_scan(spec)
    elapsed = time.time() - start
    assert summary.n_ok == 256 * 256
    assert abs(summary.min_K - (-5.55)) <= 0.05
    assert abs(summary.max_K - 15.21) <= 0.05
    report(
        3,
        "grid extremes on documented domain",
        f"min {summary.min_K:.4f} (target -5.55 +/- 0.05), "
        f"max {summary.max_K:.4f} (target 15.21 +/- 0.05), {elapsed:.1f}s",
    )


def test_acceptance_4_moser_limit_constancy():
    """At a = 0, c = 2: K constant over 500 random admissible points."""
    start = time.time()
    rng = np.random.default_rng(DEFAULT_SEED)
    xs, rs, ts = [], [], []
    while len(xs) < 500:
        x = float(rng.uniform(0.05, 8.0) * rng.choice([-1.0, 1.0]))
        theta = float(rng.uniform(0.0, TAU))
        # unit fiber directions: the scale is irrelevant by 0-homogeneity
        r, t = math.sin(theta), math.cos(theta)
        pt = PhasePoint(x, 0.0, r, t)
        params = MetricParams(0.0, 2.0)
        if not validate_domain(params, pt).ok:
            continue
        if abs(t) < 1e-3:  # keep clear of the denominator guard
            continue
        xs.append(x)
        rs.append(r)
        ts.append(t)
    K, vt, det = _kepler_flag_batch(
        MetricParams(0.0, 2.0), np.array(xs), np.zeros(len(xs)), np.array(rs), np.array(ts)
    )
    assert np.all(np.isfinite(K))
    spread = (np.max(K) - np.min(K)) / np.max(np.abs(K))
    elapsed = time.time() - start
    assert spread < 1e-6
    assert elapsed < 5.0
    report(
        4,
        "constant curvature at zero rotation",
        f"K = {np.mean(K):.9f}, max pairwise rel dev {spread:.2e}, {elapsed:.1f}s",
    )


def test_acceptance_5_convexity_property_suite():
    """Angular profile positivity, Hessian-form positivity, route agreement."""
    start = time.time()
    # f(t) > 0 on a 200 x 720 grid below 4/9
    a_vals = np.linspace(0.0, 4.0 / 9.0, 200, endpoint=False)
    t_vals = np.linspace(0.0, TAU, 720)
    worst_f = min(f_of_t(a, t) for a in a_vals for t in t_vals)
    assert worst_f > 0.0

    # hessian form positive at 1000 level-curve points of randomized
    # admissible families; matrix-vs-reduced agreement (1e-10 relative)
    # is asserted inside hessian_form on every call
    rng = np.random.default_rng(DEFAULT_SEED)
    checked = 0
    min_form = math.inf
    while checked < 1000:
        p = tuple(rng.uniform(-1.0, 1.0, 2))
        a = float(rng.uniform(0.0, 2.0))
        C = float(rng.uniform(0.9, 2.5))
        pe = (a * p[0], a * p[1])
        if math.hypot(*pe) >= 0.95 * C * C:
            continue
        theta = float(rng.uniform(0.0, TAU))
        direction = (math.cos(theta), math.sin(theta))
        scale = fstar_cartesian(CartesianFiberPoint(p, direction, C), a)
        on_level = (direction[0] / scale, direction[1] / scale)
        form = hessian_form(CartesianFiberPoint(pe, on_level, C))
        min_form = min(min_form, form)
        checked += 1
    assert min_form > 0.0

    # end-to-end directional sweep for two reference families
    assert verify_convexity((0.0, 0.0), 1.0, 1.0, 360).verdict is True
    assert verify_convexity((1.0, 0.0), (0.5 + 1.51) / 2.0, 1.0, 360).verdict is True

    elapsed = time.time() - start
    assert elapsed < 10.0
    report(
        5,
        "convexity property suite",
        f"min f {worst_f:.3e}, min form {min_form:.3e}, {elapsed:.1f}s",
    )


def test_acceptance_6_hypothesis_gap():
    """g(x) >= -1e-12 on [0, 10] with its zero at x = 1."""
    xs = np.linspace(0.0, 10.0, 100_000)
    vals = hypothesis_gap(xs)
    assert np.min(vals) >= -1e-12
    x0 = float(xs[int(np.argmin(vals))])
    fine = np.linspace(x0 - 2e-3, x0 + 2e-3, 40_001)
    fvals = hypothesis_gap(fine)
    min_val = float(np.min(fvals))
    argmin = float(fine[int(np.argmin(fvals))])
    assert abs(min_val) <= 1e-6
    assert abs(argmin - 1.0) <= 1e-3
    report(
        6,
        "hypothesis gap nonnegative",
        f"min {min_val:.2e} at x = {argmin:.6f}",
    )


def test_acceptance_7_scaling_identity():
    """F*_{c,a} = a^(1/3) F*_{c a^(-2/3), 1} under the chart substitution."""
    rng = np.random.default_rng(DEFAULT_SEED)
    worst = 0.0
    checked = 0
    while checked < 1000:
        a = float(rng.uniform(0.05, 5.0))
        crit = 1.5 * a ** (2.0 / 3.0)
        c = float(crit * rng.uniform(1.02, 3.0))
        params = MetricParams(a, c)
        x = float(rng.uniform(0.2, 4.0) * rng.choice([-1.0, 1.0]))
        theta = float(rng.uniform(0.0, TAU))
        scale = float(10.0 ** rng.uniform(-1.0, 1.0))
        pt = PhasePoint(x, float(rng.uniform(-3, 3)),
                        scale * math.sin(theta), scale * math.cos(theta))
        if not validate_domain(params, pt).ok:
            continue
        reduced, moved = scaling_reduce(params, pt)
        lhs = fstar_polar(params, pt)
        rhs = a ** (1.0 / 3.0) * fstar_polar(reduced, moved)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
        checked += 1
    assert worst <= 1e-12
    report(7, "scaling identity", f"worst rel {worst:.2e} over 1000 draws")


def test_acceptance_8_structural_identities():
    """The fixed-seed identity suite (the verify-identities entry point)."""
    results = run_identity_checks(DEFAULT_SEED)
    failures = [r for r in results if not r.passed]
    assert not failures, f"failed checks: {[r.name for r in failures]}"
    detail = ", ".join(f"{r.name}: {r.worst:.1e}" for r in results[:4])
    report(8, "structural identities", f"{len(results)} checks, seed {DEFAULT_SEED}")
