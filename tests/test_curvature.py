"""Tests for the curvature pipeline and its closed-form oracle."""

import hashlib
import itertools
import math
import os
import subprocess
import sys
import warnings
from dataclasses import astuple
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import keplerflag
from keplerflag import curvature, metric
from keplerflag.curvature import (
    SINGULAR_V_TOL,
    CallbackCartanMetric,
    _bracket_alpha,
    _bracket_plain,
    _evaluate,
    _flag_batch,
    _kepler_flag_batch,
    _verdict,
    curvature_terms,
    flag_curvature,
    flag_curvature_closed_form,
)
from keplerflag.errors import DomainError
from keplerflag.identities import random_admissible
from keplerflag.jets import Jet, _JetSpace
from keplerflag.metric import (
    CHART_SINGULARITY,
    DEGENERATE_COMETRIC,
    DENOMINATOR_BELOW_TOLERANCE,
    NEGATIVE_RADICAND,
    NONFINITE_INPUT,
    NONFINITE_RESULT,
    OK,
    UNDEFINED_RADICAND,
    VERDICTS,
    ZERO_FIBER_DIRECTION,
    MetricParams,
    PhasePoint,
    classify,
    fstar_polar,
    lstar,
    scaling_reduce,
    validate_domain,
)
from keplerflag.scan import GridSpec, SliceSpec, _evaluate_points, grid_scan, slice_scan
from keplerflag.tape import Emitted, Tape


FLAT = CallbackCartanMetric(lambda x, y, r, t: (r * r + t * t).sqrt())

# conformal cometric x^(2s) (dr^2 + dt^2): Gaussian curvature -s x^(2s-2)
HYPERBOLIC = CallbackCartanMetric(lambda x, y, r, t: x * (r * r + t * t).sqrt())
POWER_TWO = CallbackCartanMetric(
    lambda x, y, r, t: (x * x) * (r * r + t * t).sqrt()
)

# round sphere in stereographic coordinates: K = +1, genuinely y-dependent
SPHERE = CallbackCartanMetric(
    lambda x, y, r, t: (0.5 * (1.0 + x * x + y * y)) * (r * r + t * t).sqrt()
)


class TestCometric:
    def test_flat_quadratic(self):
        terms = curvature_terms(FLAT, PhasePoint(0.4, 0.0, 0.3, 0.8))
        assert terms.g11 == pytest.approx(1.0, abs=1e-12)
        assert terms.g22 == pytest.approx(1.0, abs=1e-12)
        assert terms.g12 == pytest.approx(0.0, abs=1e-12)
        assert terms.det == pytest.approx(1.0, abs=1e-12)

    def test_kepler_point_positive_definite(self):
        params = MetricParams(1.0, 2.0)
        terms = curvature_terms(params, PhasePoint(1.0, 0.0, 0.0, 1.0))
        assert terms.det > 0.0
        assert terms.g11 > 0.0
        assert terms.g22 > 0.0

    def test_matches_finite_differences(self):
        params = MetricParams(1.0, 2.0)
        pt = PhasePoint(1.2, 0.0, 0.35, 0.8)
        terms = curvature_terms(params, pt)
        h = 1e-5

        def L(r, t):
            return lstar(params, PhasePoint(pt.x, pt.y, r, t))

        g11 = (L(pt.r + h, pt.t) - 2 * L(pt.r, pt.t) + L(pt.r - h, pt.t)) / h**2
        g22 = (L(pt.r, pt.t + h) - 2 * L(pt.r, pt.t) + L(pt.r, pt.t - h)) / h**2
        g12 = (
            L(pt.r + h, pt.t + h) - L(pt.r + h, pt.t - h)
            - L(pt.r - h, pt.t + h) + L(pt.r - h, pt.t - h)
        ) / (4 * h**2)
        assert terms.g11 == pytest.approx(g11, rel=1e-5)
        assert terms.g22 == pytest.approx(g22, rel=1e-5)
        assert terms.g12 == pytest.approx(g12, rel=1e-4, abs=1e-7)

    def test_inverse_identity(self):
        rng = np.random.default_rng(67)
        params = MetricParams(1.0, 2.0)
        for _ in range(50):
            x = float(rng.uniform(0.3, 3.0) * rng.choice([-1, 1]))
            theta = float(rng.uniform(0, 2 * math.pi))
            terms = curvature_terms(
                params, PhasePoint(x, 0.0, math.sin(theta), math.cos(theta))
            )
            m = np.array([[terms.g11, terms.g12], [terms.g12, terms.g22]])
            inv = np.array([[terms.g22, -terms.g12], [-terms.g12, terms.g11]]) / terms.det
            np.testing.assert_allclose(m @ inv, np.eye(2), atol=1e-10)

    def test_degenerate_cometric_raises(self):
        # 1-homogeneous but non-convex in the fiber: F* = r + 2t has a
        # singular fiber Hessian
        degenerate = CallbackCartanMetric(lambda x, y, r, t: r + 2.0 * t + 0.0 * x)
        with pytest.raises(DomainError, match="^degenerate_cometric"):
            curvature_terms(degenerate, PhasePoint(1.0, 0.0, 0.5, 1.0))

    def test_strongly_indefinite_cometric_is_degenerate(self):
        # L* = 1e9 (r^2 - t^2)/2 has det = -1e18, beyond 2**53, where
        # det0 + (1 - det0) rounds to 0 instead of a dummy determinant 1
        indefinite = CallbackCartanMetric(
            lambda x, y, r, t: (1e9 * r * r - 1e9 * t * t + 0.0 * x).sqrt()
        )
        pt = PhasePoint(1.0, 0.0, 2.0, 1.0)
        with pytest.raises(DomainError, match="^degenerate_cometric"):
            curvature_terms(indefinite, pt)
        assert flag_curvature(indefinite, pt).reason == "degenerate_cometric"


class TestLegendreFiber:
    def test_flat_self_dual(self):
        terms = curvature_terms(FLAT, PhasePoint(0.5, 0.0, 0.3, 0.7))
        assert terms.u == pytest.approx(0.3, rel=1e-12)
        assert terms.v == pytest.approx(0.7, rel=1e-12)

    def test_euler_identity(self):
        rng = np.random.default_rng(71)
        params = MetricParams(1.0, 2.0)
        for _ in range(50):
            x = float(rng.uniform(0.3, 3.0) * rng.choice([-1, 1]))
            theta = float(rng.uniform(0, 2 * math.pi))
            s = float(10.0 ** rng.uniform(-0.5, 0.5))
            pt = PhasePoint(x, 0.0, s * math.sin(theta), s * math.cos(theta))
            g = curvature_terms(params, pt)
            assert pt.r * g.u + pt.t * g.v == pytest.approx(
                2.0 * lstar(params, pt), rel=1e-10
            )
            # the inverse Legendre map: the metric block takes (u, v) back
            # to (r, t)
            scale = 1e-10 * max(abs(pt.r), abs(pt.t), 1.0)
            assert abs((g.g22 * g.u - g.g12 * g.v) / g.det - pt.r) <= scale
            assert abs((g.g11 * g.v - g.g12 * g.u) / g.det - pt.t) <= scale

    def test_kepler_reference_point(self):
        terms = curvature_terms(MetricParams(1.0, 2.0), PhasePoint(1.0, 0.0, 0.0, 1.0))
        assert terms.u == pytest.approx(0.0, abs=1e-12)
        assert terms.v > 0.0


class TestSpray:
    def test_base_independent_metric_has_zero_spray(self):
        terms = curvature_terms(FLAT, PhasePoint(0.8, 0.0, 0.4, 0.9))
        assert terms.G == pytest.approx(0.0, abs=1e-12)
        assert terms.H_spray == pytest.approx(0.0, abs=1e-12)

    def test_power_conformal_hand_formula(self):
        # L* = x^4 (r^2 + t^2)/2 gives, by direct substitution into the
        # spray formulas, G = x^7 (t^2 - r^2) and H = -2 x^7 r t.
        for (x, r, t) in [(1.1, 0.3, 0.8), (0.7, -0.5, 0.4), (1.6, 0.0, 1.0)]:
            terms = curvature_terms(POWER_TWO, PhasePoint(x, 0.2, r, t))
            assert terms.G == pytest.approx(x**7 * (t * t - r * r), rel=1e-11)
            assert terms.H_spray == pytest.approx(-2.0 * x**7 * r * t,
                                                  rel=1e-11, abs=1e-11)

    def test_kepler_spray_is_finite(self):
        params = MetricParams(0.0, 2.0)
        terms = curvature_terms(params, PhasePoint(1.3, 0.0, 0.4, 0.7))
        assert math.isfinite(terms.G)
        assert math.isfinite(terms.H_spray)
        assert terms.G != 0.0


class TestCurvatureTerms:
    # (a, c), (x, y, r, t), then g11 g12 g22 det u v G H_spray as float.hex,
    # the values the three per-quantity reads that curvature_terms replaced
    # returned
    PINS = [
        ((1.0, 2.0), (1.2, 0.0, 0.35, 0.8),
         ["0x1.a451780ce5583p+2", "-0x1.3432ef6dcc480p-4", "0x1.a42096a82d4f6p+1",
          "0x1.58ce64965ee09p+4", "0x1.1e848e0caea23p+1", "0x1.4cbb1d1b57368p+1",
          "-0x1.d9ded2b22998cp+1", "0x1.1cc3bbc46873ep+1"]),
        ((1.0, 1.55), (-1.0235294117647058, 0.0, -0.24391372010837756, 0.9697969360350094),
         ["0x1.c27fb65241ccep+1", "-0x1.06879a799b2d4p-3", "0x1.81159ee0491d7p+0",
          "0x1.51c6d4c8911f6p+2", "-0x1.f72e7a2af9c42p-1", "0x1.7d7542bc71c83p+0",
          "0x1.63c6a0c47f276p+0", "0x1.43d3a3bf829adp-1"]),
        ((0.0, 2.0), (1.3, 0.0, 0.4, 0.7),
         ["0x1.030240b780348p+3", "-0x1.0000000000000p-50", "0x1.3284f02f80ffep+2",
          "0x1.361f3186e276dp+5", "0x1.9e6a012599ed9p+1", "0x1.ad208375b4998p+1",
          "-0x1.57179feabf8dfp+2", "0x1.b1e08a65b46a4p+1"]),
    ]

    @pytest.mark.parametrize("ac, point, pins", PINS)
    def test_bit_pins(self, ac, point, pins):
        terms = curvature_terms(MetricParams(*ac), PhasePoint(*point))
        got = [terms.g11, terms.g12, terms.g22, terms.det, terms.u, terms.v,
               terms.G, terms.H_spray]
        assert [v.hex() for v in got] == pins

    def test_numerator_is_the_point_query(self):
        params, pt = MetricParams(1.0, 2.0), PhasePoint(1.3, 0.0, 0.4, -0.8)
        terms = curvature_terms(params, pt)
        assert terms.numerator / (terms.v * pt.t) == pytest.approx(
            flag_curvature(params, pt).K, rel=1e-12)

    REJECTED = [
        ("nonfinite_input", MetricParams(1.0, 2.0), (math.nan, 0.0, 0.3, 0.7)),
        ("chart_singularity", MetricParams(1.0, 2.0), (0.0, 0.0, 0.3, 0.7)),
        ("zero_fiber_direction", MetricParams(1.0, 2.0), (1.0, 0.0, 0.0, 0.0)),
        ("energy_below_critical", MetricParams(1.0, 1.4), (1.0, 0.0, 0.0, 1.0)),
        ("negative_radicand", MetricParams(1.0, 1.5000000000000002), (1.0, 0.0, 0.0, 1.0)),
        ("undefined_radicand", MetricParams(1.0, 2.0), (1.0, 0.0, 1e-200, 0.0)),
    ]

    @pytest.mark.parametrize("reason, params, point", REJECTED,
                             ids=[reason for reason, *_ in REJECTED])
    def test_rejected_point_raises_its_reason(self, reason, params, point):
        pt = PhasePoint(*point)
        assert flag_curvature(params, pt).reason == reason
        with pytest.raises(DomainError, match=f"^{reason} at "):
            curvature_terms(params, pt)

    def test_a_point_in_the_chart_band_raises_its_reason(self):
        # the polar K has lost about 1e-9 of its accuracy at x = 5e-4
        params, pt = MetricParams(1.0, 1.55), PhasePoint(5e-4, 0.0, 0.6, 0.8)
        domain = validate_domain(params, pt)
        assert (domain.ok, domain.reason, domain.radicand) == \
            (False, "chart_singularity", None)
        with pytest.raises(DomainError, match="^chart_singularity at "):
            curvature_terms(params, pt)

    def test_jet_failure_raises_nonfinite_result(self):
        # classify admits the radicand 2^-53 here, but the jets, which
        # divide by multiplying with a reciprocal, round it to 0
        params, pt = RADICAND_ROUNDS_TO_ZERO
        assert classify(params, pt.x, pt.r, pt.t) == (OK, 2.0**-53)
        with pytest.raises(DomainError):
            _flag_batch(params, pt.x, pt.y, pt.r, pt.t)
        assert flag_curvature(params, pt).reason == "nonfinite_result"
        with pytest.raises(DomainError, match="^nonfinite_result at "):
            curvature_terms(params, pt)


class TestRiemannianOracles:
    """Metrics with classically known Gaussian curvature, end to end."""

    def test_flat_plane(self):
        sample = flag_curvature(FLAT, PhasePoint(0.8, -0.3, 0.45, 0.9))
        assert sample.ok
        assert sample.K == pytest.approx(0.0, abs=1e-11)

    def test_hyperbolic_plane(self):
        for pt in (PhasePoint(1.7, 0.3, 0.4, 0.9), PhasePoint(0.5, -2.0, -0.8, 0.6)):
            sample = flag_curvature(HYPERBOLIC, pt)
            assert sample.ok
            assert sample.K == pytest.approx(-1.0, rel=1e-9)

    def test_power_two_conformal(self):
        for x in (0.7, 1.3):
            sample = flag_curvature(POWER_TWO, PhasePoint(x, 0.0, 0.25, 0.85))
            assert sample.ok
            assert sample.K == pytest.approx(-2.0 * x * x, rel=1e-9)

    def test_round_sphere_with_y_dependence(self):
        for pt in (
            PhasePoint(0.6, -0.8, 0.35, 0.7),
            PhasePoint(-1.2, 0.4, 0.9, 0.5),
            PhasePoint(0.3, 1.9, -0.6, 1.1),
        ):
            sample = flag_curvature(SPHERE, pt)
            assert sample.ok
            assert sample.K == pytest.approx(1.0, rel=1e-9)


class TestFlagCurvatureKepler:
    def test_matches_closed_form_at_reference_point(self):
        sample = flag_curvature(MetricParams(1.0, 2.0), PhasePoint(1.0, 0.0, 0.0, 1.0))
        assert sample.ok
        # fiber 0-homogeneity identifies (0, 1) with (0, x) at x = 1
        assert sample.K == pytest.approx(
            flag_curvature_closed_form(2.0, 1.0), rel=1e-8
        )

    def test_moser_limit_constancy_and_value(self):
        # at zero rotation the metric is the rotationally symmetric one with
        # E = 4/(x^2+2c)^2, G = 4x^2/(x^2+2c)^2, whose Gaussian curvature
        # evaluates by hand to the constant 2c
        params = MetricParams(0.0, 2.0)
        pts = [
            PhasePoint(0.7, 0.0, 0.0, 1.0),
            PhasePoint(1.8, 0.3, 0.4, 0.9),
            PhasePoint(-2.5, 1.0, 0.3, 1.1),
            PhasePoint(0.4, 0.0, -0.9, 0.2),
        ]
        ks = [flag_curvature(params, pt).K for pt in pts]
        for k in ks:
            assert k == pytest.approx(2.0 * params.c, rel=1e-9)

    def test_fiber_zero_homogeneity_and_y_invariance(self):
        params = MetricParams(1.0, 2.0)
        base = flag_curvature(params, PhasePoint(1.3, 0.0, 0.5, 0.9))
        moved = flag_curvature(params, PhasePoint(1.3, 2.7, 1.5, 2.7))
        assert base.ok and moved.ok
        assert base.K == pytest.approx(moved.K, rel=1e-9)

    def test_subcritical_energy_reported(self):
        sample = flag_curvature(MetricParams(1.0, 1.4), PhasePoint(1.0, 0.0, 0.0, 1.0))
        assert sample.status == "domain_error"
        assert sample.reason == "energy_below_critical"
        assert sample.K is None

    def test_singular_denominator_reported(self):
        sample = flag_curvature(MetricParams(1.0, 2.0), PhasePoint(1.0, 0.0, 1.0, 0.0))
        assert sample.status == "singular_v"
        assert sample.reason == "denominator_below_tolerance"
        assert sample.K is None

    @pytest.mark.parametrize("x", [1e150, -1e150, 1e-200])
    def test_extreme_x_reported_without_warnings(self, x):
        # 1e150 used to overflow in validate_domain's certificate, 1e-200
        # to leak "divide by zero" from the radicand
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sample = flag_curvature(MetricParams(1.0, 2.0),
                                    PhasePoint(x, 0.0, 0.3, 0.7))
        assert sample.status == "domain_error"
        assert sample.K is None
        # the reason is a code, not a DomainError's text: 1e-200 lies in
        # the chart band, and at 1e150 the jets overflow
        assert sample.reason == ("chart_singularity" if abs(x) < 1e-3 else "nonfinite_result")

    def test_chart_singularity_reported(self):
        sample = flag_curvature(MetricParams(1.0, 2.0), PhasePoint(0.0, 0.0, 0.0, 1.0))
        assert sample.status == "domain_error"
        assert sample.reason == "chart_singularity"

    def test_negative_region_exists_at_low_energy(self):
        params = MetricParams(1.0, 1.51)
        xs = np.linspace(-10, 10, 801)
        ks = [
            flag_curvature(params, PhasePoint(float(x), 0.0, 0.0, float(x))).K
            for x in xs
            if abs(x) > 1e-3
        ]
        assert min(ks) < 0.0
        assert max(ks) > 0.0


@lru_cache(maxsize=1)
def accept3():
    """The acceptance-3 lattice's scan: 256 x 256 ``(x, phi)`` at ``c = 1.55``."""
    return grid_scan(GridSpec(x_min=-3.0, x_max=3.0, nx=256, phi_min=0.0,
                              phi_max=2.0 * math.pi, nphi=256, c=1.55, a=1.0))[0]


# The two sides where K's 0-homogeneity fails.  A mend must flip the strict
# xfails below; raises=AssertionError keeps an error from passing for one.
SMALL_FIBER = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="|v t| < SINGULAR_V_TOL is absolute, and v t has degree 2 in (r, t)")
LARGE_FIBER = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="a wrong K is reported ok at a large fiber scale; the cause is not traced")


class TestFiberScale:
    """``K`` is 0-homogeneous in the fiber direction ``(r, t)``.  It holds
    on the accept3 lattice's directions scaled by ``2^k`` for ``k`` from -10
    to 130.  At ``2^-16`` 192 lanes turn ``denominator_below_tolerance``
    (all of them from ``2^-30``), and at ``2^160`` every lane stays ok but
    65,024 are off by more than 1e-6 relative."""

    @pytest.mark.parametrize("k", [-10, 40, 100, 130, pytest.param(-16, marks=SMALL_FIBER),
                                   pytest.param(160, marks=LARGE_FIBER)])
    def test_the_lattice_keeps_k_at_scale(self, k):
        grid = accept3()
        K, code = _evaluate_points(MetricParams(1.0, 1.55), grid.x, grid.r * 2.0**k,
                                   grid.t * 2.0**k)
        assert (code == OK).all()
        np.testing.assert_allclose(K, grid.K, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("s", [1e-5, 1e30, pytest.param(1e-7, marks=SMALL_FIBER),
                                   pytest.param(1e70, marks=LARGE_FIBER)])
    def test_a_point_keeps_k_at_scale(self, s):
        # 1e-7 reads singular_v and 1e70 reads -74.36136530779999, ok
        sample = flag_curvature(MetricParams(1.0, 1.55), PhasePoint(1.0, 0.0, 0.6 * s, 0.8 * s))
        assert sample.ok
        assert sample.K == pytest.approx(10.134190484512235, rel=1e-12)


# Floats of every kind: NaN, infinities and subnormals come with st.floats,
# the float range's ends and an underflowing square are added by hand.
ANY_FLOAT = st.one_of(
    st.floats(), st.sampled_from([1e308, -1e308, 5e-324, 1e-200, 0.0, -0.0, 1.0])
)
# Below, one ulp above, and above the critical energy, and zero rotation.
CONTRACT_PARAMS = [MetricParams(1.0, 1.4), MetricParams(1.0, 1.5000000000000002),
                   MetricParams(1.0, 1.55), MetricParams(1.0, 2.0),
                   MetricParams(0.0, 2.0)]
ONE_ULP_ABOVE = MetricParams(1.0, 1.5000000000000002)
# A lane classify admits with the radicand 2^-53, where the jets' radicand,
# a product with a reciprocal for the floats' quotient, rounds to 0, so
# their sqrt raises: a family point where the kernel fails a check.
RADICAND_ROUNDS_TO_ZERO = (MetricParams(0.8751882652257628, 1.372436468490984),
                           PhasePoint(0.9565341842614196, 0.0, 0.0, 1.0))


class TestInputContract:
    """Every input gives K or a verdict from the one table, and the point
    query, the domain check and a scan lane agree on it."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(CONTRACT_PARAMS), ANY_FLOAT, ANY_FLOAT, ANY_FLOAT)
    def test_point_and_scan_lane_agree(self, params, x, r, t):
        sample = flag_curvature(params, PhasePoint(x, 0.0, r, t))
        assert (sample.status, sample.reason) in VERDICTS
        assert (sample.K is not None) == sample.ok
        assert sample.K is None or math.isfinite(sample.K)
        domain = validate_domain(params, PhasePoint(x, 0.0, r, t))
        if not domain.ok:
            assert sample.reason == domain.reason
        _, code = _evaluate_points(
            params, np.array([x]), np.array([r]), np.array([t])
        )
        assert code.dtype == np.int8
        assert VERDICTS[code[0]] == (sample.status, sample.reason)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(CONTRACT_PARAMS), ANY_FLOAT, ANY_FLOAT, ANY_FLOAT)
    def test_scalar_fstar_agrees_with_classify(self, params, x, r, t):
        # The scalar F* keeps no domain rules of its own.  It raises where
        # classify rejects the chart's singular x = 0, a fiber, an input or
        # a radicand (NaN, 0 or below), and is finite where classify admits
        # a point, unless x * x, t * t / x^2 or L* itself leaves the float
        # range (x = 1e308): classify judges the radicand, not the value.
        # The rest of the chart band is K's rule, not F*'s.
        code = classify(params, x, r, t)[0]
        rejects = code in (NONFINITE_INPUT, ZERO_FIBER_DIRECTION, NEGATIVE_RADICAND,
                           UNDEFINED_RADICAND) or (code == CHART_SINGULARITY and x == 0.0)
        moderate = all(v == 0.0 or 2.0**-100 < abs(v) < 2.0**100 for v in (x, r, t))
        for fn in (fstar_polar, lstar):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    value = fn(params, PhasePoint(x, 0.0, r, t))
                except DomainError:
                    value = None
            if rejects:
                assert value is None
            elif code == OK and moderate:
                assert value is not None and math.isfinite(value)

    def test_one_ulp_above_critical_energy_matches_grid(self):
        # rounding fails the hypothesis certificate a|x| < (x^2/4 + c/2)^2
        # here; no rule reads it, so the point evaluates as the grid row does
        spec = GridSpec(x_min=1.0, x_max=1.0, nx=1, phi_min=0.1, phi_max=0.1,
                        nphi=1, c=ONE_ULP_ABOVE.c, a=1.0)
        result, _ = grid_scan(spec)
        sample = flag_curvature(ONE_ULP_ABOVE, result.point(0))
        assert result.status[0] == sample.status == "ok"
        assert abs(sample.K - result.K[0]) <= 1e-9

    def test_nan_radicand_is_undefined_everywhere(self):
        # r * r underflows with t = 0, so the radicand is 0/0: not negative
        params, pt = MetricParams(1.0, 2.0), PhasePoint(1.0, 0.0, 1e-200, 0.0)
        verdict = ("domain_error", "undefined_radicand")
        sample = flag_curvature(params, pt)
        assert (sample.status, sample.reason) == verdict and sample.K is None
        domain = validate_domain(params, pt)
        assert domain.reason == "undefined_radicand" and math.isnan(domain.radicand)
        _, code = _evaluate_points(
            params, np.array([1.0]), np.array([1e-200]), np.array([0.0])
        )
        assert VERDICTS[code[0]] == verdict
        # a lattice row: x * x overflows and r = sin 0 = 0, so 0 * inf
        result, _ = grid_scan(GridSpec(x_min=1e200, x_max=1e200, nx=1, phi_min=0.0,
                                       phi_max=0.0, nphi=1, c=2.0, a=1.0))
        assert (result.status[0], result.reason[0]) == verdict
        lattice_point = result.point(0)
        assert flag_curvature(params, lattice_point).reason == "undefined_radicand"

    @pytest.mark.parametrize("t", [1e-200, -1e-200])
    def test_underflowing_fiber_norm_is_undefined_everywhere(self, t):
        # r * r and t * t / x^2 underflow to 0 though t != 0, so |q| reads 0
        # where it is about 1.4e-200; the true radicand is about 0.55 (t > 0)
        params, pt = MetricParams(1.0, 2.0), PhasePoint(1.0, 0.0, 1e-200, t)
        verdict = ("domain_error", "undefined_radicand")
        sample = flag_curvature(params, pt)
        assert (sample.status, sample.reason) == verdict and sample.K is None
        domain = validate_domain(params, pt)
        assert domain.reason == "undefined_radicand" and math.isnan(domain.radicand)
        _, code = _evaluate_points(
            params, np.array([1.0]), np.array([1e-200]), np.array([t])
        )
        assert VERDICTS[code[0]] == verdict

    def test_one_ulp_above_critical_energy_on_the_ray(self):
        sample = flag_curvature(ONE_ULP_ABOVE, PhasePoint(1.0, 0.0, 0.0, 1.0))
        assert sample.reason == "negative_radicand"
        result, _ = slice_scan(SliceSpec(c=ONE_ULP_ABOVE.c, a=1.0, x_min=1.0, x_max=1.0, n=2))
        assert result.reason.tolist() == ["negative_radicand"] * 2


def extreme_draws(n, seed):
    """``(params, x, r, t)`` from seeded extreme draws: zeros of both signs,
    subnormals, infinities, NaN, the float range's ends, squares that
    underflow, ``a = 0``, and ``c`` a few ulps off the critical energy or
    anywhere in ``1e-300 .. 1e300``."""
    rng = np.random.default_rng(seed)
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2e-310, math.inf, -math.inf, math.nan,
                1e300, -1e300, 1e-300, 1e-200, -1e-170, 1e154, 1.0]

    def coordinate():
        kind = rng.integers(4)
        if kind == 0:
            return float(rng.choice(specials))
        scale = (10.0 ** rng.uniform(-300, 300), 10.0 ** rng.uniform(-200, -150), 4.0)
        return float(rng.uniform(-1.0, 1.0) * scale[kind - 1])

    draws = []
    for _ in range(n):
        a = float(rng.choice([0.0, 1.0, 2.5]))
        kind = rng.integers(3)
        if kind == 0:
            critical = MetricParams(a, 1.0).critical_c
            c = critical * (1.0 + float(rng.integers(-3, 4)) * 2.0**-52) or 1.5  # a = 0
        else:
            c = float(10.0 ** rng.uniform(-300, 300)) if kind == 1 else float(rng.uniform(0.1, 5.0))
        x, r, t = coordinate(), coordinate(), coordinate()
        if rng.integers(16) == 0:  # a zero fiber direction, off the chart band
            x, r, t = 1.0 if abs(x) < 1e-3 else x, 0.0, -0.0
        if rng.integers(8) == 0:  # the fiber ray at x = 1, where the radicand is least
            a, c = 1.0, 1.5 + float(rng.integers(0, 4)) * 2.0**-52
            x, r, t = 1.0, 0.0, 1.0
        draws.append((MetricParams(a, c), x, r, t))
    return draws


class TestPointsOnFloats:
    """A point query runs on floats from input to verdict: the same rule
    lists as a block's, with NumPy's values where a float operation raises,
    and no NumPy array once the emitted kernel is in place."""

    DRAWS = extreme_draws(1200, seed=18)

    def test_classify_on_floats_matches_one_lane_arrays(self):
        codes = set()
        for params, x, r, t in self.DRAWS:
            code, rad = classify(params, x, r, t)
            lane_code, lane_rad = classify(params, *(np.array([v]) for v in (x, r, t)))
            assert type(code) is int and type(rad) is float
            assert code == lane_code[0]
            assert (math.isnan(rad) and np.isnan(lane_rad[0])) or \
                rad.hex() == float(lane_rad[0]).hex()
            codes.add(code)
        assert codes == set(range(NEGATIVE_RADICAND + 2))  # every domain rule fires

    def test_kernel_verdicts_on_floats_match_one_lane_arrays(self):
        values = [0.0, -0.0, 5e-324, 1e-13, -1.0, 1e300, math.inf, -math.inf, math.nan]
        for K, vt, det in itertools.product(values, repeat=3):
            want = (DEGENERATE_COMETRIC if det <= 0.0
                    else DENOMINATOR_BELOW_TOLERANCE if abs(vt) < SINGULAR_V_TOL
                    else NONFINITE_RESULT if not math.isfinite(K) else OK)
            lane = _verdict(*(np.array([v]) for v in (K, vt, det)))
            assert _verdict(K, vt, det) == lane[0] == want

    def test_warm_point_queries_match_a_first_query(self, monkeypatch):
        verdicts = set()
        for params, x, r, t in self.DRAWS:
            pt = PhasePoint(x, 0.0, r, t)
            monkeypatch.setattr(curvature._FAMILY, "warm", False)  # runs the jets
            first, warm = flag_curvature(params, pt), flag_curvature(params, pt)
            assert (warm.status, warm.reason) == (first.status, first.reason)
            assert (warm.K is None and first.K is None) or warm.K.hex() == first.K.hex()
            verdicts.add(warm.reason)
        assert {None, "denominator_below_tolerance", "nonfinite_result"} <= verdicts

    def test_a_point_where_x_squared_underflows(self):
        # x * x underflows to 0, so t * t / x^2 would divide a float by 0;
        # the chart band's rule fires first, and the floats read the
        # radicand as NaN there without dividing, as a one-lane array does
        params, coords = MetricParams(1.0, 2.0), (1e-170, 0.0, 0.3, 0.7)
        code, rad = metric._classify(params, coords[0], *coords[2:])
        assert code == CHART_SINGULARITY and math.isnan(rad)
        K, code = _evaluate(params, *coords)
        lane_K, lane_code = _evaluate(params, *(np.array([v]) for v in coords))
        assert type(code) is int and code == lane_code[0] == CHART_SINGULARITY
        assert math.isnan(K) and np.isnan(lane_K[0])
        assert flag_curvature(params, PhasePoint(*coords)).reason == "chart_singularity"

    def test_a_warm_point_query_makes_no_array(self, monkeypatch):
        params = MetricParams(1.0, 2.0)
        points = [PhasePoint(1.3, 0.0, 0.4, -0.8), PhasePoint(-2.1, 0.0, 0.9, 0.3),
                  PhasePoint(1.3, 0.0, 0.4, 1e-13), PhasePoint(math.nan, 0.0, 0.3, 0.7),
                  PhasePoint(1.0, 0.0, 0.0, 0.0)]
        want = [flag_curvature(params, pt) for pt in points * 2]

        class NoArrays:
            ndarray = np.ndarray  # an isinstance check makes none

            def __getattr__(self, name):
                raise AssertionError(f"np.{name} on a point query")

        def no_block(*args):
            raise AssertionError("a point query ran a block path")

        for module in (metric, curvature):
            monkeypatch.setattr(module, "np", NoArrays())
        for name in ("_kepler_flag_batch", "_flag_batch"):
            monkeypatch.setattr(curvature, name, no_block)
        assert [flag_curvature(params, pt) for pt in points] == want[len(points):]
        assert [s.reason for s in want[:len(points)]] == [
            None, None, "denominator_below_tolerance", "nonfinite_input",
            "zero_fiber_direction"]
        assert validate_domain(params, points[0]).ok

    @pytest.mark.parametrize("number", [int, float, np.float64, np.float32, np.int64])
    def test_numpy_scalar_coordinates_take_the_float_path(self, number):
        # the floats of their values, not one-lane arrays, whose powers
        # round apart from libm's
        params = MetricParams(1.0, 2.0)
        for coords in [(2, 0, 1, -1), (1.25, 0.0, 0.6, 0.8)]:
            if number in (int, np.int64) and not all(float(v).is_integer() for v in coords):
                continue
            pt = PhasePoint(*map(number, coords))
            want = flag_curvature(params, PhasePoint(*map(float, astuple(pt))))
            for _ in range(2):  # a process's first query runs the jets
                assert flag_curvature(params, pt).K.hex() == want.K.hex()
            status = validate_domain(params, pt)
            assert type(status.ok) is bool and type(status.radicand) is float


def _on_fiber(fn):
    return lambda params, pt: fn(keplerflag.cartesian_fiber_point(params, pt))


# Every public function of one polar point, or of its Cartesian fiber:
# lstar_jet runs fstar_polar_jet, and the test of curvature_terms below
# runs flag_curvature on every draw.
SCALAR_API = {
    "fstar_polar": keplerflag.fstar_polar,
    "lstar": keplerflag.lstar,
    "lstar_jet": keplerflag.lstar_jet,
    "validate_domain": keplerflag.validate_domain,
    "classify": lambda params, pt: classify(params, pt.x, pt.r, pt.t),
    "scaling_reduce": keplerflag.scaling_reduce,
    "hypothesis_gap": lambda params, pt: keplerflag.hypothesis_gap(pt.x),
    "cartesian_fiber_point": keplerflag.cartesian_fiber_point,
    "fstar_cartesian": lambda params, pt: keplerflag.fstar_cartesian(
        keplerflag.cartesian_fiber_point(params, pt), params.a),
    "hp_value": _on_fiber(keplerflag.hp_value),
    "lambda_roots": _on_fiber(keplerflag.lambda_roots),
    "hessian_form": _on_fiber(keplerflag.hessian_form),
    "f_of_t": lambda params, pt: keplerflag.f_of_t(pt.x, pt.t),
    "flag_curvature_closed_form": lambda params, pt: flag_curvature_closed_form(params.c, pt.x),
}
# The ValueErrors the API documents beside DomainError and PreconditionError.
DOCUMENTED_VALUE_ERRORS = ("scaling reduction requires a > 0",
                           "half-offset C must be positive and finite")


class TestScalarApiOnExtremeDraws:
    """On extreme draws every public scalar function gives a value or
    raises DomainError, PreconditionError or a documented ValueError, with
    no warning (pytest turns any into an error)."""

    DRAWS = [(params, PhasePoint(x, 0.0, r, t))
             for params, x, r, t in extreme_draws(3000, seed=7)]

    @pytest.mark.parametrize("name", SCALAR_API)
    def test_a_value_or_a_documented_error(self, name):
        for params, pt in self.DRAWS:
            try:
                SCALAR_API[name](params, pt)
            except (DomainError, keplerflag.PreconditionError):
                pass
            except ValueError as exc:
                assert str(exc).startswith(DOCUMENTED_VALUE_ERRORS), (pt, exc)

    def test_curvature_terms_breaks_the_rules_flag_curvature_reports(self):
        # in VERDICTS order; it reads no K, so it has no denominator rule,
        # and there it gives terms or nonfinite_result
        raised = set()
        for params, pt in self.DRAWS:
            reason = flag_curvature(params, pt).reason
            try:
                terms = curvature_terms(params, pt)
            except DomainError as exc:
                got = str(exc).split()[0]
                raised.add(got)
                assert got == reason or (reason, got) == (
                    "denominator_below_tolerance", "nonfinite_result"), (pt, exc)
            else:
                assert reason in (None, "denominator_below_tolerance"), pt
                assert all(map(math.isfinite, astuple(terms))), pt
        assert "nonfinite_result" in raised


class TestOperationBudget:
    """Work per evaluation, by count: a change that adds products,
    derivative jets, pair rows or tape operations fails here, not in a
    noisy timing."""

    def counted(self, monkeypatch, evaluate, *args):
        """``evaluate(*args)`` and its counts: ``Jet.__mul__`` calls (scalar
        factors among them), derivative jets, and the pair rows each lane's
        products gather (``_JetSpace.product``, Horner steps included)."""
        counts = {"mul": 0, "derivative": 0, "pairs": 0}
        mul, derivative, product = Jet.__mul__, Jet.derivative, _JetSpace.product

        def counting_mul(self, other):
            counts["mul"] += 1
            return mul(self, other)

        def counting_derivative(self, index):
            counts["derivative"] += 1
            return derivative(self, index)

        def counting_product(space, a, b, graded=False):
            counts["pairs"] += sum(j.size for *_, j in space._sums)
            return product(space, a, b, graded)

        monkeypatch.setattr(Jet, "__mul__", counting_mul)
        monkeypatch.setattr(Jet, "__rmul__", counting_mul)
        monkeypatch.setattr(Jet, "derivative", counting_derivative)
        monkeypatch.setattr(_JetSpace, "product", counting_product)
        result = evaluate(*args)
        return result, (counts["mul"], counts["derivative"], counts["pairs"])

    def warm(self, monkeypatch, metric, pt):
        """A point query once its tape is emitted, with its counts; the
        operations the emitted tape ran."""
        kernel = curvature._kernel_inputs(metric, *astuple(pt))[0]
        emitted, ran = kernel.emitted, []

        def counting(piece, size):
            return lambda *values: ran.append(size) or piece(*values)

        monkeypatch.setitem(vars(kernel), "emitted", Emitted(
            tuple(map(counting, emitted.pieces, emitted.sizes)), emitted.sizes))
        sample, counts = self.counted(monkeypatch, flag_curvature, metric, pt)
        return sample, counts, sum(ran)

    def test_point_query(self, monkeypatch):
        args = MetricParams(1.0, 2.0), PhasePoint(1.3, 0.0, 0.4, -0.8)
        # The family's first point query runs the jets.  One lane multiplies
        # coordinate jets densely: 8 products, 952 rows.
        monkeypatch.setattr(curvature._FAMILY, "warm", False)
        first, counts = self.counted(monkeypatch, flag_curvature, *args)
        assert first.ok
        assert counts == (34, 10, 3864)
        # A later one runs every operation of the emitted tape once, and no
        # jet arithmetic.
        later, counts, ran = self.warm(monkeypatch, *args)
        assert later == first
        assert counts == (0, 0, 0)
        assert ran == sum(curvature._FAMILY.tape.ops.values()) == 2371

    def test_point_query_python_calls(self):
        # A warm family query is one frame from coordinates to verdict: the
        # classifier's rules, the 4 emitted pieces, the kernel's verdicts.
        args = MetricParams(1.0, 2.0), PhasePoint(1.3, 0.0, 0.4, -0.8)
        want = flag_curvature(*args)
        flag_curvature(*args)  # the tape is emitted
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            sample = flag_curvature(*args)
        finally:
            sys.setprofile(None)
        assert sample == want
        # MetricParams computed has_bounded_component when it was made
        assert calls == ["flag_curvature", "_evaluate", "_is_point", "_classify",
                         "_radicand", "_sqrt", "_first_broken", "_0", "_1", "_2", "_3",
                         "_verdict", "_first_broken", "__init__"]
        assert len(curvature._FAMILY.emitted.pieces) == 4

    def test_callback_point_query(self, monkeypatch):
        # A callback's tape is its own, recorded at its first point query: a
        # query runs each of its operations once and no jet arithmetic.
        pt = PhasePoint(0.6, -0.8, 0.35, 0.7)
        monkeypatch.setattr(curvature, "_callback_kernel", lru_cache(maxsize=1)(curvature._Kernel))
        first, counts = self.counted(monkeypatch, flag_curvature, SPHERE, pt)
        assert first.ok and counts[0] > 0  # the recording's jets, over tape nodes
        later, counts, ran = self.warm(monkeypatch, SPHERE, pt)
        assert later == first
        assert counts == (0, 0, 0)
        tape = curvature._callback_kernel(SPHERE.fstar).tape
        assert ran == sum(tape.ops.values()) and tape.inputs == 4

    def test_grid_block(self, monkeypatch):
        # A block replays the recorded tape and runs no jet arithmetic.
        tape = curvature._FAMILY.tape
        phi = np.linspace(0.0, 6.0, 256)
        (_, code), counts = self.counted(monkeypatch, _evaluate, MetricParams(1.0, 1.55),
                                         np.linspace(0.5, 3.0, 256), 0.0,
                                         np.sin(phi), np.cos(phi))
        assert (code == 0).all()
        assert counts == (0, 0, 0)
        # 2,315 lane operations, 51 finiteness guards on folded zeros, and
        # the 5 domain checks of Jet.sqrt and Jet.reciprocal
        assert tape.ops == {"mul": 1360, "add": 869, "neg": 33, "sub": 28, "pow": 23,
                            "div": 1, "where": 1, "finite": 51, "nonzero": 3, "positive": 2}
        assert (sum(tape.ops.values()), tape.slots) == (2371, 125)

    def test_callback_block(self, monkeypatch):
        # A callback block whose guard is finite replays its tape alone.
        rng = np.random.default_rng(11)
        columns = rng.uniform(0.5, 2.0, (4, 256))
        assert curvature._callback_kernel(SPHERE.fstar).tape.replay(*columns)[-1].all()
        (K, code), counts = self.counted(monkeypatch, _evaluate, SPHERE, *columns)
        assert (code == OK).all() and np.allclose(K, 1.0)
        assert counts == (0, 0, 0)


class TestExtremeLanes:
    """Tiny ``x`` with huge ``t``: the Horner steps' intermediates overflow
    in their top degrees.  A graded step must read ``a[0]``, never an entry
    that may be infinite, where a product with ``delta[0] = 0`` stands in
    for a missing one, or finite lanes turn into ``nonfinite_result``.  The
    jets' verdicts and ``K`` bits (zero signs too) are pinned, batched and
    one by one; the last three lanes' ``x * x`` underflows, so their jets
    raise.  Every lane lies in the chart band, where no query runs the
    jets: the polar chart has lost the digits of these ``K``."""

    PARAMS = MetricParams(1.0, 1.55)
    # (x, r, t, K.hex() or None for nonfinite_result)
    LANES = [
        (-2.2591818598608602e-23, -5.8346000116679e-49, 1.4357134848479093e+99,
         "0x1.0e3a7e997ee12p+102"),
        (2.7685631732656937e-27, -1.5806400299350302e-44, 2.3871586965733063e+93,
         "-0x1.ddd8fb6e0fb34p+127"),
        (8.668458230169411e-29, 6.514927606485219e-34, -3.677217228022736e+85,
         "-0x1.c0e0cc6b03932p+137"),
        (4.226304694337724e-31, -1.021439679296303e-56, -4.157467200252451e+88,
         "0x1.1ecfd4ef75d1bp+153"),
        (4.656281629285373e-25, 27182069.344687253, -3.6330022092024106e+98,
         "-0x1.7e723103966aep+113"),
        (-4.977811381886077e-27, 2.1207800404969625e-55, 7.276692546183152e+99,
         "-0x1.6d94555c2b58dp+125"),
        (-3.7186960619285245e-25, 5.640523480156166e-30, -4.42014567766304e+98,
         "0x1.8b7f10baf7d7dp+115"),
        (-1.8021419780727402e-30, -3.926706644016309e+17, 2.504979171330821e+87,
         "-0x1.5eb4afa4c8162p+150"),
        (-1.0155304407666008e-26, -0.36714300130301186, -1.3995402315834706e+97,
         "0x0.0p+0"),
        (-6.1239315570408305e-27, 3.1974499529191234e+59, -2.4810469918748877e+92,
         "0x0.0p+0"),
        (-6.1944732396659606e-27, 1.216479923420062e+16, -8.352926701435046e+89,
         "-0x1.6beb3f420b2c5p+126"),
        (1.3872706463433542e-29, 4.052869094017383e-43, -3.5804546035875477e+93,
         "-0x1.b4e5a42d11cc6p+143"),
        (-5.190912908815871e-40, -6.810934590798147e-25, -7.5949136175639775e+90, None),
        (-2.5009436849802494e-270, -2.039987398911756e+28, 3.2803006152786805e+93, None),
        (1.904858822544933e-221, -9.777467703902095e+24, -2.9411810110492083e+83, None),
        (-1.1804988572896513e-300, -743717933399.9648, 3.0885137770897406e+80, None),
    ]

    def expected(self):
        return [(VERDICTS[0] if pin else ("domain_error", "nonfinite_result"), pin)
                for *_, pin in self.LANES]

    def test_batched(self):
        x, r, t = (np.array(column) for column in list(zip(*self.LANES))[:3])
        with pytest.raises(DomainError):
            _flag_batch(self.PARAMS, x, 0.0, r, t)
        runs = slice(0, -3)
        K, vt, det = _flag_batch(self.PARAMS, x[runs], 0.0, r[runs], t[runs])
        got = [(VERDICTS[c], None if np.isnan(k) else float(k).hex())
               for k, c in zip(K, _verdict(K, vt, det))]
        assert got == self.expected()[runs]

    def test_one_by_one(self):
        got = []
        for x, r, t, _ in self.LANES:
            try:
                K, vt, det = map(float, _flag_batch(self.PARAMS, x, 0.0, r, t))
            except DomainError:
                K = vt = det = math.nan
            code = _verdict(K, vt, det)
            got.append((VERDICTS[code], None if math.isnan(K) else K.hex()))
        assert got == self.expected()

    def test_queries_report_the_chart_band(self):
        x, r, t = (np.array(column) for column in list(zip(*self.LANES))[:3])
        K, code = _evaluate(self.PARAMS, x, 0.0, r, t)
        assert (code == CHART_SINGULARITY).all() and np.isnan(K).all()
        for x, r, t, _ in self.LANES:
            assert flag_curvature(self.PARAMS, PhasePoint(x, 0.0, r, t)).reason == \
                "chart_singularity"


def lane_by_lane(metric, *columns):
    """``(K, vt, det)`` of the jets run on each lane alone, NaN where they
    raise."""
    lanes = []
    for i in range(columns[0].size):
        try:
            lanes.append(_flag_batch(metric, *(c[i:i + 1] for c in columns)))
        except DomainError:
            lanes.append((np.full(1, np.nan),) * 3)
    return [np.concatenate(v) for v in zip(*lanes)]


class TestGuardedBlock:
    """A block never raises: a lane that fails a tape check ends NaN, as
    its jets give alone, for the built-in family and for a callback, which
    replays a tape of its own.  Either way the result is the one a
    lane-by-lane rerun of the jets gives."""

    PARAMS = MetricParams(1.0, 2.0)
    FAILING = [0, 5, 6, 20, 35]
    # L* = 1e9 (r^2 - t^2) / 2: the sqrt check fails where |r| <= |t|
    INDEFINITE = CallbackCartanMetric(
        lambda x, y, r, t: (1e9 * r * r - 1e9 * t * t + 0.0 * x).sqrt()
    )

    def columns(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.5, 1.0, 36)
        x[self.FAILING] = 1e-200  # x * x underflows
        phi = rng.uniform(0.0, 2.0 * math.pi, 36)
        return x, np.zeros(36), np.sin(phi), np.cos(phi)

    def callback_columns(self):
        x, y, r, t = self.columns()
        x[self.FAILING] = 0.75
        r[self.FAILING] = t[self.FAILING] = 0.0  # the fiber norm's sqrt raises
        return x, y, r, t

    def assert_lane_by_lane(self, got, metric, columns):
        for g, w in zip(got, lane_by_lane(metric, *columns)):
            assert np.array_equal(g.view(np.int64), w.view(np.int64))
        ok = np.ones(36, bool)
        ok[self.FAILING] = False
        assert np.isnan(got[0][~ok]).all() and np.isfinite(got[0][ok]).all()
        # the other lanes, batched on their own, give the same bits
        alone = _flag_batch(metric, *(c[ok] for c in columns))
        for g, w in zip(got, alone):
            assert np.array_equal(g[ok].view(np.int64), w.view(np.int64))

    def test_matches_lane_by_lane(self):
        columns = self.columns()
        with pytest.raises(DomainError):
            _flag_batch(self.PARAMS, *columns)
        got = _kepler_flag_batch(self.PARAMS, *columns)
        self.assert_lane_by_lane(got, self.PARAMS, columns)

    def test_a_callback_block_matches_lane_by_lane(self):
        columns = self.callback_columns()
        with pytest.raises(DomainError):
            _flag_batch(FLAT, *columns)
        self.assert_lane_by_lane(_kepler_flag_batch(FLAT, *columns), FLAT, columns)

    def test_keeps_the_block_shape(self):
        columns = self.callback_columns()
        flat = _kepler_flag_batch(FLAT, *columns)
        square = _kepler_flag_batch(FLAT, *(c.reshape(6, 6) for c in columns))
        for g, w in zip(square, flat):
            assert g.shape == (6, 6)
            assert np.array_equal(g.ravel().view(np.int64), w.view(np.int64))

    def test_an_indefinite_callback_block_replays_once(self, monkeypatch):
        # About half the lanes fail the sqrt check: one replay marks them,
        # and no lane whose guard is finite runs the jets.
        rng = np.random.default_rng(8)
        columns = rng.uniform(-2.0, 2.0, (4, 512))
        columns[2:, :16] = 0.0  # r = t = 0
        columns[0, 16:32] = 0.0
        columns[0, 32:48] = 1e-200
        with np.errstate(all="ignore"):
            kernel = curvature._callback_kernel(self.INDEFINITE.fstar)
            assert kernel.tape.replay(*columns)[-1].all()
        replays, jets = [], []
        replay, flag_batch = Tape.replay, curvature._flag_batch
        monkeypatch.setattr(Tape, "replay",
                            lambda self, *inputs: replays.append(1) or replay(self, *inputs))
        monkeypatch.setattr(curvature, "_flag_batch",
                            lambda metric, *lanes: jets.append(lanes) or flag_batch(metric, *lanes))
        K, code = _evaluate(self.INDEFINITE, *columns)
        assert (replays, jets) == ([1], [])
        monkeypatch.undo()
        # every lane the sqrt admits is degenerate_cometric: det = -1e18
        want = lane_by_lane(self.INDEFINITE, *columns)
        assert np.array_equal(code, _verdict(*want)) and np.isnan(K).all()
        assert 0.3 < (code == NONFINITE_RESULT).mean() < 0.7
        assert set(code.tolist()) == {DEGENERATE_COMETRIC, NONFINITE_RESULT}
        for g, w in zip(_kepler_flag_batch(self.INDEFINITE, *columns), want):
            assert np.array_equal(g.view(np.int64), w.view(np.int64))


CALLBACKS = {
    "flat": FLAT, "hyperbolic": HYPERBOLIC, "power_two": POWER_TWO, "sphere": SPHERE,
    "degenerate": CallbackCartanMetric(lambda x, y, r, t: r + 2.0 * t + 0.0 * x),
    "indefinite": TestGuardedBlock.INDEFINITE,
    # a family's flat limit: the sqrt's argument folds to the number 1.0
    "flat_limit": CallbackCartanMetric(
        lambda x, y, r, t: (1.0 + 0.0 * x * x).sqrt() * (r * r + t * t).sqrt()),
    "single_lane_constant": CallbackCartanMetric(
        lambda x, y, r, t: (r * r + t * t).sqrt() * (x * x + Jet.constant(1.0, 4, 4))),
}


@pytest.mark.parametrize("name", CALLBACKS)
def test_a_callback_tape_keeps_the_bits_of_its_jets(name):
    # Lanes in [-2, 2]^4, some at x = 0, at r = t = 0 or at x = 1e-200.
    metric = CALLBACKS[name]
    columns = np.random.default_rng(12).uniform(-2.0, 2.0, (4, 256))
    columns[0, :8], columns[2:, 8:16], columns[0, 16:24] = 0.0, 0.0, 1e-200
    got = _kepler_flag_batch(metric, *columns)
    want = lane_by_lane(metric, *columns)
    # zero signs of v t aside: the tape folds ``v * 0`` to +0.0
    zero = want[1] == 0.0
    assert (got[1][zero] == 0.0).all()
    got[1][zero] = want[1][zero]
    for g, w in zip(got, want):
        nan = np.isnan(w)
        assert np.array_equal(np.isnan(g), nan)
        assert np.array_equal(g[~nan].view(np.int64), w[~nan].view(np.int64))
    assert np.array_equal(_verdict(*got), _verdict(*want))


def test_callback_mixing_a_single_lane_constant_into_a_batch():
    # Jet.constant(1.0, 4, 4) is single-lane: on a 2-lane block it broadcasts
    # as a one-lane batch would, and each lane keeps the bits it has alone.
    metric = CallbackCartanMetric(
        lambda x, y, r, t: (r * r + t * t).sqrt() * (x * x + Jet.constant(1.0, 4, 4))
    )
    columns = [np.array(v) for v in ([0.7, 1.3], [0.1, -0.4], [0.3, -0.9], [1.1, 0.6])]
    K, code = _evaluate(metric, *columns)
    assert (code == 0).all()
    for lane in range(2):
        K_lane, code_lane = _evaluate(metric, *(c[lane:lane + 1] for c in columns))
        assert code_lane[0] == code[lane]
        assert K_lane.view(np.int64)[0] == K.view(np.int64)[lane]


class TestPerLaneParameters:
    """The built-in family with lane arrays of ``(a, c)``: the classifier,
    the tape and the jets fallback each read every lane's own pair."""

    # (2, 1) has no bounded component: classify rejects its lanes
    PAIRS = [(1.0, 2.0), (0.0, 0.7), (2.5, 3.5), (2.0, 1.0)]

    def columns(self):
        rng = np.random.default_rng(21)
        pair = np.arange(96) % len(self.PAIRS)
        a, c = np.array(self.PAIRS)[pair].T
        phi = rng.uniform(0.0, 2.0 * math.pi, 96)
        x, y = rng.uniform(-3.0, 3.0, 96), rng.uniform(-math.pi, math.pi, 96)
        return pair, a, c, x, y, np.sin(phi), np.cos(phi)

    def test_matches_one_pair_at_a_time(self):
        pair, a, c, *coords = self.columns()
        K, code = _evaluate(MetricParams(a, c), *coords)
        for k, params in enumerate(itertools.starmap(MetricParams, self.PAIRS)):
            K_pair, code_pair = _evaluate(params, *(v[pair == k] for v in coords))
            assert np.array_equal(code[pair == k], code_pair)
            assert np.array_equal(K[pair == k].view(np.int64), K_pair.view(np.int64))
        assert {OK, 4} <= set(code.tolist())  # 4: energy_below_critical

    def test_the_jets_fallback_reads_each_lanes_pair(self, monkeypatch):
        _, a, c, *coords = self.columns()
        admitted = classify(MetricParams(a, c), coords[0], *coords[2:])[0] == OK
        a, c, x, y, r, t = (v[admitted] for v in (a, c, *coords))
        replay = Tape.replay

        def inexact_on_every_third(self, *inputs):
            *out, exact = replay(self, *inputs)
            exact[::3] = False
            return (*out, exact)

        monkeypatch.setattr(Tape, "replay", inexact_on_every_third)
        got = _kepler_flag_batch(MetricParams(a, c), x, y, r, t)
        monkeypatch.undo()
        replayed = _kepler_flag_batch(MetricParams(a, c), x, y, r, t)
        for i in range(x.size):
            lane = (v[i:i + 1] for v in (x, y, r, t))
            want = _flag_batch(MetricParams(a[i], c[i]), *lane) if i % 3 == 0 else \
                [v[i:i + 1] for v in replayed]
            for g, w in zip(got, want):
                assert g[i:i + 1].view(np.int64) == w.view(np.int64)

    @pytest.mark.parametrize("a, c", [(-1.0, 2.0), (math.nan, 2.0), (math.inf, 2.0),
                                      (1.0, 0.0), (1.0, math.nan), (1.0, -math.inf)])
    def test_one_bad_lane_raises_as_a_number_does(self, a, c):
        with pytest.raises(ValueError) as number:
            MetricParams(a, c)
        ones = np.ones(3)
        for lanes in [(np.array([1.0, a, 0.5]), np.array([2.0, c, 3.0])),  # lane 1
                      (a * ones, c), (a, c * ones)]:
            with pytest.raises(ValueError) as array:
                MetricParams(*lanes)
            assert str(array.value) == str(number.value)


class TestScalingIdentity:
    """``K_{c,a}(pt) = a^(2/3) K_{c a^(-2/3), 1}(pt')`` under
    ``scaling_reduce``: a check of ``K`` off the oracle ray, which with the
    closed form reaches every ``a > 0``.  Point queries run the emitted
    tape (the first of each tape, the single-lane jets), blocks replay it."""

    TOL = 1e-9

    def assert_scaled(self, a, lhs, rhs):
        lhs, rhs = np.asarray(lhs), a ** (2.0 / 3.0) * np.asarray(rhs)
        rel = np.abs(lhs - rhs) / np.maximum(np.abs(lhs), np.abs(rhs))
        assert rel.max() <= self.TOL

    def test_point_queries(self):
        rng = np.random.default_rng(7)
        ok = 0
        for _ in range(400):
            params, pt = random_admissible(rng)
            if params.a == 0.0:
                continue
            here, there = flag_curvature(params, pt), flag_curvature(*scaling_reduce(params, pt))
            assert (here.status, here.reason) == (there.status, there.reason)
            if here.ok:
                self.assert_scaled(params.a, here.K, there.K)
                ok += 1
        assert ok >= 300

    @pytest.mark.parametrize("a", [0.5, 1.5, 2.5])
    def test_blocks(self, a):
        rng = np.random.default_rng(8)
        params = MetricParams(a, 2.5 * a ** (2.0 / 3.0))
        points = [random_admissible(rng, a=params.a, c=params.c)[1] for _ in range(300)]
        pt = PhasePoint(*(np.array([getattr(p, f) for p in points]) for f in "xyrt"))
        reduced, moved = scaling_reduce(params, pt)
        K, code = _evaluate(params, pt.x, pt.y, pt.r, pt.t)
        K_moved, code_moved = _evaluate(reduced, moved.x, moved.y, moved.r, moved.t)
        assert np.array_equal(code, code_moved)
        ok = code == 0
        assert ok.sum() >= 250
        self.assert_scaled(a, K[ok], K_moved[ok])


def test_steady_256_lane_evaluate_peaks_under_one_megabyte():
    # the tape replays into one buffer of 124 rows, 248 KiB at 256 lanes
    import tracemalloc

    phi = np.linspace(0.0, 6.0, 256)
    args = (MetricParams(1.0, 1.55), np.linspace(0.5, 3.0, 256), 0.0,
            np.sin(phi), np.cos(phi))
    _evaluate(*args)
    tracemalloc.start()
    try:
        _, code = _evaluate(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code == 0).all()
    assert peak < 1 << 20


# float64 K of flag_curvature, recorded as hex before the scalar path was
# trimmed; the trim keeps the arithmetic and its order, so the bits stay.
KEPLER_PINS = [
    ((2.4826954893044917, 4.297269735894012),
     (3.08981157793739, 0.29722533446995403, -0.4786667418941392, -0.2359053462262806),
     "0x1.1290459ae7fa3p+3"),
    ((1.157981100801363, 2.5043051216166727),
     (2.0411295845013857, -1.3923573977469745, -2.0900872008112166, -4.950454428419792),
     "0x1.39e9edc67a836p+2"),
    ((2.1324706850323216, 2.7130661864223553),
     (-3.7575089913632485, -2.299765447499513, -0.4310657664648123, 0.23631611919511153),
     "0x1.1c8c26927314fp+2"),
    ((1.9342423999865814, 3.1246864744133487),
     (3.892366863560824, -1.951289942826233, 1.4359964229089521, -2.046792255407535),
     "0x1.99b3caddf70ccp+2"),
    ((0.4161870759984455, 2.594934826335374),
     (-0.8330196091432275, -2.673051040755001, 0.03988498091277153, -2.386291428840909),
     "0x1.3209f44799380p+2"),
    # the ray (x, 0, 0, x)
    ((1.0, 1.55), (4.707446082045725, 0.0, 0.0, 4.707446082045725), "0x1.9943bbae2d658p+0"),
    ((1.0, 1.55), (-6.096488375828793, 0.0, 0.0, -6.096488375828793), "0x1.0aaff4ae026f3p+2"),
    ((1.0, 5.0), (-0.7695606280762983, 0.0, 0.0, -0.7695606280762983), "0x1.2a950a1bffc50p+3"),
    ((1.0, 1.51), (1.02, 0.0, 0.0, 1.02), "0x1.488e537c5c0ddp+5"),
    # the acceptance-3 lattice point of largest K
    ((1.0, 1.55), (-1.0235294117647058, 0.0, -0.24391372010837756, 0.9697969360350094),
     "0x1.e680c32e08bf2p+3"),
]
CALLBACK_PINS = [
    (SPHERE, (0.3, -0.7, 1.1, 0.4), "0x1.ffffffffffffdp-1"),
    (HYPERBOLIC, (1.7, 0.2, -0.6, 0.9), "-0x1.0000000000012p+0"),
]
# closed form at (c, x), the first three close to the radicand's zero set
CLOSED_FORM_PINS = [
    (1.5001, 1.0, "0x1.f0941f9695722p+10"),
    (1.500001, 0.999, "-0x1.b8ce10cf28644p+18"),
    (1.51, 1.02, "0x1.488e537c5c0bap+5"),
    (1.55, 4.70744608, "0x1.9943bbac5ac24p+0"),
    (2.0, -3.0, "0x1.2488b79a10b7ap+2"),
    (5.0, 0.3, "0x1.410128643f14dp+3"),
]


class TestBitPins:
    @pytest.mark.parametrize("ac, point, pin", KEPLER_PINS)
    def test_kepler(self, ac, point, pin):
        assert flag_curvature(MetricParams(*ac), PhasePoint(*point)).K.hex() == pin

    @pytest.mark.parametrize("metric, point, pin", CALLBACK_PINS,
                             ids=["sphere", "hyperbolic"])
    def test_callback(self, metric, point, pin):
        assert flag_curvature(metric, PhasePoint(*point)).K.hex() == pin

    @pytest.mark.parametrize("c, x, pin", CLOSED_FORM_PINS)
    def test_closed_form(self, c, x, pin):
        assert flag_curvature_closed_form(c, x).hex() == pin


def scalar_path_lines():
    """One line per scalar query: ``flag_curvature``'s ``K`` bits, status and
    reason, then ``curvature_terms``' field bits (or the raised error's
    type and reason code) at every twentieth query and at each edge point."""
    rng = np.random.default_rng(20261019)
    queries = [random_admissible(rng) for _ in range(150)]
    queries += [(MetricParams(1.0, c), PhasePoint(x, 0.0, 0.0, x))
                for c in (1.51, 1.55, 2.0, 5.0)
                for x in np.linspace(-6.0, 6.0, 25).tolist()]
    edges = [
        (MetricParams(1.0, 1.4), PhasePoint(1.0, 0.0, 0.0, 1.0)),
        (MetricParams(1.0, 2.0), PhasePoint(1.0, 0.0, 1.0, 0.0)),
        RADICAND_ROUNDS_TO_ZERO,  # admitted, and the jets raise
        (MetricParams(1.0, 2.0), PhasePoint(1.0, 0.0, 1e-200, 0.0)),
        (MetricParams(1.0, 2.0), PhasePoint(math.nan, 0.0, 0.3, 0.7)),
        (HYPERBOLIC, PhasePoint(0.0, 0.0, 0.3, 0.7)),
        (SPHERE, PhasePoint(0.5, 0.1, 0.0, 0.0)),
    ]
    for metric in (SPHERE, HYPERBOLIC):
        queries += [(metric, PhasePoint(*rng.uniform(-2.0, 2.0, 4).tolist()))
                    for _ in range(20)]
    for metric, pt in queries + edges:
        s = flag_curvature(metric, pt)
        yield f"K {s.K.hex() if s.ok else None} {s.status} {s.reason}"
    for metric, pt in queries[::20] + edges:
        try:
            terms = curvature_terms(metric, pt)
        except DomainError as exc:
            yield f"terms {type(exc).__name__} {str(exc).split()[0]}"
        else:
            yield "terms " + " ".join(float(v).hex() for v in astuple(terms))


def test_scalar_path_digest():
    # sha256 of scalar_path_lines, recorded before the metric adapter
    # classes went; the point path must keep every bit and verdict.  Re-pinned
    # when DegeneracyError went: one line, the HYPERBOLIC edge at x = 0, reads
    # "terms DomainError degenerate_cometric", and no other line moved.
    lines = list(scalar_path_lines())
    assert sum(line.startswith("K 0x") or line.startswith("K -0x") for line in lines) > 250
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "9cd5c9590136e97b544673a65a43fc3d3650e39003df8e904ee931bb37afc084"


# ----------------------------------------------------------------------
# Closed form: transcription guard and analytic spot values.

# Independent second transcription of the bracket, entered from the source
# as (coefficient, x power, c power, root power) in printed order.
BRACKET_TABLE = [
    (5824, 2, 4, 0), (-5888, 3, 5, 0), (-3840, 2, 1, 0), (-2240, 1, 6, 0),
    (-6320, 5, 4, 0), (-384, 2, 0, 1), (1120, 6, 5, 0), (2, 14, 1, 0),
    (28, 12, 2, 0), (-6528, 5, 1, 0), (256, 0, 8, 0), (-864, 1, 5, 1),
    (-1872, 3, 4, 1), (896, 2, 7, 0), (-1296, 7, 0, 0), (204, 10, 0, 0),
    (-768, 0, 5, 0), (-9, 13, 0, 0), (2096, 8, 1, 0), (-160, 11, 1, 0),
    (-1060, 9, 2, 0), (-3520, 7, 3, 0), (11520, 4, 3, 0), (3840, 1, 3, 0),
    (7584, 6, 2, 0), (-5952, 3, 2, 0), (-648, 7, 2, 1), (-126, 9, 1, 1),
    (-1120, 3, 1, 1), (2448, 4, 2, 1), (1152, 1, 2, 1),
    (1920, 4, 0, 0), (168, 10, 3, 0), (1344, 4, 6, 0), (560, 8, 4, 0),
    (1032, 6, 1, 1), (-1584, 5, 3, 1), (1632, 2, 3, 1),
    (128, 0, 7, 1), (384, 2, 6, 1), (-9, 11, 0, 1), (2, 12, 1, 1),
    (132, 8, 0, 1), (320, 6, 4, 1), (120, 8, 3, 1),
    (24, 10, 2, 1), (480, 4, 5, 1), (-528, 5, 0, 1), (-384, 0, 4, 1),
]


def table_parts(x, c):
    plain = Fraction(0)
    alpha = Fraction(0)
    for coef, xp, cp, ap in BRACKET_TABLE:
        term = Fraction(coef) * x**xp * c**cp
        if ap:
            alpha += term
        else:
            plain += term
    return plain, alpha


class TestClosedFormTranscription:
    def test_two_transcriptions_agree_exactly(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            x = Fraction(int(rng.integers(-50, 50)), int(rng.integers(1, 20)))
            c = Fraction(int(rng.integers(1, 80)), int(rng.integers(1, 20)))
            plain_table, alpha_table = table_parts(x, c)
            assert _bracket_plain(x, c, 1) == plain_table
            assert _bracket_alpha(x, c, 1) == alpha_table

    @pytest.mark.parametrize("c, x", [(5e-324, 1e77), (1.55, 1e-300), (1.55, -1e-300),
                                      (1e150, -3.0)])
    def test_the_integer_brackets_are_the_table_summed_term_by_term(self, c, x):
        # x = X / w and c = C / w, as the oracle scales them: the brackets
        # times w**24 and w**22 are integers, at magnitudes far apart
        (X, wx), (C, wc) = x.as_integer_ratio(), c.as_integer_ratio()
        w = max(wx, wc)
        X, C = X * (w // wx), C * (w // wc)
        plain = sum(coef * X**xp * C**cp * w**(24 - xp - cp)
                    for coef, xp, cp, ap in BRACKET_TABLE if not ap)
        alpha = sum(coef * X**xp * C**cp * w**(22 - xp - cp)
                    for coef, xp, cp, ap in BRACKET_TABLE if ap)
        assert _bracket_plain(X, C, w) == plain
        assert _bracket_alpha(X, C, w) == alpha

    def test_term_count(self):
        assert len(BRACKET_TABLE) == 49

    def test_rational_reference_point(self):
        # at (c, x) = (2, 1) the root radicand is 9, so everything is
        # rational: bracket = 58368, denominator = 8 * 32 * 81, K = 152/27
        plain, alpha_coef = table_parts(Fraction(1), Fraction(2))
        assert plain + 3 * alpha_coef == 58368
        assert flag_curvature_closed_form(2.0, 1.0) == pytest.approx(
            152.0 / 27.0, rel=1e-15
        )


def closed_form_points():
    """Seeded ``(c, x)`` with ``c > 0``: uniform draws, magnitudes from
    1e-300 to 1e150, and points near ``(c, x) = (1.5, 1)``, where the
    radicand's zero set has its double point."""
    rng = np.random.default_rng(20261020)
    points = [(float(rng.uniform(0.0, 8.0)), float(rng.uniform(-10.0, 10.0)))
              for _ in range(120)]
    for _ in range(120):
        sign = (-1.0, 1.0)[rng.integers(2)]
        points.append((float(10.0 ** rng.uniform(-300.0, 150.0)),
                       sign * float(10.0 ** rng.uniform(-300.0, 150.0))))
    for _ in range(80):
        dc, dx = ((-1.0, 1.0)[rng.integers(2)] * float(10.0 ** rng.uniform(-15.0, -2.0))
                  for _ in range(2))
        points.append((1.5 + dc, 1.0 + dx))
    return points


def test_closed_form_digest():
    # sha256 of one line per closed_form_points point, the oracle's K bits
    # or its error, recorded while the oracle ran in 50-digit mpmath
    lines = []
    for c, x in closed_form_points():
        try:
            lines.append(flag_curvature_closed_form(c, x).hex())
        except DomainError as exc:
            lines.append(f"{type(exc).__name__} {exc}")
    assert sum(not line.startswith("DomainError") for line in lines) > 200
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "ab9799dc5a359241a3719b3977e47ebcdbf87ed9d0612b1d0f90b47384be5c2f"


def reference_closed_form(c, x):
    """The closed form from BRACKET_TABLE in 400-digit mpmath, as a float:
    every power and the plain part are exact there, and only the root
    rounds."""
    with mpmath.workdps(400):
        xm, cm = mpmath.mpf(x), mpmath.mpf(c)
        s = xm**2 + 2 * cm
        beta = s**2 - 16 * xm
        alpha = mpmath.sqrt(beta)
        bracket = sum(coef * xm**xp * cm**cp * alpha**ap
                      for coef, xp, cp, ap in BRACKET_TABLE)
        return float(2 * bracket / ((s + alpha) * (s * alpha + s**2 - 8 * xm) * beta**2))


# neighbouring floats x between which K(c, x) changes sign: the bracket's
# plain part and its root part cancel to within a few units of 2**-53
K_SIGN_CHANGES = [
    (1.51, 0.08709509395310747, 0.08709509395310748),
    (1.51, 0.9662796663552381, 0.9662796663552382),
    (1.51, 1.3742988516049803, 1.3742988516049806),
    (1.51, 1.4694374265613206, 1.4694374265613208),
    (1.55, 0.15032274787673866, 0.1503227478767387),
    (1.55, 0.8839343104201536, 0.8839343104201537),
]


def test_closed_form_is_correctly_rounded():
    points = [(c, x) for c, x, _ in CLOSED_FORM_PINS] + closed_form_points()[::5]
    points += [(c, x) for c, lo, hi in K_SIGN_CHANGES for x in (lo, hi)]
    checked = 0
    for c, x in points:
        try:
            K = flag_curvature_closed_form(c, x)
        except DomainError:
            continue
        assert K == reference_closed_form(c, x), (c, x)
        checked += 1
    assert checked >= 45
    assert sum(abs(c - 1.5) < 1e-2 for c, x in points) >= 15
    # at the sign changes P and alpha A differ in sign, so K comes from the
    # conjugate (P**2 - beta A**2) / (P - alpha A)
    for c, lo, hi in K_SIGN_CHANGES:
        plain, alpha_coef = table_parts(Fraction(lo), Fraction(c))
        assert plain * alpha_coef < 0
        assert flag_curvature_closed_form(c, lo) * flag_curvature_closed_form(c, hi) < 0.0


def test_importing_the_package_leaves_mpmath_unloaded():
    code = "import sys, keplerflag; print('mpmath' in sys.modules)"
    src = str(Path(keplerflag.__file__).resolve().parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path}, check=True)
    assert proc.stdout == "False\n"


class TestClosedFormEvaluation:
    def test_negative_x_is_valid(self):
        k = flag_curvature_closed_form(1.51, -3.0)
        assert math.isfinite(k)

    def test_radicand_violation_raises(self):
        # at c = 1.2 the radicand dips negative around x = 1
        with pytest.raises(DomainError):
            flag_curvature_closed_form(1.2, 1.0)

    @pytest.mark.parametrize("c, x", [
        (2.0, math.nan), (2.0, math.inf), (2.0, -math.inf), (math.nan, 1.0),
        (math.inf, 1.0),
    ])
    def test_nonfinite_input_raises(self, c, x):
        with pytest.raises(DomainError, match="finite"):
            flag_curvature_closed_form(c, x)

    @pytest.mark.parametrize("c, x", [(0.0, 1.0), (-0.0, 1.0), (-1.0, 1e-10), (-5e-324, 2.0)])
    def test_nonpositive_c_raises(self, c, x):
        # at c = -1, x = 1e-10 the denominator's factors cancel: K is
        # -6.00000000715e-20, and 50-digit arithmetic read -6.41e-20
        with pytest.raises(DomainError, match="needs c > 0"):
            flag_curvature_closed_form(c, x)

    def test_a_value_beyond_the_float_range_is_an_infinity(self):
        assert flag_curvature_closed_form(5e-324, -5e-324) == -math.inf

    @pytest.mark.parametrize("c, x", [(2.0, 1e200), (2.0, -1e200), (1e200, 1.0)])
    def test_overflowing_radicand_raises(self, c, x):
        # x**4 or c**2 leaves the float range before the radicand is formed
        with pytest.raises(DomainError, match="overflows"):
            flag_curvature_closed_form(c, x)

    def test_radicand_overflowing_without_error_keeps_its_value(self):
        # 4 c**2 overflows to inf without raising; the exact evaluation
        # still gives the zero-rotation limit K = 2c, as it always did
        assert flag_curvature_closed_form(1e154, 1.0) == pytest.approx(2e154, rel=1e-12)

    def test_extended_precision_is_stable_near_radicand_zero(self):
        # just above the critical energy the bracket cancels catastrophically;
        # doubling the working precision must not move the result
        for (c, x) in [(1.5001, 1.0), (1.500001, 0.999), (1.51, 1.02)]:
            k50 = flag_curvature_closed_form(c, x, dps=50)
            k200 = flag_curvature_closed_form(c, x, dps=200)
            assert k50 == pytest.approx(k200, rel=1e-10)

    def test_large_energy_limit_matches_moser_value(self):
        # for c >> 1 the rotation term is negligible and K approaches the
        # zero-rotation constant 2c
        for c in (1e3, 1e4):
            assert flag_curvature_closed_form(c, 1.0) == pytest.approx(
                2.0 * c, rel=1e-2
            )

    def test_agreement_grid_against_pipeline(self):
        for c in (1.51, 1.65, 2.0, 5.0):
            params = MetricParams(1.0, c)
            for x in np.linspace(0.3, 10.0, 25):
                for sign in (1.0, -1.0):
                    xx = float(sign * x)
                    sample = flag_curvature(params, PhasePoint(xx, 0.0, 0.0, xx))
                    assert sample.ok
                    oracle = flag_curvature_closed_form(c, xx)
                    assert sample.K == pytest.approx(oracle, rel=1e-8)
