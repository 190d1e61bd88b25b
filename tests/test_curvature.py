"""Tests for the curvature pipeline and its closed-form oracle."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from keplerflag.curvature import (
    CallbackCartanMetric,
    _bracket_alpha,
    _bracket_plain,
    cometric_at,
    flag_curvature,
    flag_curvature_closed_form,
    legendre_fiber,
    spray_coeffs,
)
from keplerflag.errors import DegeneracyError, DomainError
from keplerflag.metric import MetricParams, PhasePoint, lstar


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
        block = cometric_at(FLAT, PhasePoint(0.4, 0.0, 0.3, 0.8))
        assert block.g11 == pytest.approx(1.0, abs=1e-12)
        assert block.g22 == pytest.approx(1.0, abs=1e-12)
        assert block.g12 == pytest.approx(0.0, abs=1e-12)
        assert block.det == pytest.approx(1.0, abs=1e-12)

    def test_kepler_point_positive_definite(self):
        params = MetricParams(1.0, 2.0)
        block = cometric_at(params, PhasePoint(1.0, 0.0, 0.0, 1.0))
        assert block.det > 0.0
        assert block.g11 > 0.0
        assert block.g22 > 0.0

    def test_matches_finite_differences(self):
        params = MetricParams(1.0, 2.0)
        pt = PhasePoint(1.2, 0.0, 0.35, 0.8)
        block = cometric_at(params, pt)
        h = 1e-5

        def L(r, t):
            return lstar(params, PhasePoint(pt.x, pt.y, r, t))

        g11 = (L(pt.r + h, pt.t) - 2 * L(pt.r, pt.t) + L(pt.r - h, pt.t)) / h**2
        g22 = (L(pt.r, pt.t + h) - 2 * L(pt.r, pt.t) + L(pt.r, pt.t - h)) / h**2
        g12 = (
            L(pt.r + h, pt.t + h) - L(pt.r + h, pt.t - h)
            - L(pt.r - h, pt.t + h) + L(pt.r - h, pt.t - h)
        ) / (4 * h**2)
        assert block.g11 == pytest.approx(g11, rel=1e-5)
        assert block.g22 == pytest.approx(g22, rel=1e-5)
        assert block.g12 == pytest.approx(g12, rel=1e-4, abs=1e-7)

    def test_inverse_identity(self):
        rng = np.random.default_rng(67)
        params = MetricParams(1.0, 2.0)
        for _ in range(50):
            x = float(rng.uniform(0.3, 3.0) * rng.choice([-1, 1]))
            theta = float(rng.uniform(0, 2 * math.pi))
            block = cometric_at(
                params, PhasePoint(x, 0.0, math.sin(theta), math.cos(theta))
            )
            m = np.array([[block.g11, block.g12], [block.g12, block.g22]])
            inv = np.array([[block.inv11, block.inv12], [block.inv12, block.inv22]])
            np.testing.assert_allclose(m @ inv, np.eye(2), atol=1e-10)

    def test_degenerate_cometric_raises(self):
        # 1-homogeneous but non-convex in the fiber: F* = r + 2t has a
        # singular fiber Hessian
        degenerate = CallbackCartanMetric(lambda x, y, r, t: r + 2.0 * t + 0.0 * x)
        with pytest.raises(DegeneracyError):
            cometric_at(degenerate, PhasePoint(1.0, 0.0, 0.5, 1.0))


class TestLegendreFiber:
    def test_flat_self_dual(self):
        u, v = legendre_fiber(FLAT, PhasePoint(0.5, 0.0, 0.3, 0.7))
        assert u == pytest.approx(0.3, rel=1e-12)
        assert v == pytest.approx(0.7, rel=1e-12)

    def test_euler_identity(self):
        rng = np.random.default_rng(71)
        params = MetricParams(1.0, 2.0)
        for _ in range(50):
            x = float(rng.uniform(0.3, 3.0) * rng.choice([-1, 1]))
            theta = float(rng.uniform(0, 2 * math.pi))
            s = float(10.0 ** rng.uniform(-0.5, 0.5))
            pt = PhasePoint(x, 0.0, s * math.sin(theta), s * math.cos(theta))
            u, v = legendre_fiber(params, pt)
            assert pt.r * u + pt.t * v == pytest.approx(
                2.0 * lstar(params, pt), rel=1e-10
            )

    def test_kepler_reference_point(self):
        u, v = legendre_fiber(MetricParams(1.0, 2.0), PhasePoint(1.0, 0.0, 0.0, 1.0))
        assert u == pytest.approx(0.0, abs=1e-12)
        assert v > 0.0


class TestSpray:
    def test_base_independent_metric_has_zero_spray(self):
        pair = spray_coeffs(FLAT, PhasePoint(0.8, 0.0, 0.4, 0.9))
        assert pair.G == pytest.approx(0.0, abs=1e-12)
        assert pair.H_spray == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("depends_on_y", [False, True])
    def test_power_conformal_hand_formula(self, depends_on_y):
        # L* = x^4 (r^2 + t^2)/2 gives, by direct substitution into the
        # spray formulas, G = x^7 (t^2 - r^2) and H = -2 x^7 r t.
        metric = CallbackCartanMetric(
            lambda x, y, r, t: (x * x) * (r * r + t * t).sqrt(),
            depends_on_y=depends_on_y,
        )
        for (x, r, t) in [(1.1, 0.3, 0.8), (0.7, -0.5, 0.4), (1.6, 0.0, 1.0)]:
            pair = spray_coeffs(metric, PhasePoint(x, 0.2, r, t))
            assert pair.G == pytest.approx(x**7 * (t * t - r * r), rel=1e-11)
            assert pair.H_spray == pytest.approx(-2.0 * x**7 * r * t,
                                                 rel=1e-11, abs=1e-11)

    def test_kepler_spray_is_finite(self):
        params = MetricParams(0.0, 2.0)
        pair = spray_coeffs(params, PhasePoint(1.3, 0.0, 0.4, 0.7))
        assert math.isfinite(pair.G)
        assert math.isfinite(pair.H_spray)
        assert pair.G != 0.0


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
        assert sample.K is None

    @pytest.mark.parametrize("x", [1e150, -1e150, 1e-200])
    def test_extreme_x_reported_without_warnings(self, x):
        # 1e150 used to overflow in validate_domain's certificate, 1e-200
        # to leak "divide by zero" from inner_radicand
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sample = flag_curvature(MetricParams(1.0, 2.0),
                                    PhasePoint(x, 0.0, 0.3, 0.7))
        assert sample.status == "domain_error"
        assert sample.K is None
        if abs(x) > 1.0:
            assert sample.reason == "nonfinite_result"

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
            assert _bracket_plain(x, c) == plain_table
            assert _bracket_alpha(x, c) == alpha_table

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


class TestClosedFormEvaluation:
    def test_negative_x_is_valid(self):
        k = flag_curvature_closed_form(1.51, -3.0)
        assert math.isfinite(k)

    def test_radicand_violation_raises(self):
        # at c = 1.2 the radicand dips negative around x = 1
        with pytest.raises(DomainError):
            flag_curvature_closed_form(1.2, 1.0)

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
