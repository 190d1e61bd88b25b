"""Tests for the fundamental-function module."""

import math
import warnings

import numpy as np
import pytest

from keplerflag.curvature import flag_curvature
from keplerflag.errors import DomainError
from keplerflag.metric import (
    NEGATIVE_RADICAND,
    OK,
    CartesianFiberPoint,
    MetricParams,
    PhasePoint,
    cartesian_fiber_point,
    classify,
    fstar_cartesian,
    fstar_polar,
    fstar_polar_jet,
    hypothesis_gap,
    lstar,
    lstar_jet,
    perp_inner,
    scaling_reduce,
    validate_domain,
    _first_broken,
    _radicand,
    _sqrt,
    _variables,
)


def random_admissible(rng, a=None, c=None):
    while True:
        aa = float(rng.uniform(0.0, 3.0)) if a is None else a
        if c is None:
            crit = 1.5 * aa ** (2.0 / 3.0)
            cc = float((crit if crit > 0 else 0.5) * rng.uniform(1.05, 3.0) + 0.1)
        else:
            cc = c
        params = MetricParams(aa, cc)
        x = float(rng.uniform(0.2, 4.0) * rng.choice([-1.0, 1.0]))
        y = float(rng.uniform(-math.pi, math.pi))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        scale = float(10.0 ** rng.uniform(-1.0, 1.0))
        pt = PhasePoint(x, y, scale * math.sin(theta), scale * math.cos(theta))
        if validate_domain(params, pt).ok:
            return params, pt


class TestParams:
    def test_negative_rotation_rejected(self):
        with pytest.raises(ValueError):
            MetricParams(-0.1, 2.0)

    def test_nonpositive_energy_rejected(self):
        with pytest.raises(ValueError):
            MetricParams(1.0, 0.0)

    def test_critical_energy(self):
        assert MetricParams(1.0, 2.0).critical_c == pytest.approx(1.5)
        assert MetricParams(8.0, 10.0).critical_c == pytest.approx(6.0)
        assert MetricParams(0.0, 2.0).has_bounded_component
        assert not MetricParams(1.0, 1.4).has_bounded_component

    def test_bounded_component_is_computed_once_and_not_compared(self):
        params = MetricParams(1.0, 2.0)
        assert params.has_bounded_component is True
        assert "has_bounded_component" in vars(params)  # held by the instance
        fresh = MetricParams(1.0, 2.0)
        assert params == fresh and hash(params) == hash(fresh)
        lanes = MetricParams(np.array([1.0, 1.0]), np.array([1.4, 2.0]))
        assert lanes.has_bounded_component.tolist() == [False, True]


class TestCartesianFiber:
    def test_perpendicular_momentum_gives_double_radius(self):
        # <p_perp, q> = 0 forces the radical to 1, so F* = 2 C |q|.
        pt = CartesianFiberPoint((0.0, 0.0), (0.3, 0.4), 1.0)
        assert fstar_cartesian(pt, a=1.0) == pytest.approx(1.0, rel=1e-14)

    def test_zero_fiber_rejected(self):
        with pytest.raises(DomainError):
            fstar_cartesian(CartesianFiberPoint((0.0, 0.0), (0.0, 0.0), 1.0))

    @pytest.mark.parametrize("C", [0.0, -1.0, math.nan, math.inf])
    def test_offset_must_be_positive_and_finite(self, C):
        with pytest.raises(ValueError, match="positive and finite"):
            CartesianFiberPoint((0.0, 0.0), (1.0, 0.0), C)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["x", "y", "r", "t"])
    def test_change_of_variables_rejects_a_nonfinite_coordinate(self, field, value):
        # before the chart singularity, in classify's precedence
        coords = {"x": 0.0, "y": 0.0, "r": 0.3, "t": 0.7, field: value}
        with pytest.raises(DomainError, match="^nonfinite_input at ") as err:
            cartesian_fiber_point(MetricParams(1.0, 2.0), PhasePoint(**coords))
        assert err.value.value is value

    def test_change_of_variables_rejects_the_chart_singularity(self):
        with pytest.raises(DomainError, match="^chart_singularity at "):
            cartesian_fiber_point(MetricParams(1.0, 2.0), PhasePoint(0.0, 0.0, 0.3, 0.7))

    def test_against_scalar_root_oracle(self):
        # F* is the positive root of |l| l - 2C|q| l - |q| <ap_perp, q> = 0
        # landing on the bounded component (the root exceeding C|q|).
        pt = CartesianFiberPoint((0.5, 0.0), (0.0, 0.6), 1.2)
        qn = 0.6
        ip = perp_inner(pt.p, pt.q)
        # positive branch: l^2 - 2C|q| l - |q| ip = 0
        b = 2.0 * pt.C * qn
        disc = b * b + 4.0 * qn * ip
        root = (b + math.sqrt(disc)) / 2.0
        assert root > pt.C * qn
        assert fstar_cartesian(pt, a=1.0) == pytest.approx(root, rel=1e-14)

    def test_defining_property_via_level_function(self):
        # q / F* lands on the zero level of the effective-momentum level
        # function, for any rotation rate
        from keplerflag.convexity import hp_value

        rng = np.random.default_rng(5)
        checked = 0
        while checked < 100:
            p = tuple(rng.uniform(-1.0, 1.0, 2))
            C = float(rng.uniform(0.8, 2.0))
            a = float(rng.uniform(0.0, 2.0))
            if a * math.hypot(*p) >= 0.9 * C * C:
                continue
            q = tuple(rng.uniform(-1.0, 1.0, 2))
            if math.hypot(*q) < 1e-2:
                continue
            scale = fstar_cartesian(CartesianFiberPoint(p, q, C), a)
            effective = CartesianFiberPoint(
                (a * p[0], a * p[1]), (q[0] / scale, q[1] / scale), C
            )
            assert hp_value(effective) == pytest.approx(0.0, abs=1e-12)
            checked += 1

    def test_root_oracle_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = tuple(rng.uniform(-1.0, 1.0, 2))
            C = float(rng.uniform(0.8, 2.0))
            if math.hypot(*p) >= C * C:
                continue
            q = tuple(rng.uniform(-1.0, 1.0, 2))
            if math.hypot(*q) < 1e-3:
                continue
            qn = math.hypot(*q)
            b = 2.0 * C * qn
            disc = b * b + 4.0 * qn * perp_inner(p, q)
            root = (b + math.sqrt(disc)) / 2.0
            got = fstar_cartesian(CartesianFiberPoint(p, q, C), a=1.0)
            assert got == pytest.approx(root, rel=1e-12)


class TestPolar:
    def test_collapsed_radical_at_zero_rotation(self):
        params = MetricParams(0.0, 2.0)
        pt = PhasePoint(1.0, 0.0, 0.0, 1.0)
        assert fstar_polar(params, pt) == pytest.approx(2.5, rel=1e-14)
        assert lstar(params, pt) == pytest.approx(3.125, rel=1e-14)

    def test_fiber_one_homogeneity(self):
        rng = np.random.default_rng(11)
        lam = 2.5
        for _ in range(50):
            params, pt = random_admissible(rng)
            scaled = PhasePoint(pt.x, pt.y, lam * pt.r, lam * pt.t)
            assert fstar_polar(params, scaled) == pytest.approx(
                lam * fstar_polar(params, pt), rel=1e-12
            )

    def test_polar_matches_cartesian_change_of_variables(self):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 100:
            params, pt = random_admissible(rng)
            fiber = cartesian_fiber_point(params, pt)
            lhs = fstar_polar(params, pt)
            rhs = fstar_cartesian(fiber, a=params.a)
            assert lhs == pytest.approx(rhs, rel=1e-12)
            checked += 1

    def test_y_independence_bit_identical(self):
        params = MetricParams(1.0, 2.0)
        a_val = fstar_polar(params, PhasePoint(1.3, 0.0, 0.4, 0.8))
        b_val = fstar_polar(params, PhasePoint(1.3, -17.5, 0.4, 0.8))
        assert a_val == b_val

    def test_non_reversible_for_positive_rotation(self):
        params = MetricParams(1.0, 2.0)
        pt = PhasePoint(1.0, 0.0, 0.3, 0.9)
        flipped = PhasePoint(1.0, 0.0, -0.3, -0.9)
        assert fstar_polar(params, pt) != pytest.approx(
            fstar_polar(params, flipped), rel=1e-6
        )

    def test_reversible_at_zero_rotation(self):
        params = MetricParams(0.0, 2.0)
        pt = PhasePoint(1.0, 0.0, 0.3, 0.9)
        flipped = PhasePoint(1.0, 0.0, -0.3, -0.9)
        assert fstar_polar(params, pt) == pytest.approx(
            fstar_polar(params, flipped), rel=1e-14
        )


class TestJetMode:
    def test_jet_constant_term_matches_scalar(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            params, pt = random_admissible(rng)
            jet = lstar_jet(params, pt, max_order=3)
            scalar = lstar(params, pt)
            assert jet.extract((0, 0, 0)) == pytest.approx(scalar, rel=1e-13)

    def test_euler_identity_from_jet(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            params, pt = random_admissible(rng)
            L = lstar_jet(params, pt, max_order=1)
            lhs = pt.r * L.extract((0, 1, 0)) + pt.t * L.extract((0, 0, 1))
            assert lhs == pytest.approx(2.0 * lstar(params, pt), rel=1e-10)

    def test_jet_rejects_boundary_radicand(self):
        # a point with inner radicand exactly zero cannot be jetted
        params = MetricParams(1.0, 1.5000000001)
        # near-critical: find x where radicand is very small but positive
        pt = PhasePoint(1.0, 0.0, 0.0, 1.0)
        rad = classify(params, pt.x, pt.r, pt.t)[1]
        assert rad > 0  # sanity: still strictly inside
        fstar_polar_jet(params, pt, max_order=2)


class TestDomainValidation:
    def test_a_broken_bool_before_an_array_rule_gives_the_array(self):
        # a bool for all lanes, broken, does not end the list as at a point
        code = _first_broken([(1, True), (2, np.array([False, True]))])
        assert code.dtype == np.int8 and code.tolist() == [1, 1]
        code = _first_broken([(1, False), (2, np.array([False, True])), (3, True)])
        assert code.tolist() == [3, 2]

    @pytest.mark.parametrize("number", [np.float64, np.float32, np.int64])
    def test_numpy_scalar_params_take_the_float_path(self, number):
        params, pt = MetricParams(number(1), number(2)), PhasePoint(1.3, 0.0, 0.4, -0.8)
        status = validate_domain(params, pt)
        assert type(status.ok) is bool and status.ok
        assert type(status.radicand) is float
        code, rad = classify(params, pt.x, pt.r, pt.t)
        assert type(code) is int and code == OK and type(rad) is float
        assert type(params.has_bounded_component) is bool
        K = flag_curvature(MetricParams(1.0, 2.0), pt).K
        assert flag_curvature(params, pt).K.hex() == K.hex()

    def test_subcritical_energy_rejected(self):
        status = validate_domain(MetricParams(1.0, 1.4), PhasePoint(1.0, 0.0, 0.0, 1.0))
        assert not status.ok
        assert status.reason == "energy_below_critical"

    def test_admissible_point_reports_radicand(self):
        status = validate_domain(MetricParams(1.0, 2.0), PhasePoint(1.0, 0.0, 0.0, 1.0))
        assert status.ok
        assert status.radicand == pytest.approx(1.0 - 16.0 / 25.0, rel=1e-14)

    def test_chart_singularity_rejected(self):
        status = validate_domain(MetricParams(1.0, 2.0), PhasePoint(0.0, 0.0, 0.0, 1.0))
        assert not status.ok
        assert status.reason == "chart_singularity"

    def test_zero_fiber_direction_rejected(self):
        status = validate_domain(MetricParams(1.0, 2.0), PhasePoint(1.0, 0.0, 0.0, 0.0))
        assert not status.ok
        assert status.reason == "zero_fiber_direction"

    @pytest.mark.parametrize("field", ["x", "r", "t"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_input_rejected(self, field, value):
        coords = dict(x=1.0, y=0.0, r=0.3, t=0.7)
        coords[field] = value
        status = validate_domain(MetricParams(1.0, 2.0), PhasePoint(**coords))
        assert not status.ok
        assert status.reason == "nonfinite_input"

    def test_radicand_positive_everywhere_above_critical_energy(self):
        # t/|q| <= |x| bounds the subtracted term by 16a|x|/(x^2+2c)^2,
        # which stays below 1 whenever c exceeds the critical energy; the
        # negative-radicand rejection is therefore defensive only.
        rng = np.random.default_rng(29)
        for _ in range(500):
            a = float(rng.uniform(0.1, 4.0))
            c = 1.5 * a ** (2.0 / 3.0) * float(rng.uniform(1.0001, 3.0))
            x = float(rng.uniform(1e-3, 20.0) * rng.choice([-1.0, 1.0]))
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            code, rad = classify(MetricParams(a, c), x, math.sin(theta), math.cos(theta))
            assert code == OK and rad > 0.0

    def test_negative_radicand_raises_on_cartesian_fiber(self):
        # reachable with a free half-offset: strongly negative <ap_perp, q>
        pt = CartesianFiberPoint((2.0, 0.0), (0.0, 1.0), 0.5)
        with pytest.raises(DomainError) as err:
            fstar_cartesian(pt, a=1.0)
        assert err.value.value < 0.0

    def test_energy_reason_takes_precedence_over_radicand(self):
        # at subcritical energy the energy reason is reported even where
        # the radicand is negative too
        params = MetricParams(1.0, 1.2)
        pt = PhasePoint(1.0, 0.0, 1e-4, 1.0)
        assert classify(params, pt.x, pt.r, pt.t)[1] < 0.0
        status = validate_domain(params, pt)
        assert status.reason == "energy_below_critical"

    def test_scalar_rejects_boundary_rounding(self):
        # the scalar F* clamps no radicand: one just below 0 (by 1e-13)
        # raises as one further out (by 1e-11) does
        pt = PhasePoint(1.0, 0.0, 0.0, 1.0)
        for c, rad in ((1.5 - 1e-13, -1e-13), (1.5 - 1e-11, -1e-11)):
            params = MetricParams(1.0, c)
            assert classify(params, pt.x, pt.r, pt.t)[1] == pytest.approx(rad, rel=1e-2)
            with pytest.raises(DomainError, match="F\\* is not finite"):
                fstar_polar(params, pt)

    @pytest.mark.parametrize("fn", [fstar_polar, lstar])
    def test_scalar_raises_at_zero_radicand(self, fn):
        # one ulp above the critical energy the radicand at (1, 0, 0, 1)
        # rounds to exactly 0, which classify rejects and the root rule
        # maps to NaN, as Jet.sqrt raises there
        params, pt = MetricParams(1.0, 1.5000000000000002), PhasePoint(1.0, 0.0, 0.0, 1.0)
        code, rad = classify(params, pt.x, pt.r, pt.t)
        assert code == NEGATIVE_RADICAND and rad == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="not finite"):
                fn(params, pt)
        with pytest.raises(DomainError):
            fstar_polar_jet(params, pt)

    def test_root_rule_on_floats_and_arrays(self):
        # Jet.sqrt's rule: a positive argument gets its root, anything else
        # NaN, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert _sqrt(np.float64(4.0)) == 2.0
            assert _sqrt(np.float64(np.inf)) == np.inf
            assert all(math.isnan(_sqrt(np.float64(u))) for u in (0.0, -0.0, -1.0, np.nan))
            got = _sqrt(np.array([4.0, 0.0, -0.0, -1e-300, np.nan, 5e-324]))
        assert np.array_equal(got, [2.0, np.nan, np.nan, np.nan, np.nan, np.sqrt(5e-324)],
                              equal_nan=True)

    @pytest.mark.parametrize("x, r, t", [(0.0, 0.3, 0.7), (-0.0, 0.3, 0.7), (0.0, 1.0, 0.0),
                                         (1.0, 0.0, 0.0), (-2.0, -0.0, 0.0)])
    def test_jet_raises_at_chart_and_zero_fiber(self, x, r, t):
        # x = 0 fails Jet.reciprocal, r = t = 0 fails Jet.sqrt
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError):
                fstar_polar_jet(MetricParams(1.0, 2.0), PhasePoint(x, 0.0, r, t))

    def test_inner_radicand_is_the_kernel_expression(self):
        # one 256-lane block of the acceptance-3 lattice, at x = -1
        params = MetricParams(1.0, 1.55)
        phi = np.linspace(0.0, 2.0 * math.pi, 256)
        x, r, t = np.full(256, np.linspace(-3.0, 3.0, 256)[85]), np.sin(phi), np.cos(phi)
        code, rad = classify(params, x, r, t)
        assert np.all(code == OK)
        # bit for bit the radicand F* evaluates, on arrays and per scalar
        assert np.array_equal(rad, _radicand(x, r, t, params.a, params.c)[2])
        scalar = [_radicand(*v, params.a, params.c)[2]
                  for v in zip(x.tolist(), r.tolist(), t.tolist())]
        assert rad.tolist() == scalar
        # an order-4 jet divides by a reciprocal product, so its constant
        # term may differ in the last bits, never in sign
        jet = _radicand(*_variables((x, r, t), 4), params.a, params.c)[2].coeffs[0]
        assert np.all(np.abs(jet - rad) <= 4 * np.finfo(float).eps)
        assert np.all(rad > 0.0) and np.all(jet > 0.0)

    UNDERFLOW = [(x, r, t) for x in (1e-200, -1e-170)
                 for r, t in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))]
    NONFINITE = [(1e-160, 0.0, 1.0), (1e-160, 1.0, 1.0), (math.nan, 0.0, 1.0),
                 (math.inf, 1.0, 0.0), (1.0, math.inf, 0.0), (1.0, 1e-200, 0.0),
                 (1e160, 1.0, 1.0)]

    @pytest.mark.parametrize("x, r, t", UNDERFLOW + NONFINITE)
    @pytest.mark.parametrize("fn", [fstar_polar, lstar])
    def test_nonfinite_value_raises_domain_error(self, fn, x, r, t):
        # x * x underflows to 0 (x = 1e-200) or overflows, |q| overflows
        # (x = 1e-160), r * r underflows with t = 0, or a coordinate is not
        # finite; the point query reports each of these with a reason, the
        # chart band's for the tiny x.  K reads the fiber's direction, so
        # the underflowing r * r is the direction t = 0, where v t vanishes.
        params, pt = MetricParams(1.0, 2.0), PhasePoint(x, 0.0, r, t)
        with pytest.raises(DomainError, match="not finite"):
            fn(params, pt)
        if abs(x) < 1e-3:
            reasons = ("chart_singularity",)
        elif (r, t) == (1e-200, 0.0):
            reasons = ("denominator_below_tolerance",)
        else:
            reasons = ("undefined_radicand", "nonfinite_result", "nonfinite_input")
        assert flag_curvature(params, pt).reason in reasons

    def test_lstar_overflow_raises_domain_error(self):
        params, pt = MetricParams(1.0, 2.0), PhasePoint(1e100, 0.0, 1.0, 0.0)
        assert fstar_polar(params, pt) == pytest.approx(5e199)
        with pytest.raises(DomainError, match="L\\* is not finite"):
            lstar(params, pt)


class TestScaling:
    def test_identity_at_unit_rotation(self):
        params = MetricParams(1.0, 2.2)
        pt = PhasePoint(1.4, 0.3, 0.5, 0.8)
        reduced, moved = scaling_reduce(params, pt)
        assert reduced == params
        assert moved == pt

    def test_worked_example(self):
        params = MetricParams(8.0, 6.0)
        pt = PhasePoint(2.0, 0.1, 0.5, 1.0)
        reduced, moved = scaling_reduce(params, pt)
        assert reduced.a == 1.0
        assert reduced.c == pytest.approx(1.5, rel=1e-14)
        assert moved.x == pytest.approx(1.0, rel=1e-14)
        assert moved.r == pytest.approx(1.0, rel=1e-14)
        assert moved.t == pytest.approx(1.0, rel=1e-14)
        lhs = fstar_polar(params, pt)
        rhs = 2.0 * fstar_polar(reduced, moved)  # a^(1/3) = 2
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_zero_rotation_rejected(self):
        with pytest.raises(ValueError):
            scaling_reduce(MetricParams(0.0, 2.0), PhasePoint(1.0, 0.0, 0.0, 1.0))

    def test_randomized_identity(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 200:
            params, pt = random_admissible(rng)
            if params.a == 0.0:
                continue
            reduced, moved = scaling_reduce(params, pt)
            lhs = fstar_polar(params, pt)
            rhs = params.a ** (1.0 / 3.0) * fstar_polar(reduced, moved)
            assert lhs == pytest.approx(rhs, rel=1e-12)
            checked += 1


class TestHypothesisGap:
    def test_nonnegative_with_minimum_at_one(self):
        xs = np.linspace(0.0, 10.0, 100_001)
        vals = hypothesis_gap(xs)
        assert np.min(vals) >= -1e-12
        # local refinement around the grid minimum
        x0 = xs[int(np.argmin(vals))]
        fine = np.linspace(x0 - 1e-3, x0 + 1e-3, 20_001)
        fvals = hypothesis_gap(fine)
        assert np.min(fvals) >= -1e-12
        assert abs(np.min(fvals)) < 1e-6
        assert abs(fine[int(np.argmin(fvals))] - 1.0) < 1e-3

    def test_exact_zero_at_one(self):
        assert hypothesis_gap(1.0) == 0.0
