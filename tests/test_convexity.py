"""Tests for the level-curve convexity verifiers."""

import math

import numpy as np
import pytest

from keplerflag.convexity import (
    f_of_t,
    hessian_form,
    hp_value,
    lambda_roots,
    verify_convexity,
)
from keplerflag.errors import DomainError, PreconditionError
from keplerflag.metric import CartesianFiberPoint, fstar_cartesian, perp_inner


def random_fiber_point(rng, hypothesis=True):
    while True:
        p = tuple(rng.uniform(-1.0, 1.0, 2))
        C = float(rng.uniform(0.8, 2.0))
        if hypothesis and math.hypot(*p) >= 0.95 * C * C:
            continue
        q = tuple(rng.uniform(-1.0, 1.0, 2))
        if math.hypot(*q) < 1e-2:
            continue
        return CartesianFiberPoint(p, q, C)


class TestLevelFunction:
    def test_zero_momentum_zero_level(self):
        pt = CartesianFiberPoint((0.0, 0.0), (0.5, 0.0), 1.0)
        assert hp_value(pt) == pytest.approx(0.0, abs=1e-15)

    def test_hand_evaluated_point(self):
        pt = CartesianFiberPoint((1.0, 0.0), (0.0, 0.2), 2.0)
        assert hp_value(pt) == pytest.approx(-1.2, rel=1e-14)

    def test_zero_fiber_rejected(self):
        with pytest.raises(DomainError):
            hp_value(CartesianFiberPoint((1.0, 0.0), (0.0, 0.0), 1.0))

    @pytest.mark.parametrize("fn", [fstar_cartesian, hp_value, lambda_roots, hessian_form])
    def test_every_fiber_function_rejects_zero_q(self, fn):
        # one check, metric._fiber_norm, behind all four
        with pytest.raises(DomainError, match="fiber point q must be nonzero"):
            fn(CartesianFiberPoint((0.1, 0.0), (0.0, 0.0), 1.0))

    def test_root_rescaling_lands_on_level(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            pt = random_fiber_point(rng)
            lam0 = lambda_roots(pt).lambda0
            q_dir = pt.q if not lambda_roots(pt).sign_flipped else (
                # reflect q across p to realize the normalized configuration
                _reflect(pt.p, pt.q)
            )
            scaled = CartesianFiberPoint(
                pt.p, (q_dir[0] / lam0, q_dir[1] / lam0), pt.C
            )
            assert hp_value(scaled) == pytest.approx(0.0, abs=1e-12)


def _reflect(p, q):
    """Reflect q across the line spanned by p (negates <p_perp, q>)."""
    pn2 = p[0] * p[0] + p[1] * p[1]
    if pn2 == 0.0:
        return (q[0], -q[1])
    dot = (p[0] * q[0] + p[1] * q[1]) / pn2
    return (2.0 * dot * p[0] - q[0], 2.0 * dot * p[1] - q[1])


class TestLambdaRoots:
    def test_perpendicular_case_degenerates(self):
        pt = CartesianFiberPoint((1.0, 0.0), (1.0, 0.0), 1.5)
        assert perp_inner(pt.p, pt.q) == 0.0
        roots = lambda_roots(pt)
        cq = pt.C * math.hypot(*pt.q)
        assert roots.lambda0 == pytest.approx(2.0 * cq, rel=1e-14)
        assert roots.lambda_plus == pytest.approx(-2.0 * cq, rel=1e-14)
        assert roots.lambda_minus == pytest.approx(0.0, abs=1e-15)
        assert roots.degenerate_minus

    def test_ordering_invariant(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            pt = random_fiber_point(rng)
            roots = lambda_roots(pt)
            cq = pt.C * math.hypot(*pt.q)
            assert abs(roots.lambda0) > cq
            assert abs(roots.lambda_plus) > cq
            assert abs(roots.lambda_minus) < cq or roots.degenerate_minus

    def test_lambda0_equals_fundamental_function(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            pt = random_fiber_point(rng)
            roots = lambda_roots(pt)
            if roots.sign_flipped:
                # F* evaluates the formula as written (no normalization),
                # so compare on the normalized representative.
                pt = CartesianFiberPoint(pt.p, _reflect(pt.p, pt.q), pt.C)
            assert roots.lambda0 == pytest.approx(
                fstar_cartesian(pt, a=1.0), rel=1e-12
            )

    def test_hypothesis_required(self):
        pt = CartesianFiberPoint((2.0, 0.0), (1.0, 0.0), 1.0)
        with pytest.raises(PreconditionError):
            lambda_roots(pt)

    def test_sign_flip_recorded(self):
        pt = CartesianFiberPoint((1.0, 0.0), (0.0, 1.0), 1.5)
        assert perp_inner(pt.p, pt.q) < 0.0
        assert lambda_roots(pt).sign_flipped

    def test_roots_solve_radial_equation(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            pt = random_fiber_point(rng)
            roots = lambda_roots(pt)
            qn = math.hypot(*pt.q)
            ip = abs(perp_inner(pt.p, pt.q))
            for lam in (roots.lambda0, roots.lambda_plus, roots.lambda_minus):
                residual = abs(lam) * lam - 2.0 * pt.C * qn * lam - qn * ip
                assert residual == pytest.approx(0.0, abs=1e-10 * max(1.0, qn))


class TestAngularProfile:
    def test_antipodal_value(self):
        for a in (0.0, 0.2, 0.44, 1.3):
            assert f_of_t(a, math.pi) == pytest.approx((1.0 - a) ** 2, abs=1e-12)

    def test_zero_angle_value(self):
        for a in (0.0, 0.2, 0.44, 1.3):
            assert f_of_t(a, 0.0) == pytest.approx((1.0 + a) ** 2, abs=1e-12)

    def test_interior_critical_value(self):
        for a in (0.4, 0.5, 1.0):
            t = math.acos(-1.0 / (3.0 * a))
            assert f_of_t(a, t) == pytest.approx(
                2.0 * (1.0 / 3.0 - a * a), abs=1e-12
            )

    def test_positive_below_four_ninths(self):
        a_vals = np.linspace(0.0, 4.0 / 9.0, 200, endpoint=False)
        t_vals = np.linspace(0.0, 2.0 * math.pi, 720)
        worst = min(f_of_t(a, t) for a in a_vals for t in t_vals)
        assert worst > 0.0

    @pytest.mark.parametrize("a, t, reason", [
        (0.1, math.inf, "nonfinite_input"), (0.1, math.nan, "nonfinite_input"),
        (math.nan, 1.0, "nonfinite_input"), (-math.inf, 0.0, "nonfinite_input"),
        (1e200, 1.0, "nonfinite_result"), (1e155, 0.3, "nonfinite_result"),
    ])
    def test_nonfinite_argument_or_value_is_a_domain_error(self, a, t, reason):
        with pytest.raises(DomainError, match=f"^{reason} "):
            f_of_t(a, t)


class TestHessianForm:
    def test_zero_momentum_reduces_to_inverse_square(self):
        for qn in (0.25, 0.5, 1.0, 2.0):
            pt = CartesianFiberPoint((0.0, 0.0), (qn, 0.0), 1.0)
            assert hessian_form(pt) == pytest.approx(qn**-2, rel=1e-12)

    def test_matrix_route_matches_reduced_form(self):
        # the agreement assertion lives inside hessian_form; sampling it
        # widely is the free-algebra check
        rng = np.random.default_rng(47)
        for _ in range(1000):
            pt = random_fiber_point(rng, hypothesis=False)
            hessian_form(pt)

    def test_consistency_with_angular_profile(self):
        # under <p_perp,q> = |p||q| cos(t), <p,q> = |p||q| sin(t) the form
        # equals f(t) / |q|^2 with a = |p||q|^2
        rng = np.random.default_rng(53)
        for _ in range(200):
            pn = float(rng.uniform(0.05, 1.5))
            qn = float(rng.uniform(0.1, 1.5))
            tau = float(rng.uniform(0.0, 2.0 * math.pi))
            p = (pn, 0.0)  # p_perp = (0, -pn)
            # choose q so that <p_perp,q> = pn qn cos(tau), <p,q> = pn qn sin(tau)
            q = (qn * math.sin(tau), -qn * math.cos(tau))
            form = hessian_form(CartesianFiberPoint(p, q, 1.0))
            a_lem = pn * qn * qn
            assert form == pytest.approx(f_of_t(a_lem, tau) / qn**2, rel=1e-10)

    def test_positive_on_level_curve(self):
        rng = np.random.default_rng(59)
        for _ in range(200):
            pt = random_fiber_point(rng)
            scale = fstar_cartesian(pt, a=1.0)
            on_level = CartesianFiberPoint(
                pt.p, (pt.q[0] / scale, pt.q[1] / scale), pt.C
            )
            assert hessian_form(on_level) > 0.0


class TestVerifyConvexity:
    def test_round_case_all_positive(self):
        report = verify_convexity((0.0, 0.0), 1.0, 1.0, 360)
        assert report.verdict is True
        assert report.n == 360
        assert report.min_form > 0.0
        assert report.failure_point is None

    def test_low_energy_rotating_case(self):
        # C from 2C = |p|^2/2 + c at |p| = 1, c = 1.51
        C = (0.5 + 1.51) / 2.0
        report = verify_convexity((1.0, 0.0), C, 1.0, 720)
        assert report.verdict is True
        assert report.min_form > 0.0

    def test_empty_report_carries_no_verdict(self):
        report = verify_convexity((0.0, 0.0), 1.0, 1.0, 0)
        assert report.n == 0
        assert report.verdict is None
        assert report.min_form is None

    def test_infinite_offset_rejected(self):
        # at C = inf every direction would rescale to q = 0
        with pytest.raises(ValueError, match="half-offset C must be positive and finite"):
            verify_convexity((0.0, 0.0), math.inf, 1.0, 8)

    @pytest.mark.parametrize("C", [1e105, 1e200])
    def test_underflowing_cube_of_q_raises(self, C):
        # the level curve lies at |q| = 1/(2C): |q|^3 is subnormal at
        # C = 1e105, where the two routes disagreed, and 0 at C = 1e200
        with pytest.raises(DomainError, match="\\|q\\|\\^3 underflows"):
            verify_convexity((0.0, 0.0), C, 1.0, 8)

    @pytest.mark.parametrize("C", [1e-80, 1e-110])
    def test_overflowing_powers_of_q_raise(self, C):
        # |q| = 1/(2C): |q|^4 leaves the float range at C = 1e-80, and
        # |q|^3 too at C = 1e-110
        with pytest.raises(DomainError, match="\\|q\\|\\^4 overflows"):
            verify_convexity((0.0, 0.0), C, 1.0, 4)
        with pytest.raises(DomainError, match="\\|q\\|\\^4 overflows"):
            hessian_form(CartesianFiberPoint((0.0, 0.0), (0.5 / C, 0.0), 1.0))

    def test_hypothesis_precondition(self):
        with pytest.raises(PreconditionError):
            verify_convexity((3.0, 0.0), 1.0, 1.0, 8)

    def test_report_serializes(self):
        report = verify_convexity((0.3, -0.2), 1.1, 1.0, 16)
        doc = report.to_dict()
        assert set(doc) == {"n", "min_form", "argmin_direction",
                            "failure_point", "verdict"}
        assert doc["n"] == 16

    def test_randomized_admissible_families(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            p = tuple(rng.uniform(-1.0, 1.0, 2))
            a = float(rng.uniform(0.0, 2.0))
            C = float(rng.uniform(1.0, 2.5))
            if a * math.hypot(*p) >= 0.9 * C * C:
                continue
            report = verify_convexity(p, C, a, 90)
            assert report.verdict is True
