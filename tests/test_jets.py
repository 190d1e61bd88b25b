"""Tests for the truncated Taylor-jet algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keplerflag.errors import DomainError
from keplerflag.jets import Jet


def jet_close(a, b, tol=1e-13):
    scale = max(1.0, float(np.max(np.abs(a.coeffs))), float(np.max(np.abs(b.coeffs))))
    return float(np.max(np.abs(a.coeffs - b.coeffs))) <= tol * scale


class TestSeeding:
    def test_seeded_variable_coefficients(self):
        j = Jet.variable(0, 3.0, 2, 2)
        assert j.coefficient((0, 0)) == 3.0
        assert j.coefficient((1, 0)) == 1.0
        for mu in ((0, 1), (2, 0), (1, 1), (0, 2)):
            assert j.coefficient(mu) == 0.0

    def test_seeded_second_variable(self):
        j = Jet.variable(1, 0.0, 2, 1)
        assert j.coefficient((0, 0)) == 0.0
        assert j.coefficient((0, 1)) == 1.0
        assert j.coefficient((1, 0)) == 0.0

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            Jet.variable(4, 1.0, 2, 2)

    def test_order_zero_cannot_seed(self):
        with pytest.raises(ValueError):
            Jet.variable(0, 1.0, 2, 0)

    def test_shape_limits(self):
        with pytest.raises(ValueError):
            Jet.variable(0, 1.0, 5, 2)
        with pytest.raises(ValueError):
            Jet.variable(0, 1.0, 2, 5)


class TestMultiply:
    def test_binomial_square(self):
        h = Jet.variable(0, 1.0, 1, 2)  # 1 + h
        sq = h * h
        assert sq.coefficient((0,)) == 1.0
        assert sq.coefficient((1,)) == 2.0
        assert sq.coefficient((2,)) == 1.0

    def test_truncation_drops_h_squared(self):
        plus = Jet.variable(0, 1.0, 1, 1)
        minus = 2.0 - plus  # 1 - h
        prod = plus * minus
        assert prod.coefficient((0,)) == 1.0
        assert prod.coefficient((1,)) == 0.0

    def test_second_derivative_of_square(self):
        x = Jet.variable(0, 2.0, 1, 2)
        assert (x * x).extract((2,)) == pytest.approx(2.0, abs=1e-15)

    def test_incompatible_shapes_raise(self):
        a = Jet.variable(0, 1.0, 2, 2)
        b = Jet.variable(0, 1.0, 2, 3)
        with pytest.raises(ValueError):
            a * b
        with pytest.raises(ValueError):
            a + Jet.variable(0, 1.0, 3, 2)


class TestAnalytic:
    def test_sqrt_of_four_plus_h(self):
        s = Jet.variable(0, 4.0, 1, 2).sqrt()
        assert s.coefficient((0,)) == pytest.approx(2.0, rel=1e-15)
        assert s.coefficient((1,)) == pytest.approx(0.25, rel=1e-15)
        assert s.coefficient((2,)) == pytest.approx(-1.0 / 64.0, rel=1e-14)

    def test_reciprocal_of_two_plus_h(self):
        r = Jet.variable(0, 2.0, 1, 1).reciprocal()
        assert r.coefficient((0,)) == pytest.approx(0.5, rel=1e-15)
        assert r.coefficient((1,)) == pytest.approx(-0.25, rel=1e-15)

    def test_sqrt_branch_point_rejected(self):
        with pytest.raises(DomainError):
            Jet.variable(0, 0.0, 1, 2).sqrt()
        with pytest.raises(DomainError):
            Jet.variable(0, -1.0, 1, 2).sqrt()

    def test_reciprocal_of_zero_rejected(self):
        with pytest.raises(DomainError) as err:
            Jet.variable(0, 0.0, 1, 2).reciprocal()
        assert err.value.value == 0.0

    def test_nonnegative_integer_power_allows_zero(self):
        j = Jet.variable(0, 0.0, 1, 3).power(2)
        assert j.coefficient((2,)) == 1.0

    def test_negative_integer_power_of_negative_base(self):
        j = Jet.variable(0, -2.0, 1, 2).power(-1)
        assert j.value == pytest.approx(-0.5, rel=1e-15)
        assert j.coefficient((1,)) == pytest.approx(-0.25, rel=1e-15)

    def test_order_zero_jet_composes_to_a_constant(self):
        j = Jet.constant(np.array([4.0, 0.25]), 2, 0)
        np.testing.assert_array_equal(j.sqrt().coeffs, [[2.0, 0.5]])
        np.testing.assert_array_equal(j.reciprocal().coeffs, [[0.25, 4.0]])

    def test_noninteger_power_needs_positive_base(self):
        with pytest.raises(DomainError):
            Jet.variable(0, -1.0, 1, 2).power(1.5)


class TestExtract:
    def test_mixed_partial_of_xy(self):
        x = Jet.variable(0, 1.0, 2, 2)
        y = Jet.variable(1, 1.0, 2, 2)
        assert (x * y).extract((1, 1)) == pytest.approx(1.0, abs=1e-15)

    def test_degree_above_order_rejected(self):
        j = Jet.variable(0, 1.0, 2, 2)
        with pytest.raises(ValueError):
            j.extract((3, 0))

    def test_factorial_normalization(self):
        x = Jet.variable(0, 1.5, 1, 4)
        p4 = x.power(4)
        # d^4/dx^4 x^4 = 24
        assert p4.extract((4,)) == pytest.approx(24.0, rel=1e-13)

    def test_batch_extract_returns_array(self):
        x = Jet.variable(0, np.array([1.0, 2.0]), 1, 2)
        out = (x * x).extract((1,))
        assert isinstance(out, np.ndarray)
        np.testing.assert_allclose(out, [2.0, 4.0])


def jets(num_vars=2, max_order=3, min_const=None):
    """Hypothesis strategy: jets with bounded random coefficients."""
    from keplerflag.jets import _space

    sp = _space(num_vars, max_order)
    coeff = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)

    def build(values):
        arr = np.array(values)
        if min_const is not None and abs(arr[0]) < min_const:
            arr[0] = min_const if arr[0] >= 0 else -min_const
        return Jet(sp, arr)

    return st.lists(coeff, min_size=sp.ncoeff, max_size=sp.ncoeff).map(build)


class TestRingAxioms:
    @settings(max_examples=200, deadline=None)
    @given(jets(), jets())
    def test_commutativity(self, a, b):
        assert jet_close(a * b, b * a)

    @settings(max_examples=200, deadline=None)
    @given(jets(), jets(), jets())
    def test_associativity(self, a, b, c):
        assert jet_close((a * b) * c, a * (b * c))

    @settings(max_examples=200, deadline=None)
    @given(jets(), jets(), jets())
    def test_distributivity(self, a, b, c):
        assert jet_close(a * (b + c), a * b + a * c)

    @settings(max_examples=200, deadline=None)
    @given(jets(min_const=0.5))
    def test_reciprocal_inverse(self, a):
        one = Jet.constant(1.0, a.num_vars, a.max_order)
        assert jet_close(a * a.reciprocal(), one)

    @settings(max_examples=200, deadline=None)
    @given(jets(min_const=0.5))
    def test_sqrt_squares_back(self, a):
        pos = a * a + 0.25  # strictly positive constant term
        assert jet_close(pos.sqrt() * pos.sqrt(), pos)


# ----------------------------------------------------------------------
# Finite-difference cross-check on smooth built-in test functions.

FD_STEPS = {1: 1e-6, 2: 1e-4, 3: 3e-4, 4: 1e-3}
FD_RTOL = {1: 1e-5, 2: 1e-5, 3: 1e-3, 4: 1e-3}


def central_difference(fn, point, mu):
    order = sum(mu)
    h = FD_STEPS[order]

    def diff(f, var, times):
        if times == 0:
            return f

        def stepped(p):
            lo, hi = list(p), list(p)
            lo[var] -= h
            hi[var] += h
            inner = diff(f, var, times - 1)
            return (inner(tuple(hi)) - inner(tuple(lo))) / (2.0 * h)

        return stepped

    f = fn
    for var, times in enumerate(mu):
        f = diff(f, var, times)
    return f(point)


def smooth_cases():
    def f1(x, y, z):
        return (x * x + y * y + z * z + 1.0).sqrt() if isinstance(x, Jet) else \
            math.sqrt(x * x + y * y + z * z + 1.0)

    def f2(x, y, z):
        if isinstance(x, Jet):
            return (2.0 + x + y * z) * ((3.0 + x * x).reciprocal())
        return (2.0 + x + y * z) / (3.0 + x * x)

    def f3(x, y, z):
        if isinstance(x, Jet):
            return ((1.0 + x * x) * (2.0 + y + z * z)).power(1.5)
        return ((1.0 + x * x) * (2.0 + y + z * z)) ** 1.5

    return [
        (f1, (0.3, -0.7, 1.1)),
        (f2, (0.9, 0.4, -0.5)),
        (f3, (0.2, 0.6, -0.4)),
    ]


@pytest.mark.parametrize("case", range(3))
def test_all_partials_match_finite_differences(case):
    fn, point = smooth_cases()[case]
    x = Jet.variable(0, point[0], 3, 4)
    y = Jet.variable(1, point[1], 3, 4)
    z = Jet.variable(2, point[2], 3, 4)
    jet = fn(x, y, z)

    def scalar(p):
        return fn(*p)

    for mu in jet._space.monomials:
        order = sum(mu)
        if order == 0:
            continue
        exact = jet.extract(mu)
        approx = central_difference(scalar, point, mu)
        scale = max(abs(exact), abs(approx), 1.0)
        assert abs(exact - approx) <= FD_RTOL[order] * scale, (
            f"partial {mu}: jet {exact} vs finite difference {approx}"
        )


class TestStructure:
    def test_derivative_shifts_coefficients(self):
        x = Jet.variable(0, 2.0, 2, 3)
        y = Jet.variable(1, -1.0, 2, 3)
        f = x * x * y + y * y
        fx = f.derivative(0)  # 2xy
        assert fx.max_order == 2
        assert fx.value == pytest.approx(2.0 * 2.0 * -1.0)
        assert fx.extract((1, 1)) == pytest.approx(2.0)

    def test_derivative_of_order_zero_fails(self):
        j = Jet.constant(1.0, 2, 0)
        with pytest.raises(ValueError):
            j.derivative(0)

    def test_truncation_is_prefix_exact(self):
        x = Jet.variable(0, 1.3, 2, 4)
        f = (1.0 + x * x).sqrt()
        g = f.truncated(2)
        assert g.max_order == 2
        for mu in g._space.monomials:
            assert g.coefficient(mu) == f.coefficient(mu)

    def test_truncation_cannot_raise_order(self):
        j = Jet.constant(1.0, 2, 2)
        with pytest.raises(ValueError):
            j.truncated(3)

    def test_jet_scalar_mode_consistency(self):
        # order-zero coefficient of any composite equals the plain evaluation
        x = Jet.variable(0, 0.8, 1, 4)
        f = ((1.0 + x * x).sqrt() + x.reciprocal()).power(2)
        direct = (math.sqrt(1.0 + 0.64) + 1.0 / 0.8) ** 2
        assert f.value == pytest.approx(direct, rel=1e-13)

    def test_batched_matches_scalar_lanes(self):
        vals = np.array([0.5, 1.0, 2.5])
        xb = Jet.variable(0, vals, 1, 4)
        fb = (1.0 + xb * xb).sqrt() * xb.reciprocal()
        for lane, v in enumerate(vals):
            xs = Jet.variable(0, float(v), 1, 4)
            fs = (1.0 + xs * xs).sqrt() * xs.reciprocal()
            np.testing.assert_allclose(fb.coeffs[:, lane], fs.coeffs, rtol=5e-16)


# ----------------------------------------------------------------------
# The composition must reproduce, coefficient for coefficient, Horner
# started from the full product of a constant jet with delta.


def reference_power(jet, p):
    """``jet ** p`` by Horner over the binomial series, every step a product."""
    c0 = jet.coeffs[0]
    if p.is_integer():
        exps = [int(p) - k for k in range(jet.max_order + 1)]
    else:
        exps = [p - k for k in range(jet.max_order + 1)]
    series = []
    binom = 1.0
    for k, e in enumerate(exps):
        series.append(binom * c0**e)
        binom *= (p - k) / (k + 1.0)
    delta_coeffs = jet.coeffs.copy()
    delta_coeffs[0] = 0.0
    delta = Jet(jet._space, delta_coeffs)
    result = Jet.constant(
        np.broadcast_to(series[-1], jet.coeffs.shape[1:]),
        jet.num_vars, jet.max_order,
    )
    for ck in series[-2::-1]:
        result = result * delta + ck
    return result


def _random_jet(rng, batch):
    from keplerflag.jets import _space

    sp = _space(3, 4)
    coeffs = rng.normal(size=(sp.ncoeff,) + batch)
    coeffs[0] = rng.uniform(0.2, 3.0, size=batch)
    return Jet(sp, coeffs)


@pytest.mark.parametrize("batch", [(), (257,)], ids=["scalar", "batched"])
@pytest.mark.parametrize(
    "op, p",
    [
        (Jet.sqrt, 0.5),
        (Jet.reciprocal, -1.0),
        (lambda j: j.power(1.5), 1.5),
        (lambda j: j.power(-2), -2.0),
    ],
    ids=["sqrt", "reciprocal", "power_1.5", "power_-2"],
)
def test_composition_matches_full_product_horner(op, p, batch):
    rng = np.random.default_rng(11)
    for _ in range(3):
        jet = _random_jet(rng, batch)
        got = op(jet).coeffs
        want = reference_power(jet, p).coeffs
        assert got.shape == want.shape
        assert np.array_equal(got, want)
