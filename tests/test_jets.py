"""Tests for the truncated Taylor-jet algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keplerflag import tape
from keplerflag.errors import DomainError
from keplerflag.identities import _finite_difference
from keplerflag.jets import MAX_ORDER, MAX_VARS, Jet, _space


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


    def test_a_lane_array_scales_each_lanes_coefficients(self):
        x = Jet.variable(0, np.array([1.0, 2.0, 3.0]), 2, 2) * Jet.variable(1, 0.5, 2, 2)
        scale = np.array([2.0, -1.0, 0.25])
        for scaled in (scale * x, x * scale):
            assert isinstance(scaled, Jet)
            assert np.array_equal(scaled.coeffs, x.coeffs * scale)


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

FD_RTOL = {1: 1e-5, 2: 1e-5, 3: 1e-3, 4: 1e-3}


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
        approx = _finite_difference(scalar, point, mu)
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

    @pytest.mark.parametrize("num_vars", range(1, MAX_VARS + 1))
    def test_unit_position_holds_the_first_derivative(self, num_vars):
        sp = _space(num_vars, 3)
        jet = Jet(sp, np.random.default_rng(num_vars).normal(size=sp.ncoeff))
        for var, slot in enumerate(sp.unit):
            assert sp.monomials[slot] == tuple(int(k == var) for k in range(num_vars))
            assert jet.coeffs[slot] == jet.derivative(var).coeffs[0]

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
    # Every step is a full-order product.
    start = np.zeros_like(jet.coeffs)
    start[0] = series[-1]
    result = Jet(jet._space, start)
    for ck in series[-2::-1]:
        result = result * delta + ck
    return result


def _random_jet(rng, batch, num_vars=3, max_order=4, extreme=False):
    sp = _space(num_vars, max_order)
    coeffs = rng.normal(size=(sp.ncoeff,) + batch)
    coeffs[0] = rng.uniform(0.2, 3.0, size=batch)
    if extreme:
        # 120 decades and zeros of both signs, yet every Horner value of
        # the four compositions below stays finite.
        coeffs *= 10.0 ** rng.uniform(-60.0, 60.0, size=coeffs.shape)
        pick = rng.random(coeffs.shape)
        coeffs[pick < 0.1] = 0.0
        coeffs[(pick >= 0.1) & (pick < 0.2)] = -0.0
        coeffs[0] = 10.0 ** rng.uniform(-8.0, 8.0, size=batch)
    return Jet(sp, coeffs)


def assert_same_nonzero_bits(got, want):
    """The same NaNs, a zero of either sign where ``want`` has a zero, and
    the same bits everywhere else.  Skipping a product that is an exact
    zero can flip the sign of a sum that is zero."""
    nan, zero = np.isnan(want), want == 0.0
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), nan)
    assert (got[zero] == 0.0).all()
    keep = ~(nan | zero)
    assert np.array_equal(got.view(np.int64)[keep], want.view(np.int64)[keep])


SPACES = [(nv, mo) for nv in range(1, MAX_VARS + 1) for mo in range(MAX_ORDER + 1)]


@pytest.mark.parametrize("batch", [(), (257,), (3, 5)],
                         ids=["scalar", "batched", "batched_2d"])
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
    # The degree-graded steps keep every nonzero bit of full-order Horner,
    # in all 20 spaces, at moderate and extreme magnitudes.
    rng = np.random.default_rng(11)
    for num_vars, max_order in SPACES:
        for extreme in (False, True):
            jet = _random_jet(rng, batch, num_vars, max_order, extreme)
            with np.errstate(all="raise"):
                want = reference_power(jet, p).coeffs
            assert_same_nonzero_bits(op(jet).coeffs, want)


# Compositions write only into their own fresh product: the operand keeps
# its coefficients, batched or not, and a failed check says why.
@pytest.mark.parametrize("batch", [(), (257,)], ids=["scalar", "batched"])
@pytest.mark.parametrize(
    "op",
    [Jet.sqrt, Jet.reciprocal, lambda j: j.power(-1.5), lambda j: j.power(3)],
    ids=["sqrt", "reciprocal", "power_-1.5", "power_3"],
)
def test_composition_leaves_its_operand_alone(op, batch):
    jet = _random_jet(np.random.default_rng(5), batch)
    before = jet.coeffs.copy()
    result = op(jet)
    assert result.coeffs is not jet.coeffs
    assert np.array_equal(jet.coeffs.view(np.int64), before.view(np.int64))


@pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batched"])
@pytest.mark.parametrize(
    "op, c0, message",
    [
        (Jet.sqrt, -2.0, "power 0.5 of a jet requires a positive constant term, got -2.0"),
        (Jet.reciprocal, 0.0, "negative integer power of a jet with zero constant term"),
        (lambda j: j.power(-1.5), -2.0,
         "power -1.5 of a jet requires a positive constant term, got -2.0"),
        (lambda j: j.power(-1), 0.0,
         "negative integer power of a jet with zero constant term"),
    ],
    ids=["sqrt", "reciprocal", "power_-1.5", "power_-1"],
)
def test_composition_domain_messages(op, c0, message, batched):
    jet = Jet.variable(0, [1.0, c0, 3.0] if batched else c0, 2, 3)
    before = jet.coeffs.copy()
    with pytest.raises(DomainError) as err:
        op(jet)
    assert str(err.value) == message
    assert err.value.value == min(c0, 0.0)
    assert np.array_equal(jet.coeffs, before)


# ----------------------------------------------------------------------
# Summation order.  Products sum each coefficient's pairs by a
# precomputed schedule; it must give the bits np.add.reduceat gives over
# the sorted pairs, which is the order the module docstring writes down.


def _coeffs(rng, shape, kind):
    if kind == "moderate":
        v = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    else:
        v = rng.normal(size=shape) * 10.0 ** rng.integers(-150, 151, size=shape)
    pick = rng.random(size=shape)
    v[pick < 0.06] = 0.0
    v[(pick >= 0.06) & (pick < 0.12)] = -0.0
    if kind == "extreme":
        v[(pick >= 0.12) & (pick < 0.14)] = np.inf
        v[(pick >= 0.14) & (pick < 0.16)] = -np.inf
        v[(pick >= 0.16) & (pick < 0.17)] = np.nan
    return v


def assert_same_bits(got, want):
    nan = np.isnan(want)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got.view(np.int64)[~nan], want.view(np.int64)[~nan])


def dense_product(a, b, sp):
    """Every pair product, summed by reduceat in pair order.  The sorted
    pairs come from ``sp.monomials`` alone, not the schedule under test."""
    index = {m: n for n, m in enumerate(sp.monomials)}
    pairs = sorted(
        (index[tuple(p + q for p, q in zip(mi, mj))], i, j)
        for i, mi in enumerate(sp.monomials) for j, mj in enumerate(sp.monomials)
        if sum(mi) + sum(mj) <= sp.max_order
    )
    k, i, j = (np.array(col, dtype=np.intp) for col in zip(*pairs))
    return np.add.reduceat(a[i] * b[j], np.searchsorted(k, np.arange(sp.ncoeff)), axis=0)


@pytest.mark.parametrize(
    "num_vars, max_order",
    [(nv, mo) for nv in range(1, MAX_VARS + 1) for mo in range(MAX_ORDER + 1)],
)
def test_batched_product_sums_like_reduceat(num_vars, max_order):
    sp = _space(num_vars, max_order)
    rng = np.random.default_rng(100 * num_vars + max_order)
    for batch in [(), (1,), (2,), (128,), (257,), (3, 5)]:
        for kind in ("moderate", "extreme"):
            a = _coeffs(rng, (sp.ncoeff,) + batch, kind)
            b = _coeffs(rng, (sp.ncoeff,) + batch, kind)
            with np.errstate(all="ignore"):
                want = dense_product(a, b, sp)
                got = (Jet(sp, a) * Jet(sp, b)).coeffs
            assert_same_bits(got, want)


@pytest.mark.parametrize("num_vars, max_order", [s for s in SPACES if s[1] >= 1])
def test_variable_products_match_the_dense_schedule(num_vars, max_order):
    # A coordinate jet, scaled or not, on either side, on one lane or
    # across lanes, gives the nonzero bits of the dense product.
    sp = _space(num_vars, max_order)
    rng = np.random.default_rng(10 * num_vars + max_order)
    for lanes_var, lanes_other in [((), ()), ((256,), (256,)), ((1,), (256,)),
                                   ((256,), (1,)), ((3, 5), (3, 5))]:
        for var in range(num_vars):
            x = Jet.variable(var, rng.uniform(-3.0, 3.0, lanes_var), num_vars, max_order)
            for kind in ("moderate", "extreme"):
                other = Jet(sp, _coeffs(rng, (sp.ncoeff,) + lanes_other, kind))
                if kind == "extreme":
                    other.coeffs[~np.isfinite(other.coeffs)] = 1.0
                for lin in (x, x * -2.5, x * rng.uniform(-1.0, 1.0, lanes_var)):
                    want = dense_product(lin.coeffs, other.coeffs, sp)
                    assert_same_nonzero_bits((lin * other).coeffs, want)
                    want = dense_product(other.coeffs, lin.coeffs, sp)
                    assert_same_nonzero_bits((other * lin).coeffs, want)
            y = Jet.variable((var + 1) % num_vars, rng.uniform(-3.0, 3.0, lanes_var),
                             num_vars, max_order)
            assert_same_nonzero_bits((x * y).coeffs, dense_product(x.coeffs, y.coeffs, sp))
            assert_same_nonzero_bits((x * x).coeffs, dense_product(x.coeffs, x.coeffs, sp))


def test_threads_multiplying_at_once_match_a_serial_run():
    # Products write only arrays of their own, so two threads multiplying
    # 256-lane order-4 jets at once get the serial bits.
    import threading

    sp = _space(3, 4)
    rng = np.random.default_rng(11)
    operands = [[Jet(sp, rng.standard_normal((sp.ncoeff, 256))) for _ in range(4)]
                for _ in range(2)]

    def products(jets):
        out = []
        for _ in range(25):
            for a in jets:
                out.extend((a * b).coeffs for b in jets)
        return out

    serial = [products(jets) for jets in operands]
    results = [None, None]
    start = threading.Barrier(2)

    def work(k):
        start.wait()
        results[k] = products(operands[k])

    threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for got, want in zip(results, serial):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g.view(np.int64), w.view(np.int64))


# ----------------------------------------------------------------------
# Sparsity on a tape.  Random expressions in every space run on lanes and
# are recorded on tape nodes at once (keplerflag.tape): where the recording
# folded a coefficient to a number, the jets' coefficient is that number
# (a sound sparsity mask), and on every lane the tape's guard passes its
# replay has the jets' nonzero bits.  Compositions on lanes keep the
# nonzero bits of full-order Horner.

COMPOSITIONS = [(Jet.sqrt, 0.5), (Jet.reciprocal, -1.0),
                (lambda j: j.power(1.5), 1.5), (lambda j: j.power(-2), -2.0)]
# Tape inputs per expression: at most one new one per step.
N_INPUTS = 20


def _lanes(rng, batch, extreme):
    v = rng.normal(size=batch)
    return v * 10.0 ** rng.uniform(-60.0, 60.0, size=batch) if extreme else v


def assert_same_bits_where_finite(got, want, *operands):
    lanes = np.ones(got.shape[1:], bool)
    for c in operands:
        lanes &= np.isfinite(c).all(axis=0)
    assert_same_nonzero_bits(got[..., lanes], want[..., lanes])


def _random_step(data, rng, pool, batch, extreme, fresh):
    """One random operation on pairs ``(jet on lanes, jet on tape nodes)``
    drawn from ``pool``, the same on both; ``fresh(lanes)`` is a new tape
    input holding ``lanes``."""
    (a, ra), (b, rb) = data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool))
    order = min(a.max_order, b.max_order)
    a, b, ra, rb = (j.truncated(order) for j in (a, b, ra, rb))
    num_vars = a.num_vars
    op = data.draw(st.sampled_from(
        ["variable", "constant", "+", "-", "+ number", "scale", "* lanes", "*", "*",
         "derivative", "truncated", "compose"]))
    if op == "variable" and order:
        var, lanes = data.draw(st.integers(0, num_vars - 1)), _lanes(rng, batch, extreme)
        return (Jet.variable(var, lanes, num_vars, order),
                Jet.variable(var, fresh(lanes), num_vars, order))
    if op == "constant":
        lanes = _lanes(rng, batch, extreme)
        return Jet.constant(lanes, num_vars, order), Jet.constant(fresh(lanes), num_vars, order)
    if op == "+":
        return a + b, ra + rb
    if op == "-":
        return a - b, ra - rb
    if op == "+ number":
        return 1.5 + a, 1.5 + ra
    if op == "scale":
        return (a * -0.75, ra * -0.75) if data.draw(st.booleans()) else (-0.75 * a, -0.75 * ra)
    if op == "* lanes":
        lanes = _lanes(rng, batch, extreme)
        return a * lanes, ra * fresh(lanes)
    if op == "*":
        return a * b, ra * rb
    if op == "derivative" and order:
        var = data.draw(st.integers(0, num_vars - 1))
        return a.derivative(var), ra.derivative(var)
    if op == "truncated":
        k = data.draw(st.integers(0, order))
        return a.truncated(k), ra.truncated(k)
    if op == "compose":
        fn, p = data.draw(st.sampled_from(COMPOSITIONS))
        shift = np.abs(a.coeffs[0]) + 1.0 - a.coeffs[0]  # constant term > 0
        base = a + shift
        got, want = fn(base), reference_power(base, p)
        assert_same_bits_where_finite(got.coeffs, want.coeffs, base.coeffs, want.coeffs)
        return got, fn(ra + fresh(shift))
    return -a, -ra


@pytest.mark.parametrize("num_vars, max_order", SPACES)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_random_expressions_keep_sound_masks_and_dense_bits(num_vars, max_order, data):
    batch = data.draw(st.sampled_from([(257,), (3, 5)]))
    extreme = data.draw(st.booleans())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    values, pool, nodes, returned = [], [], [], []

    def fresh(lanes):
        values.append(lanes)
        return nodes[len(values) - 1]

    def expression(*inputs):
        nodes.extend(inputs)
        lanes = _lanes(rng, batch, extreme)
        pool.append((Jet.constant(lanes, num_vars, max_order),
                     Jet.constant(fresh(lanes), num_vars, max_order)))
        for v in range(num_vars if max_order else 0):
            lanes = _lanes(rng, batch, extreme)
            pool.append((Jet.variable(v, lanes, num_vars, max_order),
                         Jet.variable(v, fresh(lanes), num_vars, max_order)))
        for _ in range(data.draw(st.integers(1, 12))):
            pool.append(_random_step(data, rng, pool, batch, extreme, fresh))
        returned.extend({id(c): c for _, rec in pool for c in rec.coeffs
                         if isinstance(c, tape.Node)}.values())
        return returned

    with np.errstate(all="ignore"):
        recorded = tape.record(expression, N_INPUTS)
        *outputs, exact = recorded.replay(*values, *[values[0]] * (N_INPUTS - len(values)))
    assert exact.all() or extreme
    replayed = {id(node): out for node, out in zip(returned, outputs)}
    for jet, rec in pool:
        assert jet.coeffs.shape[1:] == batch
        for k, c in enumerate(rec.coeffs):
            lanes = jet.coeffs[k][exact]
            if isinstance(c, tape.Node):
                assert_same_nonzero_bits(replayed[id(c)][exact], lanes)
            else:
                assert (lanes == c).all()


# In two variables at order 4 only x^2 y^2 has a long sum: q0 ... q7 pair
# a's (0,1) (1,0) (0,2) (1,1) (2,0) (1,2) (2,1) (2,2) with the rest of b.
@pytest.mark.parametrize("left", [
    [(0, 0), (0, 1), (1, 0), (2, 0)],          # q0 q1 q4 can be nonzero
    [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1)],  # q0 q1 q2 q3
], ids=["three_leaves", "four_leaves"])
def test_a_long_output_folds_its_zero_leaves_on_the_tape(left):
    sp = _space(2, 4)
    keep = [sp.index[mu] for mu in left]
    k = sp.index[(2, 2)]

    def x2y2(*nodes):
        a, b = np.full(sp.ncoeff, 0.0, dtype=object), np.empty(sp.ncoeff, dtype=object)
        a[keep], b[:] = nodes[: len(keep)], nodes[len(keep):]
        return ((Jet(sp, a) * Jet(sp, b)).coeffs[k],)

    recorded = tape.record(x2y2, len(keep) + sp.ncoeff)
    # one product per pair whose left factor can be nonzero, summed by the
    # tree's additions that do not add a folded zero
    assert (recorded.ops["mul"], recorded.ops["add"]) == (len(left), len(left) - 1)
    rng = np.random.default_rng(17)
    for kind in ("moderate", "extreme"):
        a = _coeffs(rng, (sp.ncoeff, 257), kind)
        b = _coeffs(rng, (sp.ncoeff, 257), kind)
        a[[i for i in range(sp.ncoeff) if i not in keep]] = 0.0
        a[~np.isfinite(a)], b[~np.isfinite(b)] = 1.0, -1.0
        with np.errstate(all="ignore"):
            got, exact = recorded.replay(*a[keep], *b)
            want = dense_product(a, b, sp)[k]
        assert exact.all()
        assert_same_nonzero_bits(got, want)


@pytest.mark.parametrize("batch", [(256,), (3, 5)], ids=["batched", "batched_2d"])
def test_a_single_lane_jet_broadcasts_like_a_one_lane_batch(batch):
    y = Jet.variable(1, np.linspace(0.5, 2.0, math.prod(batch)).reshape(batch), 3, 4)
    x0, x1 = Jet.variable(0, 0.7, 3, 4), Jet.variable(0, [0.7], 3, 4)
    for op in (lambda u, v: u + v, lambda u, v: u - v):
        for got, want in [(op(x0, y), op(x1, y)), (op(y, x0), op(y, x1))]:
            assert got.coeffs.shape == (35,) + batch
            assert_same_bits(got.coeffs, np.broadcast_to(want.coeffs, got.coeffs.shape))
    for got, want in [(x0 * y, x1 * y), (y * x0, y * x1)]:
        assert got.coeffs.shape == (35,) + batch
        assert_same_nonzero_bits(got.coeffs, np.broadcast_to(want.coeffs, got.coeffs.shape))
