"""Tests for the structural-identity suite: its draws, and its array checks
against the point-by-point loops they replace, kept here as the reference.
Each loop draws what its check draws for a point, whatever it computes
there, so each pair ends in the same generator state."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from keplerflag import identities
from keplerflag.cli import main
from keplerflag.curvature import flag_curvature, flag_curvature_closed_form
from keplerflag.identities import (
    DEFAULT_SEED,
    _draw,
    _finite_difference,
    _rows,
    _uniform,
    random_admissible,
    run_identity_checks,
)
from keplerflag.metric import (
    DENOMINATOR_BELOW_TOLERANCE,
    MetricParams,
    PhasePoint,
    cartesian_fiber_point,
    fstar_cartesian,
    fstar_polar,
    fstar_polar_jet,
    lstar,
    lstar_jet,
    scaling_reduce,
    validate_domain,
)

# Every (lo, hi) the suite draws a uniform number from.
RANGES = [(0.0, 3.0), (1.05, 3.0), (0.2, 4.0), (-math.pi, math.pi), (0.0, 2.0 * math.pi),
          (-1.0, 1.0), (0.3, 4.0), (-10.0, 10.0), (1.51, 5.0), (0.3, 10.0)]

K_LINE = "K fiber 0-homogeneity and y-invariance"


def reference_admissible(rng, a=None, c=None):
    """One admissible draw as the suite made it, with ``rng.uniform``."""
    while True:
        aa = float(rng.uniform(0.0, 3.0)) if a is None else a
        if c is None:
            crit = MetricParams(aa, 1.0).critical_c
            cc = float((crit if crit > 0 else 0.5) * rng.uniform(1.05, 3.0) + 0.1)
        else:
            cc = c
        params = MetricParams(aa, cc)
        x = float(rng.uniform(0.2, 4.0) * (-1.0, 1.0)[rng.integers(2)])
        y = float(rng.uniform(-math.pi, math.pi))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        scale = float(10.0 ** rng.uniform(-1.0, 1.0))
        pt = PhasePoint(x, y, scale * math.sin(theta), scale * math.cos(theta))
        status = validate_domain(params, pt)
        if status.ok and status.radicand > 1e-6:
            return params, pt


def rel(a, b, floor=1e-30):
    return abs(a - b) / max(abs(a), abs(b), floor)


# The checks one point at a time: each returns its worst.

def ref_fiber_homogeneity(rng, n=200):
    worst = 0.0
    for _ in range(n):
        params, pt = reference_admissible(rng)
        lam = float(rng.uniform(0.3, 4.0))
        scaled = PhasePoint(pt.x, pt.y, lam * pt.r, lam * pt.t)
        worst = max(worst, rel(fstar_polar(params, scaled), lam * fstar_polar(params, pt)))
    return worst


def ref_euler(rng, n=200):
    worst = 0.0
    for _ in range(n):
        params, pt = reference_admissible(rng)
        L = lstar_jet(params, pt, max_order=1)
        lhs = pt.r * L.extract((0, 1, 0)) + pt.t * L.extract((0, 0, 1))
        worst = max(worst, rel(lhs, 2.0 * lstar(params, pt)))
    return worst


def ref_y_invariance(rng, n=200):
    worst = 0.0
    for _ in range(n):
        params, pt = reference_admissible(rng)
        y2 = float(rng.uniform(-10.0, 10.0))
        moved = PhasePoint(pt.x, y2, pt.r, pt.t)
        worst = max(worst, rel(fstar_cartesian(cartesian_fiber_point(params, pt), params.a),
                               fstar_cartesian(cartesian_fiber_point(params, moved), params.a)))
    return worst


def ref_scaling(rng, n=1000):
    worst = 0.0
    for _ in range(n):
        params, pt = reference_admissible(rng)
        if params.a == 0.0:
            continue
        reduced, moved = scaling_reduce(params, pt)
        rhs = params.a ** (1.0 / 3.0) * fstar_polar(reduced, moved)
        worst = max(worst, rel(fstar_polar(params, pt), rhs))
    return worst


def ref_curvature_symmetries(rng, n=60, forced=lambda x: False):
    """``forced(x)`` makes a point's ``K`` not ok, as a singular one is."""
    worst = 0.0
    for _ in range(n):
        params, pt = reference_admissible(rng)
        lam = float(rng.uniform(0.3, 4.0))
        y2 = float(rng.uniform(-10.0, 10.0))
        base = flag_curvature(params, pt)
        if not base.ok or forced(pt.x):
            continue
        moved = flag_curvature(params, PhasePoint(pt.x, y2, lam * pt.r, lam * pt.t))
        if not moved.ok:
            continue
        worst = max(worst, rel(base.K, moved.K))
    return worst


def ref_oracle_agreement(rng, n=120):
    worst = 0.0
    for _ in range(n):
        c = float(rng.uniform(1.51, 5.0))
        x = float(rng.uniform(0.3, 10.0) * (-1.0, 1.0)[rng.integers(2)])
        sample = flag_curvature(MetricParams(1.0, c), PhasePoint(x, 0.0, 0.0, x))
        if sample.ok:
            worst = max(worst, rel(sample.K, flag_curvature_closed_form(c, x)))
    return worst


def ref_jets_vs_fd(rng):
    """Each partial of the F* jet against its differences of scalar F*."""
    params, pt = MetricParams(1.0, 2.0), PhasePoint(1.1, 0.0, 0.35, 0.9)
    jet = fstar_polar_jet(params, pt, max_order=4)
    worst = 0.0
    for mu in jet._space.monomials:
        if sum(mu):
            approx = _finite_difference(
                lambda p: fstar_polar(params, PhasePoint(p[0], 0.0, p[1], p[2])),
                (pt.x, pt.r, pt.t), mu)
            worst = max(worst, rel(jet.extract(mu), approx, floor=1.0))
    return worst


# check -> (reference, largest difference of the two worsts).  The F* lines
# and the differences run the same IEEE operations on arrays, whose square
# root is correctly rounded as libm's is, and the others differ where an
# array power rounds apart from libm's: the Euler and scaling worsts are a
# few ulps each; K's is an ulp amplified by the conditioning of v t (it
# moves by up to 5.8e-10 over seeds 0-59 but the failing 24), and the
# oracle line's is K's error against an exact value.
REFERENCES = {
    "_check_fiber_homogeneity": (ref_fiber_homogeneity, 0.0),
    "_check_euler": (ref_euler, 8 * np.finfo(float).eps),
    "_check_y_invariance": (ref_y_invariance, 0.0),
    "_check_scaling": (ref_scaling, 8 * np.finfo(float).eps),
    "_check_curvature_symmetries": (ref_curvature_symmetries, 1e-9),
    "_check_oracle_agreement": (ref_oracle_agreement, 1e-12),
    "_check_jets_vs_fd": (ref_jets_vs_fd, 0.0),
}


def test_the_draws_are_those_of_random_admissible():
    for seed, (a, c) in itertools.product(range(10), [(None, None), (1.0, None), (None, 2.5),
                                                      (0.5, 3.0)]):
        one, two, three = (np.random.default_rng(seed) for _ in range(3))
        for _ in range(300):
            aa, cc, *pt = _draw(one, a, c)
            params, point = random_admissible(two, a, c)
            assert (MetricParams(aa, cc), PhasePoint(*pt)) == (params, point)
            assert (params, point) == reference_admissible(three, a, c)
        assert one.bit_generator.state == two.bit_generator.state == three.bit_generator.state


@pytest.mark.parametrize("seed", range(10))
def test_the_rows_are_draws_then_each_extra_by_rng_uniform(seed):
    extra = (0.3, 4.0), (-10.0, 10.0)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _rows(ours, 50, *extra)
    want = []
    for _ in range(50):
        params, pt = reference_admissible(theirs)
        want.append((params.a, params.c, pt.x, pt.y, pt.r, pt.t,
                     *(theirs.uniform(lo, hi) for lo, hi in extra)))
    assert np.array_equal(got.view(np.int64), np.array(want).T.view(np.int64))
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("lo, hi", RANGES)
def test_the_uniform_formula_is_rng_uniform_bit_for_bit(lo, hi):
    ours, numpys = np.random.default_rng(11), np.random.default_rng(11)
    got = np.array([_uniform(lo, hi, u) for u in ours.random(20_000).tolist()])
    want = np.array([numpys.uniform(lo, hi) for _ in range(20_000)])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 2])
@pytest.mark.parametrize("check", REFERENCES)
def test_a_check_agrees_with_its_loop_on_the_same_draws(check, seed):
    reference, within = REFERENCES[check]
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = getattr(identities, check)(ours).worst
    want = reference(theirs)
    assert abs(got - want) <= within, (got, want)
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_a_point_whose_k_is_not_ok_still_draws_lam_and_y2(monkeypatch):
    """The K check evaluates every point and its partner once each, and
    leaves out a pair whose base is not ok, as its loop does."""
    forced = lambda x: abs(x) > 3.5  # noqa: E731  about one point in eight
    evaluate, calls = identities._evaluate, []

    def singular_where_forced(params, x, y, r, t):  # at the base points only
        K, code = evaluate(params, x, y, r, t)
        calls.append(x.size)
        if len(calls) == 1:
            code[forced(x)], K[forced(x)] = DENOMINATOR_BELOW_TOLERANCE, np.nan
        return K, code

    monkeypatch.setattr(identities, "_evaluate", singular_where_forced)
    ours, theirs = np.random.default_rng(DEFAULT_SEED), np.random.default_rng(DEFAULT_SEED)
    got = identities._check_curvature_symmetries(ours)
    want = ref_curvature_symmetries(theirs, forced=forced)
    assert got.passed and abs(got.worst - want) <= 1e-9
    assert calls == [60, 60]
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("check", ["_check_fiber_homogeneity", "_check_euler",
                                   "_check_y_invariance", "_check_scaling"])
def test_a_nan_lane_fails_its_check_and_raises_nothing(check, monkeypatch):
    draws = []

    def nan_third(rng, a=None, c=None):
        aa, cc, x, y, r, t = _draw(rng, a, c)
        draws.append(1)
        return aa, cc, math.nan if len(draws) == 3 else x, y, r, t

    monkeypatch.setattr(identities, "_draw", nan_third)
    result = getattr(identities, check)(np.random.default_rng(DEFAULT_SEED))
    assert not result.passed
    assert math.isnan(result.worst)


def test_the_default_seed_passes_every_check():
    results = run_identity_checks()
    assert [r.passed for r in results] == [True] * 8
    gap = results[-1]
    assert gap.worst == 0.0 and math.copysign(1.0, gap.worst) == 1.0  # not -0.0
    assert all(type(r.passed) is bool and type(r.worst) is float for r in results)


# ROADMAP item 4 (K = Ric / F^2, no v t denominator) is expected to mend
# these two: then they pass, strict xfail reports it, and the marks go.
@pytest.mark.parametrize("seed", [
    pytest.param(seed, marks=pytest.mark.xfail(
        strict=True, reason="K's v t denominator loses digits here (ROADMAP item 4)"))
    for seed in (18, 24)])
def test_k_homogeneity_holds_at_seed(seed):
    results = {r.name: r for r in run_identity_checks(seed)}
    assert results[K_LINE].passed


@pytest.mark.parametrize("seed", [18, 24])
def test_every_other_line_passes_at_seed(seed):
    assert all(r.passed for r in run_identity_checks(seed) if r.name != K_LINE)


# The first 12 hex digits of the sha256 of `keplerflag verify-identities
# --seed s` stdout, for s = 0..59 in order.  Seeds 18 and 24 print the K
# homogeneity line as FAIL (above) and exit 1; the pin holds that output too.
IDENTITY_STDOUT_DIGESTS = """
    26291dc218fb c6644870121a c049a7fe05df e0821008fb6a d6cb49e6b2ce c3c59cb00763
    84f1a02c14b7 5fff0e601c98 8c460ce1b337 e7d5ff57028d 56dbc7ed7a03 0b0318feb5c0
    7b56f61aff69 c50a3d473737 86a88de89180 ba7c890a2c0f 2ece42db0f8d ebba639993f0
    dcf8a6bd6198 0c517140d4b7 75225f9d4901 717de20aaee3 8ffcddd0b20c e8aa7a03c437
    c90773e69fb4 6cf3ea08dcf3 6c29575bd073 f21b9006b27b deefca66940f 06c3b427e6a1
    815bbe0b2cf9 f2bc2c36cb0b 3d4859841fae 4135a0691782 2d54bcffba62 f3b225996316
    17e8b1567aab 99db5395719d f181f9740538 6d60536138b2 8da04d9957ec 4c3a3eba614c
    12a927be4abd 8ef2a6ce5644 7b723583cea8 84cccc1c2edb 4fdaed443bc6 1c938a1f5ef1
    c02adb0372e0 ec1569cab56c dcac1cedff94 a036bba33f11 626342af1813 48881bd0bee9
    6365d7a48750 11f6dfb9a7b0 dfc7b07285bd 29eca331ca25 0b9ccc83dbca 8f5cf3da3b15
""".split()


def test_verify_identities_stdout_keeps_its_bytes(capsys):
    codes = {}
    for seed, want in enumerate(IDENTITY_STDOUT_DIGESTS):
        codes[seed] = main(["verify-identities", "--seed", str(seed)])
        out = capsys.readouterr().out
        digest = hashlib.sha256(out.encode()).hexdigest()[:12]
        assert digest == want, f"verify-identities --seed {seed} prints other bytes:\n{out}"
    assert [seed for seed, code in codes.items() if code] == [18, 24]
