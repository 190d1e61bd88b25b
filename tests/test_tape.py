"""The kernel tapes against the jets they were recorded from: the built-in
family's, and a callback's where a test says so.

Arrays replay a tape (``curvature._FAMILY.tape`` for the family), and
point queries, all but the built-in family's first, run it emitted as
Python over floats (``curvature._FAMILY.emitted``); the dense batched jets
(``curvature._flag_batch``) are the reference, and ``K``, ``v t`` and the
determinant must keep their bits.
"""

import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import keplerflag
from keplerflag import curvature, tape
from keplerflag.curvature import (
    CallbackCartanMetric,
    _evaluate,
    _flag_batch,
    _kepler_flag_batch,
    _verdict,
    flag_curvature,
)
from keplerflag.errors import DomainError
from keplerflag.identities import random_admissible
from keplerflag.metric import (
    CHART_SINGULARITY,
    DEGENERATE_COMETRIC,
    NONFINITE_RESULT,
    OK,
    VERDICTS,
    MetricParams,
    PhasePoint,
    _unit_fiber,
    classify,
)
from keplerflag.scan import GridSpec, grid_scan

PAIRS = [(1.0, 1.55), (0.0, 1.55), (0.0, 0.3), (2.5, 3.7), (0.37, 1.1), (1.0, 1.51)]


def assert_same_bits(got, want):
    nan = np.isnan(want)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got.view(np.int64)[~nan], want.view(np.int64)[~nan])


def admissible(params, n, seed):
    """Lanes of ``n`` random draws over ``|x| <= 4`` that ``classify`` admits."""
    rng = np.random.default_rng(seed)
    x, phi = rng.uniform(-4.0, 4.0, n), rng.uniform(0.0, 2.0 * math.pi, n)
    r, t = np.sin(phi), np.cos(phi)
    ok = classify(params, x, r, t)[0] == OK
    return x[ok], r[ok], t[ok]


def replayed(params, x, r, t):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return curvature._FAMILY.tape.replay(x, r, t, params.a, params.c)


@pytest.mark.parametrize("a, c", PAIRS)
def test_replay_matches_the_dense_jets(a, c):
    params = MetricParams(a, c)
    x, r, t = admissible(params, 4096, seed=int(100 * c))
    assert x.size > 2000
    *got, exact = replayed(params, x, r, t)
    assert exact.all()
    for g, w in zip(got, _flag_batch(params, x, 0.0, r, t)):
        assert_same_bits(g, w)


def test_an_accept3_block():
    spec = GridSpec(x_min=-3.0, x_max=3.0, nx=256, phi_min=0.0, phi_max=2.0 * math.pi,
                    nphi=256, c=1.55, a=1.0)
    result, _ = grid_scan(spec)
    block = slice(30 * 1024, 31 * 1024)
    x, r, t = result.x[block], result.r[block], result.t[block]
    *got, exact = replayed(spec.params, x, r, t)
    want = _flag_batch(spec.params, x, 0.0, r, t)
    assert exact.all() and (result.code[block] == OK).all()
    for g, w in zip(got, want):
        assert_same_bits(g, w)
    assert_same_bits(result.K[block], want[0])


def test_an_underflowing_lane_ends_nonfinite_and_the_others_keep_their_bits(monkeypatch):
    params = MetricParams(1.0, 2.0)
    x, r, t = (c[:300] for c in admissible(params, 512, seed=5))
    x[17] = 1e-200  # x * x underflows: Jet.reciprocal raises
    with pytest.raises(DomainError):
        _flag_batch(params, x, 0.0, r, t)
    # the replay marks the lane failed, with NaN as the jets' answer there
    *out, exact = replayed(params, x, r, t)
    assert exact.all()
    for got in (out, _kepler_flag_batch(params, x, np.zeros_like(x), r, t)):
        assert all(np.isnan(v[17]) for v in got)
        assert all(np.isfinite(np.delete(v, 17)).all() for v in got)
    # the classifier keeps the lane in the chart band from the kernel; with
    # it admitted too, the failed check ends as nonfinite_result
    others = np.arange(x.size) != 17
    want = _flag_batch(params, x[others], 0.0, r[others], t[others])[0]
    for verdict in (CHART_SINGULARITY, NONFINITE_RESULT):
        K, code = _evaluate(params, x, 0.0, r, t)
        assert code[17] == verdict and np.isnan(K[17])
        assert (code[others] == OK).all()
        assert_same_bits(K[others], want)
        monkeypatch.setattr(curvature, "_classify",
                            lambda params, x, r, t: (np.zeros(x.shape, np.int8), None))


def extreme(rng, n):
    """``n`` draws at scales 1e-300 to 1e300 of either sign, with zeros of
    both signs, subnormals and ones mixed in."""
    v = rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-300, 301, n)
    v *= rng.choice([-1.0, 1.0], n)
    special = rng.random(n) < 0.15
    v[special] = rng.choice([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-315, 1.0, -1.0],
                            special.sum())
    return v


@pytest.mark.parametrize("a, c", [(1.0, 1.55), (0.0, 0.3), (2.5, 3.7)])
def test_a_block_of_extreme_lanes_has_the_bits_of_each_lane_alone(a, c):
    # A block never raises: a lane that fails a check is NaN, and so is K on
    # a lane whose guard is not finite, as each lane gives alone.
    params, rng = MetricParams(a, c), np.random.default_rng(23)
    x, r, t = extreme(rng, 256), extreme(rng, 256), extreme(rng, 256)
    y = np.zeros_like(x)
    got = _kepler_flag_batch(params, x, y, r, t)
    raised = 0
    for i in range(x.size):
        lane = slice(i, i + 1)
        want = _kepler_flag_batch(params, x[lane], y[lane], r[lane], t[lane])
        for g, w in zip(got, want):
            assert_same_bits(g[lane], w)
        try:
            _flag_batch(params, x[lane], 0.0, r[lane], t[lane])
        except DomainError:
            raised += 1
    # the lanes take every exit: finite, a failed check (the jets raise), a
    # guard that is not finite (8-9, 91 and 151 of them)
    assert np.isfinite(got[0]).any() and raised
    assert not replayed(params, x, r, t)[-1].all()


def test_a_folded_zero_that_meets_an_infinity_is_nonfinite_result():
    # t * t / x^2 overflows its top degrees: the jets multiply an infinity by
    # a structural zero, which the tape folds, so its guard is not finite
    # and the lane's K is NaN, nonfinite_result.  The evaluator reads the
    # rescaled fiber (0, 0.5...), where the guard is finite.
    params = MetricParams(1.0, 1.5000000000000002)
    x, r, t = np.array([2e-3, 2.0]), np.zeros(2), np.array([1e150, 1.0])
    assert replayed(params, x, r, t)[-1].tolist() == [False, True]
    got = _kepler_flag_batch(params, x, np.zeros_like(x), r, t)
    assert np.isnan(got[0][0]) and _verdict(*(v[0] for v in got)) == NONFINITE_RESULT
    for g, w in zip(got, _flag_batch(params, x[1:], 0.0, r[1:], t[1:])):
        assert_same_bits(g[1:], w)
    K, code = _evaluate(params, x, 0.0, r, t)
    point = curvature.flag_curvature(params, PhasePoint(x[0], 0.0, 0.0, t[0]))
    assert code[0] == OK and point.ok and point.K == pytest.approx(K[0], rel=1e-12)


def test_guard_failing_lanes_agree_with_their_point_queries(monkeypatch):
    # At 1e42 <= |x| <= 1e44 and r near 0 a folded zero meets an infinity on
    # the lanes: their K is NaN, and a one-lane row, a warm point query and
    # a first one, which runs the jets, reach the block's verdict.  No array
    # runs the jets.
    rng, n = np.random.default_rng(42), 200
    a = 10.0 ** rng.uniform(-3.0, 3.0, n) * (rng.random(n) < 0.8)
    params = MetricParams(a, 1.5 * a ** (2.0 / 3.0) * (1.0 + 10.0 ** rng.uniform(-12.0, 3.0, n))
                          + 10.0 ** rng.uniform(-3.0, 0.0, n))
    x = 10.0 ** rng.uniform(42.0, 44.0, n) * rng.choice([-1.0, 1.0], n)
    r = 10.0 ** rng.uniform(-300.0, -40.0, n) * rng.choice([-1.0, 0.0, 1.0], n)
    t, y = rng.uniform(-1.0, 1.0, n), np.zeros(n)
    flag_batch = curvature._flag_batch

    def points_only(metric, *coords):
        assert not any(isinstance(v, np.ndarray) for v in (metric.a, metric.c, *coords))
        return flag_batch(metric, *coords)

    monkeypatch.setattr(curvature, "_flag_batch", points_only)
    K, code = _evaluate(params, x, y, r, t)
    guard = replayed(params, x, *_unit_fiber(r, t))[-1]
    assert (~guard & (code == NONFINITE_RESULT)).sum() > 20
    for i in range(n):
        lane, pair = slice(i, i + 1), MetricParams(a[i], params.c[i])
        K_row, code_row = _evaluate(MetricParams(a[lane], params.c[lane]), x[lane], y[lane],
                                    r[lane], t[lane])
        assert_same_bits(K_row, K[lane])
        assert code_row[0] == code[i]
        pt = PhasePoint(x[i], 0.0, r[i], t[i])
        monkeypatch.setattr(curvature._FAMILY, "warm", False)
        samples = [flag_curvature(pair, pt) for _ in range(2)]  # first, then warm
        assert [s.reason for s in samples] == [VERDICTS[code[i]][1]] * 2


def test_a_degenerate_determinant_keeps_its_verdict(monkeypatch):
    # Below the critical energy the fiber Hessian is indefinite in places;
    # admit every lane with a positive radicand to reach them.
    params = MetricParams(1.0, 1.0)
    rng = np.random.default_rng(3)
    x, phi = rng.uniform(-3.0, 3.0, 1024), rng.uniform(0.0, 2.0 * math.pi, 1024)
    r, t = np.sin(phi), np.cos(phi)
    keep = classify(params, x, r, t)[1] > 0.0
    x, r, t = x[keep], r[keep], t[keep]
    *got, exact = replayed(params, x, r, t)
    want = _flag_batch(params, x, 0.0, r, t)
    assert exact.all()
    for g, w in zip(got, want):
        assert_same_bits(g, w)
    bad = want[2] <= 0.0
    assert 0 < bad.sum() < bad.size
    monkeypatch.setattr(curvature, "_classify",
                        lambda params, x, r, t: (np.zeros(x.shape, np.int8), None))
    _, code = _evaluate(params, x, 0.0, r, t)
    assert (code[bad] == DEGENERATE_COMETRIC).all()
    assert (code[~bad] != DEGENERATE_COMETRIC).all()


@pytest.fixture
def fresh_process(monkeypatch):
    """No tape recorded or emitted and no point query run yet, as in a new
    process; the list of ``tape.record`` calls."""
    calls = []
    record = tape.record
    monkeypatch.setattr(tape, "record", lambda *args: calls.append(args) or record(*args))
    monkeypatch.setattr(curvature, "_FAMILY", curvature._Kernel())
    curvature._callback_kernel.cache_clear()
    yield calls
    curvature._callback_kernel.cache_clear()


def emitted_once():
    """Whether the built-in family's tape has been emitted."""
    return "emitted" in vars(curvature._FAMILY)


def test_one_recording_serves_every_parameter_pair(fresh_process):
    calls = fresh_process
    params, pt = MetricParams(1.0, 2.0), PhasePoint(1.3, 0.0, 0.4, -0.8)
    # the first point query runs the jets and records nothing
    first = flag_curvature(params, pt)
    assert first.ok and calls == []
    assert not emitted_once()
    # the second records the tape and emits it
    assert flag_curvature(params, pt).K.hex() == first.K.hex()
    assert len(calls) == 1 and emitted_once()
    for a, c in PAIRS:
        params = MetricParams(a, c)
        x, r, t = admissible(params, 256, seed=1)
        K, code = _evaluate(params, x, 0.0, r, t)
        assert_same_bits(K, _flag_batch(params, x, 0.0, r, t)[0])
    assert len(calls) == 1
    assert curvature._FAMILY.tape.inputs == 5


def test_emission_reuses_the_recording_of_an_array_call(fresh_process):
    calls = fresh_process
    params = MetricParams(1.0, 1.55)
    x, r, t = admissible(params, 64, seed=2)
    _evaluate(params, x, 0.0, r, t)
    assert len(calls) == 1
    for k in range(3):
        sample = flag_curvature(params, PhasePoint(x[k], 0.0, r[k], t[k]))
        assert sample.ok
    assert len(calls) == 1
    assert emitted_once()


def test_one_point_query_leaves_the_tape_unloaded():
    # A one-shot caller, such as `keplerflag point`, pays for neither the
    # recording nor the emission.
    code = "\n".join([
        "import sys",
        "import keplerflag as kf",
        "args = kf.MetricParams(1.0, 2.0), kf.PhasePoint(1.3, 0.0, 0.4, -0.8)",
        "for _ in range(2):",
        "    print(kf.flag_curvature(*args).K.hex(), 'keplerflag.tape' in sys.modules)",
    ])
    src = str(Path(keplerflag.__file__).resolve().parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path}, check=True)
    K = flag_curvature(MetricParams(1.0, 2.0), PhasePoint(1.3, 0.0, 0.4, -0.8)).K.hex()
    assert proc.stdout.split("\n") == [f"{K} False", f"{K} True", ""]


@pytest.mark.parametrize("piece", [1, 300, 5000])
def test_emitted_pieces_hold_each_operation_once(monkeypatch, piece):
    tp, reference = curvature._FAMILY.tape, curvature._FAMILY.emitted
    monkeypatch.setattr(tape, "PIECE", piece)
    functions = tp.source()
    sizes = [size for size, _ in functions]
    emitted = tp.emit()
    assert sizes == list(emitted.sizes)
    assert max(sizes) <= piece and sum(sizes) == len(tp.code) == sum(tp.ops.values())
    # each operation once in the text, by kind: "finite" is an add into the
    # guard; a negation is a minus before a local, a power or a parenthesis
    source = "\n".join(text for _, text in functions)
    kinds = {kind: source.count(kind)
             for kind in ("raise", "pow(", " else ", " + ", " - ", " * ", " / ")}
    kinds["neg"] = len(re.findall(r"(?<![\w.)])-[sp(]", source))
    ops = tp.ops
    assert kinds == {"raise": ops["positive"] + ops["nonzero"], "pow(": ops["pow"],
                     " else ": ops["where"], " + ": ops["add"] + ops["finite"],
                     " - ": ops["sub"], " * ": ops["mul"], " / ": ops["div"], "neg": ops["neg"]}
    # every way of cutting the operations gives the same bits
    rng = np.random.default_rng(piece)
    for params, pt in (random_admissible(rng) for _ in range(20)):
        args = pt.x, pt.r, pt.t, params.a, params.c
        assert emitted(*args) == reference(*args)


def test_the_family_kernel_is_cut_where_few_values_are_live():
    # Each value handed from one function to the next is packed into a
    # tuple and unpacked again, so the cuts fall where few values are live.
    functions = curvature._FAMILY.tape.source()
    widths = [text.split("\n")[0].count(",") for _, text in functions]
    assert [size for size, _ in functions] == [41, 800, 798, 732]
    assert widths == [6, 19, 62, 31]
    assert functions[-1][1].split("\n")[-1].count(",") == 4  # K, v t, det and the guard


def test_emitting_the_family_kernel_peaks_under_one_and_a_half_megabytes():
    # Compiling one function of every operation peaks at about 2 MB.
    tp = curvature._FAMILY.tape
    tp.emit()  # once first, so caches the interpreter fills lazily stay out of the count
    tracemalloc.start()
    try:
        tp.emit()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.55e6


def test_a_long_chain_of_single_reads_nests_within_the_parser():
    # Each sum is read once, by the next: unbounded, the source would nest
    # 1,000 parentheses deep, and the tokenizer stops at 200.
    def chain(x):
        for k in range(1, 1001):
            x = k / 7.0 + x
        return (x,)

    tp = tape.record(chain, 1)
    assert tp.ops == {"add": 1000}
    emitted = tp.emit()
    assert len(emitted.pieces) == 2
    for x in (0.1, -3.3, 1e16):
        assert emitted(x) == (chain(x)[0], True)


def test_emitted_kernel_matches_the_jets_at_random_points():
    rng = np.random.default_rng(7)
    emitted = curvature._FAMILY.emitted
    for _ in range(500):
        params, pt = random_admissible(rng)
        x, r, t = (np.asarray(v) for v in (pt.x, pt.r, pt.t))
        *got, exact = emitted(x, r, t, params.a, params.c)
        assert exact
        want = _flag_batch(params, x, 0.0, r, t)
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


def test_a_power_of_a_negative_number_raises():
    # On a negative base Python's ``**`` returns a complex number and a NumPy
    # scalar's pow NaN; the emitted pow raises, so the jets can take over.
    tp = tape.record(lambda x: (x ** 0.5,), 1)
    assert tp.emit()(4.0) == (2.0, True)
    with pytest.raises(ValueError):
        tp.emit()(-2.0)


@pytest.mark.parametrize("fstar", [
    # the fiber Hessian is the constant [[1, 2], [2, 4]]: det folds to 0
    lambda x, y, r, t: r + 2.0 * t + 0.0 * x,
    # F* = |r|: v folds to 0, and a structural 0 / 0 to a NaN constant
    lambda x, y, r, t: (r * r + 0.0 * t + 0.0 * x).sqrt(),
], ids=["det", "nan"])
def test_an_output_that_folds_to_a_number_gets_a_row_of_its_own(fstar):
    tp = curvature._callback_kernel(fstar).tape
    assert tp.ops["const"] >= 1
    columns = np.random.default_rng(9).uniform(-2.0, 2.0, (4, 256))
    with np.errstate(all="ignore"):
        K, vt, det, exact = tp.replay(*columns)
    assert exact.all() and (det == 0.0).all()
    assert tp.emit()(*columns[:, 0])[2] == 0.0
    _, code = _evaluate(CallbackCartanMetric(fstar), *columns)
    assert (code == DEGENERATE_COMETRIC).all()


@pytest.mark.parametrize("evaluate", [
    lambda metric: _evaluate(metric, *np.ones((4, 3))),
    lambda metric: flag_curvature(metric, PhasePoint(0.5, 0.0, 0.3, 0.7)),
], ids=["block", "point"])
def test_a_branching_callback_raises_at_its_first_evaluation(fresh_process, evaluate):
    # A branch on a recorded comparison would keep one side for every lane.
    def fstar(x, y, r, t):
        norm = (r * r + t * t).sqrt()
        return norm * x if x.coeffs[0] <= 0.0 else norm

    branching = CallbackCartanMetric(fstar)
    for _ in range(2):  # and at every one after it
        with pytest.raises(TypeError, match="jet arithmetic only"):
            evaluate(branching)


@pytest.mark.parametrize("fstar", [
    lambda x, y, r, t: (0.0 * x - 1.0).sqrt() * (r * r + t * t).sqrt(),
    lambda x, y, r, t: (r * r + t * t).sqrt() / (0.0 * x),
    lambda x, y, r, t: (r * r + t * t).sqrt() * (0.0 * x + 0.0).power(-2.0),
], ids=["sqrt", "reciprocal", "power"])
def test_a_check_that_fails_on_a_folded_number_fails_every_lane(fresh_process, fstar):
    # The jets check the number on every lane, so each of them raises alone.
    metric = CallbackCartanMetric(fstar)
    columns = np.random.default_rng(3).uniform(0.5, 2.0, (4, 64))
    with pytest.raises(DomainError):
        _flag_batch(metric, *columns[:, :1])
    assert np.isnan(_kepler_flag_batch(metric, *columns)).all()
    assert np.isnan(curvature._callback_kernel(fstar).emitted(*columns[:, 0])[:3]).all()
    _, code = _evaluate(metric, *columns)
    assert (code == NONFINITE_RESULT).all()
    assert flag_curvature(metric, PhasePoint(*columns[:, 0])).reason == "nonfinite_result"


class TestPointFallback:
    """An emitted kernel that raises hands the point query to the jets, and
    one whose guard is not finite makes ``K`` NaN, so it gets the jets' ``K``
    bits and verdict: the built-in family's first query runs the jets and
    is the reference."""

    def both(self, monkeypatch, params, pt):
        monkeypatch.setattr(curvature._FAMILY, "warm", False)
        samples = [flag_curvature(params, pt) for _ in range(2)]
        return [(s.status, s.reason, None if s.K is None else s.K.hex()) for s in samples]

    def emitted(self, params, pt):
        return curvature._FAMILY.emitted(pt.x, pt.r, pt.t, params.a, params.c)

    @pytest.mark.parametrize("params, pt, error", [
        # the jets' radicand rounds to 0 where the classifier's is 2^-53: a check
        (MetricParams(0.8751882652257628, 1.372436468490984),
         PhasePoint(0.9565341842614196, 0.0, 0.0, 1.0), DomainError),
        (MetricParams(1.0, 2.0), PhasePoint(1.3, 0.0, 0.4, 0.0), ZeroDivisionError),  # v t = 0
        (MetricParams(1.0, 2.0), PhasePoint(0.019835196831098273, 0.0, 3.06492593238924e-100,
                                            -9.065202685875566e-171), OverflowError),  # a power
    ], ids=["check", "zero-division", "overflow"])
    def test_a_raising_kernel(self, monkeypatch, params, pt, error):
        assert classify(params, pt.x, pt.r, pt.t)[0] == OK
        with pytest.raises(error):
            self.emitted(params, pt)
        jets, emitted = self.both(monkeypatch, params, pt)
        assert emitted == jets

    def test_a_power_of_a_negative_base(self, monkeypatch):
        params, pt = MetricParams(1.0, 2.0), PhasePoint(1.3, 0.0, 0.4, -0.8)
        # the kernel's checks keep every base positive: feed pow a negated one
        monkeypatch.setitem(curvature._FAMILY.emitted.pieces[0].__globals__, "pow",
                            lambda base, e: math.pow(-abs(base), e))
        with pytest.raises(ValueError):
            self.emitted(params, pt)
        jets, emitted = self.both(monkeypatch, params, pt)
        assert emitted == jets and jets[0] == "ok"

    def test_a_guard_that_is_not_finite(self, monkeypatch):
        # at |x| = 2e44 a folded zero meets an infinity.  The guard of
        # (0.01, 0, 0, 1e149) failed here until the fiber was rescaled; it
        # reads 0.56888484157 now.
        params = MetricParams(1.0, 1.55)
        pt = PhasePoint(2e44, 0.0, 0.6, 0.8)
        assert self.emitted(params, pt)[-1] is False
        jets, emitted = self.both(monkeypatch, params, pt)
        assert [jets, emitted] == [("domain_error", "nonfinite_result", None)] * 2


def test_threads_scanning_at_once_match_sequential_runs(monkeypatch):
    # Four threads on two cores, switching often, share one tape (recorded by
    # whichever gets there first) and each replay's buffer is its own.
    specs = [GridSpec(x_min=-3.0, x_max=3.0, nx=48, phi_min=0.0, phi_max=6.0, nphi=48,
                      c=c, a=a) for a, c in [(1.0, 1.55), (0.37, 1.1)]]

    def columns(spec):
        result, _ = grid_scan(spec)
        return result.K.tobytes() + result.code.tobytes()

    sequential = [columns(spec) for spec in specs]
    monkeypatch.setattr(curvature, "_FAMILY", curvature._Kernel())
    results = [[] for _ in range(4)]
    start = threading.Barrier(4)

    def work(k):
        start.wait()
        for _ in range(3):
            results[k].append(columns(specs[k % 2]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k, got in enumerate(results):
        assert got == [sequential[k % 2]] * 3


def test_threads_querying_points_at_once_match_sequential_runs(fresh_process):
    # Four threads on two cores make their first point queries at once:
    # whichever threads get there run the jets, record and emit, and every
    # query keeps the bits of a sequential run.
    rng = np.random.default_rng(4)
    queries = [random_admissible(rng) for _ in range(40)]

    def bits():
        return [flag_curvature(params, pt).K.hex() for params, pt in queries]

    sequential = bits()
    curvature._FAMILY = curvature._Kernel()
    results = [None] * 4
    start = threading.Barrier(4)

    def work(k):
        start.wait()
        results[k] = bits()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [sequential] * 4
    assert emitted_once()
