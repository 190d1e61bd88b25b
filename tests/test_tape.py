"""The built-in kernel's tape against the jets it was recorded from.

Arrays replay the tape (``curvature._kernel_tape``); the dense batched jets
(``curvature._flag_batch``) are the reference, and ``K``, ``v t`` and the
determinant must keep their bits.
"""

import math
import sys
import threading
from functools import partial

import numpy as np
import pytest

from keplerflag import curvature, tape
from keplerflag.curvature import _evaluate, _flag_batch, _kepler_flag_batch, _kernel_tape
from keplerflag.errors import DomainError
from keplerflag.metric import (
    DEGENERATE_COMETRIC,
    NONFINITE_RESULT,
    OK,
    MetricParams,
    PhasePoint,
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
        return _kernel_tape().replay(x, r, t, params.a, params.c)


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


def test_an_underflowing_lane_ends_nonfinite_and_the_others_keep_their_bits():
    params = MetricParams(1.0, 2.0)
    x, r, t = (c[:300] for c in admissible(params, 512, seed=5))
    x[17] = 1e-200  # x * x underflows: Jet.reciprocal raises
    for kernel in (replayed, _kepler_flag_batch, partial(_flag_batch, y=0.0)):
        with pytest.raises(DomainError):
            kernel(params, x, r=r, t=t)
    K, code = _evaluate(params, x, 0.0, r, t)
    assert code[17] == NONFINITE_RESULT and np.isnan(K[17])
    others = np.arange(x.size) != 17
    assert (code[others] == OK).all()
    want = _flag_batch(params, x[others], 0.0, r[others], t[others])[0]
    assert_same_bits(K[others], want)


def test_a_folded_zero_that_meets_an_infinity_runs_the_jets():
    # t * t / x^2 overflows its top degrees: the jets multiply an infinity by
    # a structural zero, which the tape folds, so its guard hands the lane
    # to the jets and the point query and the scan lane agree.
    params = MetricParams(1.0, 1.5000000000000002)
    x, r, t = np.array([1.9344921105120957e-39, 2.0]), np.zeros(2), np.ones(2)
    assert replayed(params, x, r, t)[-1].tolist() == [False, True]
    for g, w in zip(_kepler_flag_batch(params, x, r, t), _flag_batch(params, x, 0.0, r, t)):
        assert_same_bits(g, w)
    _, code = _evaluate(params, x, 0.0, r, t)
    point = curvature.flag_curvature(params, PhasePoint(x[0], 0.0, 0.0, 1.0))
    assert code[0] == NONFINITE_RESULT and point.reason == "nonfinite_result"


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
    monkeypatch.setattr(curvature, "classify",
                        lambda params, x, r, t, band: (np.zeros(x.shape, np.int8), None))
    _, code = _evaluate(params, x, 0.0, r, t)
    assert (code[bad] == DEGENERATE_COMETRIC).all()
    assert (code[~bad] != DEGENERATE_COMETRIC).all()


def test_one_recording_serves_every_parameter_pair(monkeypatch):
    calls = []
    record = tape.record
    monkeypatch.setattr(tape, "record", lambda *args: calls.append(args) or record(*args))
    curvature._kernel_tape.cache_clear()
    try:
        # a point query runs the jets and records nothing
        sample = curvature.flag_curvature(MetricParams(1.0, 2.0), PhasePoint(1.3, 0.0, 0.4, -0.8))
        assert sample.ok and calls == []
        for a, c in PAIRS:
            params = MetricParams(a, c)
            x, r, t = admissible(params, 256, seed=1)
            K, code = _evaluate(params, x, 0.0, r, t)
            assert_same_bits(K, _flag_batch(params, x, 0.0, r, t)[0])
        assert len(calls) == 1
        assert _kernel_tape().inputs == 5
    finally:
        curvature._kernel_tape.cache_clear()


def test_threads_scanning_at_once_match_sequential_runs():
    # Four threads on two cores, switching often, share one tape (recorded by
    # whichever gets there first) and each replay's buffer is its own.
    specs = [GridSpec(x_min=-3.0, x_max=3.0, nx=48, phi_min=0.0, phi_max=6.0, nphi=48,
                      c=c, a=a) for a, c in [(1.0, 1.55), (0.37, 1.1)]]

    def columns(spec):
        result, _ = grid_scan(spec)
        return result.K.tobytes() + result.code.tobytes()

    sequential = [columns(spec) for spec in specs]
    curvature._kernel_tape.cache_clear()
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
