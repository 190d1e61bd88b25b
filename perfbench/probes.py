"""Host-speed calibration, and diagnostics that are never gated.

* :class:`Calibration` times a fixed gather + ``reduceat`` loop written in
  plain NumPy, shaped like one order-4 product of 3-variable jets, at a
  workload's batch size.  It does not touch the program, so when it slows
  down with the workload the machine is busy, and when the workload slows
  alone the code is.  ``wall_s`` is rescaled by it (see README.md).
* :func:`jet_probe` times ``Jet`` products, square roots and reciprocals on
  batches whose working set sits on either side of the per-core L2.
* :func:`provenance` records what produced a result.
"""

from __future__ import annotations

import itertools
import os
import platform
import statistics
import subprocess
import time

import mpmath
import numpy as np

from program import ROOT
from tracer import product_bytes

NUM_VARS = 3
MAX_ORDER = 4
# Pass time grows as about the 0.7th power of the calibration time: the
# log-log slope was 0.66-0.68 over 116 grid-accept3 passes and 0.67 over
# 320 steps of point queries on the reference machine.  Part of the work
# does not slow with the host.
HOST_EXPONENT = 0.7
# The working set of one product is about 5.3 kB per lane (see
# tracer.product_bytes), so 256 lanes fit a 2 MiB L2 and 8192 do not.
PROBE_LANES = (256, 8192)


def _median_ns(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times)


def rescaled(measured, reading, ref):
    """``measured`` rescaled from a host on which a calibration read
    ``reading`` to the reference host, on which it reads ``ref``."""
    return measured * (ref / reading) ** HOST_EXPONENT


class Calibration:
    """The fixed loop at one batch size: each reading is the median, over
    ``reps`` repetitions, of ``inner`` products over ``lanes`` lanes.

    ``ref_ms`` is its reading on the reference machine when that host is
    quiet (README.md), so scaled times are seconds on that host.
    """

    def __init__(self, lanes, inner, reps, ref_ms):
        monos = [
            m for total in range(MAX_ORDER + 1)
            for m in itertools.product(range(total + 1), repeat=NUM_VARS) if sum(m) == total
        ]
        index = {m: i for i, m in enumerate(monos)}
        pairs = sorted(
            (index[tuple(a + b for a, b in zip(mi, mj))], i, j)
            for i, mi in enumerate(monos) for j, mj in enumerate(monos)
            if sum(mi) + sum(mj) <= MAX_ORDER
        )
        k, self._i, self._j = (np.array(col, dtype=np.intp) for col in zip(*pairs))
        self._starts = np.searchsorted(k, np.arange(len(monos)))
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((len(monos), lanes))
        self._b = rng.standard_normal((len(monos), lanes))
        self.inner = inner
        self.reps = reps
        self.ref_ms = ref_ms

    def _loop(self):
        a, b, i, j, starts = self._a, self._b, self._i, self._j, self._starts
        for _ in range(self.inner):
            np.add.reduceat(a[i] * b[j], starts, axis=0)

    def __call__(self):
        """One reading, in milliseconds."""
        return _median_ns(self._loop, self.reps) / 1e6

    def rescaled(self, seconds, readings):
        """``seconds`` measured while the loop gave ``readings``, rescaled
        to the reference host by the mean reading."""
        return rescaled(seconds, statistics.mean(readings), self.ref_ms)


# The kernel's batch size on the grids; also a diagnostic on every workload.
GRID_CALIBRATION = dict(lanes=8192, inner=1, reps=15, ref_ms=17.0)


def jet_probe(Jet, reps=9):
    """Nanoseconds per lane of Jet products and compositions, by batch size."""
    out = {}
    rng = np.random.default_rng(0)
    for lanes in PROBE_LANES:
        x, r, t = (Jet.variable(v, rng.uniform(0.5, 1.5, lanes), NUM_VARS, MAX_ORDER)
                   for v in range(NUM_VARS))
        # Dense operands with positive constant terms.
        a = (x * r + t).sqrt() + x * x
        b = (r * t + x).reciprocal() + 1.0
        tag = f"b{lanes}"
        out[f"jets.probe.mul_ns_per_lane.{tag}"] = _median_ns(lambda: a * b, reps) / lanes
        out[f"jets.probe.sqrt_ns_per_lane.{tag}"] = _median_ns(a.sqrt, reps) / lanes
        out[f"jets.probe.reciprocal_ns_per_lane.{tag}"] = _median_ns(a.reciprocal, reps) / lanes
        out[f"jets.probe.mul_bytes.{tag}"] = product_bytes(a)
    return out


def _command_output(argv):
    try:
        return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(seed, modules):
    l2 = _command_output(["getconf", "LEVEL2_CACHE_SIZE"])
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "l2_bytes": int(l2) if l2 and l2.isdigit() else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "git_commit": _command_output(["git", "rev-parse", "HEAD"])
        if (ROOT / ".git").exists() else None,
        "chunk": getattr(modules["scan"], "_CHUNK", None),
        "seed": seed,
    }
