"""keplerflag benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload grid-accept3 --seed 1 --seconds 45 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics: set-up time of
fresh interpreters, rescaled by that of a baseline interpreter; peak RSS
after one warm-up pass; then workload passes for ``--seconds``.
``wall_s`` is the mean pass, rescaled to a reference host speed by a
calibration loop read before and after every step of every pass.  With
``--trace 1`` it alternates untraced and traced passes and reports
per-layer metrics from the traced ones, and scalar-call latency from the
untraced ones.  Every pass is checked against the stored
references.  Descriptive records (provenance, calibration readings, pass
times, failure notes) go to one ``{"perfbench": ...}`` line; the last
line of standard output is the result.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import probes
import program
import tracer as tracing
from workloads import REFS, WORKLOADS, K_RTOL, Tally

SETUP_RUNS = 7
MIN_PASSES = 3

SETUP_CODE = """\
import sys
sys.path.insert(0, {src!r})
import keplerflag
s = keplerflag.flag_curvature(keplerflag.MetricParams({a!r}, {c!r}),
                              keplerflag.PhasePoint(*{point!r}))
print(repr(s.K))
"""


# A fresh interpreter that imports only the package's dependencies: the
# calibration for set-up, which is mostly starting and importing too.
BASELINE_CODE = "import numpy, mpmath"
# Its time on the reference machine when the host is quiet (README.md).
BASELINE_REF_S = 0.2


class SetupProbe:
    """Seconds for a fresh interpreter to import the package and evaluate
    its first point, each run just after a baseline interpreter; each
    result is checked against the reference."""

    def __init__(self, tally):
        with open(REFS / "setup.json", encoding="utf-8") as handle:
            self.ref = json.load(handle)
        self.code = SETUP_CODE.format(src=str(program.SRC), a=self.ref["a"],
                                      c=self.ref["c"], point=self.ref["point"])
        self.tally = tally
        self.times = []
        self.baseline = []

    def measure(self):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", BASELINE_CODE], cwd=program.ROOT,
                       capture_output=True, timeout=120, check=True)
        t1 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", self.code], cwd=program.ROOT,
                              capture_output=True, text=True, timeout=120)
        self.times.append(time.perf_counter() - t1)
        self.baseline.append(t1 - t0)
        try:
            K = float(proc.stdout.strip())
            ok = proc.returncode == 0 and abs(K - self.ref["K"]) <= K_RTOL * abs(self.ref["K"])
        except ValueError:
            ok = False
        self.tally.record(1, not ok, "setup: first point")


def timed_pass(workload, tally, between_steps=lambda: None):
    """One pass, checked; a pass that raises counts all its points failed."""
    t0 = time.perf_counter()
    try:
        result = workload.run_pass(between_steps)
    except Exception as exc:  # report the failure and keep measuring
        tally.record(workload.points, workload.points, f"{workload.name}: {exc!r}")
        return time.perf_counter() - t0, None, None
    return result.seconds, result, workload.check_pass(result, tally)


def percentile_us(latencies_ns, q):
    if not latencies_ns:
        return 0.0
    return float(np.percentile(np.asarray(latencies_ns, dtype=float), q)) / 1e3


def warm_up(workload, tally, record):
    """One unmeasured pass; its output is checked once references load."""
    t0 = time.perf_counter()
    try:
        return workload.run_pass()
    except Exception as exc:  # report the failure and keep measuring
        tally.record(workload.points, workload.points, f"{workload.name}: warm-up {exc!r}")
        return None
    finally:
        record["warmup_s"] = time.perf_counter() - t0


def run_untraced(workload, args, tally, record):
    # Set-ups are spread over the run, one before the warm-up and one after
    # each pass, so that their median does not rest on one moment.
    setup = SetupProbe(tally)
    setup.measure()
    warm = warm_up(workload, tally, record)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.load_refs()
    if warm is not None:
        record["sha256"] = workload.check_pass(warm, tally)

    calibration = probes.Calibration(**workload.calibration)
    elapsed, readings = [], []
    # Passes with their checks, calibrations and set-ups share --seconds;
    # after MIN_PASSES, one that would end past the deadline is not begun.
    deadline = time.perf_counter() + args.seconds
    last = 0.0
    while len(elapsed) < MIN_PASSES or time.perf_counter() + last <= deadline:
        started = time.perf_counter()
        took, result, sha = timed_pass(workload, tally,
                                       lambda: readings.append(calibration()))
        elapsed.append(took)
        if result is not None:
            record["sha256"] = sha
        if len(setup.times) < SETUP_RUNS:
            setup.measure()
        last = time.perf_counter() - started
    while len(setup.times) < SETUP_RUNS:
        setup.measure()
    record["pass_s"] = elapsed
    record["calibration_ms"] = readings
    record["setup_runs_s"] = setup.times
    record["setup_baseline_s"] = setup.baseline
    # The host's busy and quiet spells alternate within seconds, faster
    # than a grid pass, so one factor from all of a run's readings
    # rescales the run's mean pass.
    wall = calibration.rescaled(statistics.mean(elapsed), readings)
    values = {
        "wall_s": wall,
        "points_per_s": workload.points / wall,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": probes.rescaled(statistics.median(setup.times),
                                   statistics.median(setup.baseline), BASELINE_REF_S),
    }
    units = declared_units("end_to_end")
    return {k: (values[k], unit) for k, unit in units.items()}


def declared_units(section):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(program.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def run_traced(workload, args, tally, record, package, mods):
    warm = warm_up(workload, tally, record)
    workload.load_refs()
    if warm is not None:
        workload.check_pass(warm, tally)
    untraced, traced, layers, latencies = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    last = 0.0
    while not traced or time.perf_counter() + last <= deadline:
        started = time.perf_counter()
        took, result, _ = timed_pass(workload, tally)
        untraced.append(took)
        if result is not None:
            latencies += result.latencies_ns
        tracer = tracing.Tracer()
        tracing.install(tracer, package, mods)
        try:
            elapsed = timed_pass(workload, tally)[0]
        finally:
            tracer.restore()
        traced.append(elapsed)
        layers.append(tracing.layer_metrics(tracer))
        record["absent_spans"] = tracer.absent
        last = time.perf_counter() - started
    values = {k: statistics.median(v[k] for v in layers) for k in layers[0]}
    values["trace.overhead_frac"] = (min(traced) - min(untraced)) / min(untraced)
    # Untraced scalar calls of the point-queries passes; the grid
    # workloads make none and report 0, like any layer they do not enter.
    values["curvature.point_latency_p50_us"] = percentile_us(latencies, 50)
    values["curvature.point_latency_p99_us"] = percentile_us(latencies, 99)
    record["latency_calls"] = len(latencies)
    values.update(probes.jet_probe(mods["jets"].Jet))
    values["calibration.gather_reduce_ms"] = probes.Calibration(**probes.GRID_CALIBRATION)()
    record["untraced_pass_s"] = untraced
    record["traced_pass_s"] = traced
    units = declared_units("per_layer")
    return {k: (values[k], unit) for k, unit in units.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = args.seed % 2**63

    try:
        package, mods = program.load()
    except program.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    tally = Tally()
    record = {"workload": args.workload, "trace": args.trace}
    workload = WORKLOADS[args.workload]()
    with tempfile.TemporaryDirectory(dir=program.ROOT, prefix=".perfbench-tmp-") as tmp:
        workload.prepare(package, mods, seed, tmp)
        if args.trace:
            metrics = run_traced(workload, args, tally, record, package, mods)
        else:
            metrics = run_untraced(workload, args, tally, record)

    ref_sha = getattr(workload, "ref", {}).get("sha256")
    if ref_sha is not None and record.get("sha256"):
        record["bit_identical"] = record["sha256"] == str(ref_sha)
    record["failure_notes"] = tally.notes
    record["provenance"] = probes.provenance(args.seed, mods)
    print(json.dumps({"perfbench": record}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
