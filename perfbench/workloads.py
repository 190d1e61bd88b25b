"""The benchmark's workloads, their inputs and their correctness checks.

Every workload is driven the way a user drives the program: the grid
workloads call ``keplerflag.cli.main`` in-process with the arguments a shell
user would type, and the point workload calls the public scalar API one
query at a time.  Each pass is checked against references stored in
``refs/`` by ``make_refs.py``; every mismatch counts as one failed operation.

Names are looked up on the program's modules at call time, so the tracer
can wrap them in a traced run without this file knowing about it.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import probes

REFS = Path(__file__).resolve().parent / "refs"

# ROADMAP item 2's tolerance against this commit's K, and acceptance 1's
# tolerance between the pipeline and the closed-form oracle.
K_RTOL = 1e-12
ORACLE_RTOL = 1e-8
COORD_ATOL = 1e-12

# Per point-queries pass: random admissible queries, ray queries checked
# against the oracle, and the sweep size of the convexity verifier.
POINT_RANDOM = 4000
POINT_RAY = 400
CONVEXITY_N = 360
# Random queries per timed step of a point-queries pass.
POINT_STEP = 500

TAU = 2.0 * math.pi


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure notes."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def record(self, attempted, failed, what):
        self.attempted += int(attempted)
        self.failed += int(failed)
        if failed and len(self.notes) < 20:
            self.notes.append(f"{what}: {failed} of {attempted} failed")


@dataclass
class PassResult:
    """One pass: its time and the scalar calls' latencies."""

    seconds: float
    latencies_ns: list
    payload: object


def status_field(sample):
    """A scalar sample's status in the CSV's ``status[:reason]`` form."""
    if sample.status == "ok":
        return "ok"
    return f"{sample.status}:{sample.reason}" if sample.reason else sample.status


def bad_rows(K, status, ref_K, ref_status, rtol=K_RTOL):
    """Rows whose status differs or whose ``K`` misses the reference."""
    status = np.asarray(status)
    if status.shape != ref_status.shape:
        return np.ones(ref_status.shape, dtype=bool)
    bad = status != ref_status
    ok = ref_status == "ok"
    denom = np.maximum(np.abs(ref_K), np.finfo(float).tiny)
    with np.errstate(invalid="ignore"):
        rel = np.abs(np.asarray(K, dtype=float) - ref_K) / denom
    return bad | (ok & ~(rel <= rtol))


def run_cli(cli, argv):
    """Exit code of ``cli.main(argv)``; argparse reports a bad argument by
    raising ``SystemExit``, which becomes its code here."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def _rel(a, b):
    return abs(a - b) / max(abs(b), np.finfo(float).tiny)


def _floats(column):
    return np.array([float(v) if v not in ("", None) else np.nan for v in column])


class GridWorkload:
    """One ``keplerflag grid`` command over a fixed lattice."""

    calibration = probes.GRID_CALIBRATION

    def __init__(self, name, argv, x_range, n, fmt, extremes=None):
        self.name = name
        self.argv = argv
        self.x_range = x_range
        self.n = n
        self.fmt = fmt
        self.extremes = extremes
        self.points = n * n

    def lattice(self):
        xs = np.linspace(self.x_range[0], self.x_range[1], self.n)
        phis = np.linspace(0.0, TAU, self.n)
        X = np.repeat(xs, self.n)
        PHI = np.tile(phis, self.n)
        return X, PHI, np.sin(PHI), np.cos(PHI)

    def prepare(self, kf, mods, seed, tmpdir):
        self.cli = mods["cli"]
        self.out = Path(tmpdir) / f"{self.name}.{self.fmt}"

    def load_refs(self):
        """Load references after the warm-up, so peak RSS excludes them."""
        ref = np.load(REFS / f"{self.name}.npz")
        self.ref = {k: ref[k] for k in ref.files}

    def run_pass(self, between_steps=lambda: None):
        """One pass; ``between_steps`` runs before the first step and after
        each, outside the steps' times."""
        gc.collect()
        err = io.StringIO()
        between_steps()
        with contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rc = run_cli(self.cli, self.argv + ["--out", str(self.out)])
            seconds = time.perf_counter() - t0
        between_steps()
        return PassResult(seconds, [], rc)

    def read_output(self):
        """``(columns, summary)`` parsed back from the emitted file."""
        if self.fmt == "csv":
            with open(self.out, encoding="utf-8") as handle:
                header = handle.readline().rstrip("\n")
                rows = [line.rstrip("\n").split(",") for line in handle]
            if header != "x,phi,r,t,K,status" or any(len(r) != 6 for r in rows):
                raise ValueError("unexpected CSV layout")
            x, phi, r, t, K, status = zip(*rows)
            summary = None
        else:
            with open(self.out, encoding="utf-8") as handle:
                doc = json.load(handle)
            s = doc["samples"]
            x, phi, r, t, K, status = (
                [d[k] for d in s] for k in ("x", "phi", "r", "t", "K", "status")
            )
            summary = doc["summary"]
        cols = {k: _floats(v) for k, v in zip("x phi r t K".split(), (x, phi, r, t, K))}
        cols["status"] = np.array(status)
        return cols, summary

    def check_pass(self, result, tally):
        """Check one pass's output file; returns its sha256."""
        if result.payload != 0:
            tally.record(self.points, self.points, f"{self.name}: exit code {result.payload}")
            return None
        try:
            cols, summary = self.read_output()
        except (OSError, ValueError, KeyError) as exc:
            tally.record(self.points, self.points, f"{self.name}: unreadable output ({exc})")
            return None
        ref = self.ref
        bad = bad_rows(cols["K"], cols["status"], ref["K"], ref["status"])
        if bad.size == cols["x"].size:
            for name, want in zip(("x", "phi", "r", "t"), self.lattice()):
                bad |= ~(np.abs(cols[name] - want) <= COORD_ATOL * np.maximum(1.0, np.abs(want)))
        tally.record(bad.size, int(np.count_nonzero(bad)), f"{self.name}: rows")

        ok = cols["status"] == "ok"
        got = (np.min(cols["K"][ok]), np.max(cols["K"][ok])) if ok.any() else (np.nan, np.nan)
        want = (float(ref["min_K"]), float(ref["max_K"]))
        checks = [_rel(g, w) <= K_RTOL for g, w in zip(got, want)]
        if self.extremes is not None:
            checks += [f"{g:.15f}".startswith(w) for g, w in zip(got, self.extremes)]
        if summary is not None:
            n_ok = int(np.count_nonzero(ref["status"] == "ok"))
            checks += [
                summary.get("n_ok") == n_ok,
                summary.get("n_skipped") == ref["status"].size - n_ok,
            ]
            checks += [
                isinstance(summary.get(k), float) and _rel(summary[k], w) <= K_RTOL
                for k, w in zip(("min_K", "max_K"), want)
            ]
        tally.record(len(checks), checks.count(False), f"{self.name}: extremes and summary")
        with open(self.out, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()


class PointQueries:
    """One caller issuing scalar work one call at a time."""

    name = "point-queries"
    points = POINT_RANDOM + POINT_RAY
    # One lane, as a scalar call's jets have.  A reading takes a few ms, so
    # one fits between every two steps of a pass.
    calibration = dict(lanes=1, inner=500, reps=5, ref_ms=2.5)

    def prepare(self, kf, mods, seed, tmpdir):
        self.kf = kf
        self.cli = mods["cli"]
        self.out = Path(tmpdir) / "convexity.json"
        ref = np.load(REFS / f"{self.name}.npz")
        self.ref = {k: ref[k] for k in ref.files}
        rng = np.random.default_rng(seed)
        self.rand_pick = rng.choice(self.ref["rand"].shape[0], POINT_RANDOM, replace=False)
        self.ray_pick = rng.choice(self.ref["ray"].shape[0], POINT_RAY, replace=False)
        self.rand_inputs = [
            (kf.MetricParams(float(a), float(c)), kf.PhasePoint(float(x), float(y), float(r), float(t)))
            for a, c, x, y, r, t in self.ref["rand"][self.rand_pick]
        ]
        self.ray_inputs = [
            (kf.MetricParams(1.0, float(c)), kf.PhasePoint(float(x), 0.0, 0.0, float(x)), float(c), float(x))
            for c, x in self.ref["ray"][self.ray_pick]
        ]
        # A level curve in the bounded component: c above critical makes
        # the verifier's precondition a|p| < C^2 hold.
        a = float(rng.uniform(0.2, 3.0))
        c = 1.5 * a ** (2.0 / 3.0) * float(rng.uniform(1.05, 2.0)) + 0.05
        theta = float(rng.uniform(0.0, TAU))
        p = float(rng.uniform(0.2, 3.0))
        # "--flag=value" keeps argparse from reading a value such as
        # "-1.5e-05" as an option.
        self.convexity_argv = [
            "verify-convexity", f"--px={p * math.cos(theta)!r}", f"--py={p * math.sin(theta)!r}",
            f"--a={a!r}", f"--c={c!r}", f"--n={CONVEXITY_N}", f"--out={self.out}",
        ]

    def load_refs(self):
        """References were loaded with the inputs drawn from them."""

    def run_pass(self, between_steps=lambda: None):
        """One pass; ``between_steps`` runs before the first step and after
        each, outside the steps' times."""
        gc.collect()
        kf = self.kf
        latencies = []
        rand_samples = []
        ray_samples = []
        steps = []
        between_steps()

        def end_step(t0):
            steps.append(time.perf_counter() - t0)
            between_steps()
            return time.perf_counter()

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            for i, (params, pt) in enumerate(self.rand_inputs, 1):
                t_call = time.perf_counter_ns()
                sample = kf.flag_curvature(params, pt)
                latencies.append(time.perf_counter_ns() - t_call)
                rand_samples.append(sample)
                if i % POINT_STEP == 0:
                    t0 = end_step(t0)
            for params, pt, c, x in self.ray_inputs:
                t_call = time.perf_counter_ns()
                sample = kf.flag_curvature(params, pt)
                latencies.append(time.perf_counter_ns() - t_call)
                ray_samples.append((sample, kf.flag_curvature_closed_form(c, x)))
            t0 = end_step(t0)
            # The suite at its documented default seed, as acceptance 8 runs it.
            rc_ident = run_cli(self.cli, ["verify-identities"])
            t0 = end_step(t0)
            rc_conv = run_cli(self.cli, self.convexity_argv)
            end_step(t0)
        payload = (rand_samples, ray_samples, rc_ident, out.getvalue(), rc_conv)
        return PassResult(sum(steps), latencies, payload)

    def check_pass(self, result, tally):
        rand_samples, ray_samples, rc_ident, ident_text, rc_conv = result.payload
        ref = self.ref
        K = np.array([np.nan if s.K is None else s.K for s in rand_samples])
        status = np.array([status_field(s) for s in rand_samples])
        bad = bad_rows(K, status, ref["rand_K"][self.rand_pick], ref["rand_status"][self.rand_pick])
        tally.record(bad.size, int(np.count_nonzero(bad)), "point-queries: random points")

        failed = 0
        for (sample, oracle), j in zip(ray_samples, self.ray_pick):
            failed += not (
                sample.status == "ok"
                and _rel(sample.K, ref["ray_K"][j]) <= K_RTOL
                and _rel(oracle, ref["ray_oracle"][j]) <= K_RTOL
                and _rel(sample.K, oracle) <= ORACLE_RTOL
            )
        tally.record(len(ray_samples), failed, "point-queries: ray vs oracle")

        lines = [ln for ln in ident_text.splitlines() if ln.startswith(("PASS", "FAIL"))]
        failed = sum(ln.startswith("FAIL") for ln in lines)
        if rc_ident != 0 or not lines:
            failed = max(failed, 1)
        tally.record(max(len(lines), 1), failed, "point-queries: verify-identities")

        try:
            with open(self.out, encoding="utf-8") as handle:
                report = json.load(handle)
            conv_ok = (rc_conv == 0 and report["verdict"] is True
                       and report["n"] == CONVEXITY_N and report["min_form"] > 0.0)
        except (OSError, ValueError, KeyError, TypeError):
            conv_ok = False
        tally.record(1, not conv_ok, "point-queries: verify-convexity")
        return None


WORKLOADS = {
    "grid-accept3": lambda: GridWorkload(
        "grid-accept3",
        ["grid", "--c", "1.55", "--x-range", "-3:3", "--nx", "256", "--nphi", "256"],
        (-3.0, 3.0), 256, "csv",
        # Leading digits of acceptance 3's extremes at this commit.
        extremes=("-5.55394502", "15.2032180"),
    ),
    "grid-boundary": lambda: GridWorkload(
        "grid-boundary",
        ["grid", "--c", "1.51", "--nx", "257", "--nphi", "257", "--format", "json"],
        (-10.0, 10.0), 257, "json",
    ),
    "point-queries": PointQueries,
}
