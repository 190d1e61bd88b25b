"""Span tracing around the program's layer boundaries, from outside it.

In a traced run the benchmark replaces, for the duration of one pass, the
names each caller looks up with timing wrappers: ``scan`` looks up
``_kepler_flag_batch``, ``cli`` looks up ``grid_scan`` and ``emit``, and so
on.  Every module namespace that holds the same function object gets the
wrapper, so it does not matter through which import a caller reaches it.
A name that a later version of the program no longer defines is recorded
as absent instead of failing the run.

Spans nest: a span's self time is its duration minus the durations of the
spans it directly encloses, and a layer's self time is the sum of its
spans' self times.  Work done by the tracer's own counting hooks is charged
to neither the span nor its parent.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import time
from collections import defaultdict

import numpy as np


@functools.lru_cache(maxsize=None)
def dense_product_pairs(num_vars, max_order):
    """Coefficient pairs ``(i, j)`` with ``deg i + deg j <= max_order`` in a
    dense truncated product of jets in ``num_vars`` variables."""
    # Monomials of degree d in n variables: C(d + n - 1, n - 1).
    per_degree = [math.comb(d + num_vars - 1, num_vars - 1) for d in range(max_order + 1)]
    up_to = np.cumsum(per_degree)
    return int(sum(per_degree[d] * up_to[max_order - d] for d in range(max_order + 1)))


class Tracer:
    """Collects spans and counters while its patches are installed."""

    def __init__(self):
        self._patches = []
        self.absent = []
        self._stack = []
        self._active = defaultdict(int)
        self.inclusive_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.layer_self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    # ------------------------------------------------------------------
    # wrapping

    def _wrap(self, fn, name, outermost_only=False, after=None):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost_only:
                if self._active[name]:
                    return fn(*args, **kwargs)
                self._active[name] += 1
            stack = self._stack
            frame = [0]
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter_ns() - t0
                stack.pop()
                if outermost_only:
                    self._active[name] -= 1
                self.inclusive_ns[name] += dur
                self.self_ns[name] += dur - frame[0]
                self.layer_self_ns[layer] += dur - frame[0]
                self.calls[name] += 1
                if stack:
                    stack[-1][0] += dur
            if after is not None:
                h0 = time.perf_counter_ns()
                try:
                    after(self.counts, args, kwargs, result)
                except Exception:  # a hook that no longer fits the program
                    self.counts[f"hook_error.{name}"] += 1
                if stack:
                    stack[-1][0] += time.perf_counter_ns() - h0
            return result

        return wrapper

    def function(self, modules, home, attr, name, **options):
        """Wrap ``home.attr`` wherever a module in ``modules`` binds it."""
        original = getattr(home, attr, None)
        if not callable(original):
            self.absent.append(name)
            return
        wrapper = self._wrap(original, name, **options)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, value))
                    setattr(module, key, wrapper)

    def method(self, cls, attr, name, **options):
        """Wrap a method, classmethod or staticmethod defined on ``cls``."""
        raw = vars(cls).get(attr)
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self._wrap(raw.__func__, name, **options))
        elif inspect.isfunction(raw):
            replacement = self._wrap(raw, name, **options)
        else:
            self.absent.append(f"{name}:{attr}")
            return
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def restore(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()


# ----------------------------------------------------------------------
# The program's layer boundaries.


def product_bytes(jet):
    """Bytes of the arrays a dense gather-and-reduce product of two such
    jets writes: two gathered operands and their product (pairs x lanes
    each), then the reduced output (coefficients x lanes).  Computed from
    sizes; caches are ignored."""
    pairs = dense_product_pairs(jet.num_vars, jet.max_order)
    lanes = math.prod(jet.coeffs.shape[1:])
    return jet.coeffs.itemsize * lanes * (3 * pairs + jet.coeffs.shape[0])


def _count_mul(c, args, kwargs, result):
    this, other = args
    if type(other) is not type(this):  # scaling by a number, not a product
        return
    lanes = math.prod(this.coeffs.shape[1:])
    c["jets.mul_calls"] += 1
    c["jets.mul_lane_pairs"] += dense_product_pairs(this.num_vars, this.max_order) * lanes
    c["jets.mul_bytes"] += product_bytes(this)
    c["jets.max_batch_lanes"] = max(c["jets.max_batch_lanes"], lanes)


def _count_kernel(c, args, kwargs, result):
    c["curvature.kernel_lanes"] += int(np.size(args[1]))


def _count_rows(c, args, kwargs, result):
    status = np.asarray(result[1])
    for label in ("ok", "domain_error", "singular_v"):
        c[f"scan.rows_{label}"] += int(np.count_nonzero(status == label))


_JET_SPANS = {
    "__mul__": ("jets.mul", {"after": _count_mul}),
    "__rmul__": ("jets.mul", {"after": _count_mul}),
    "sqrt": ("jets.compose", {"outermost_only": True}),
    "reciprocal": ("jets.compose", {"outermost_only": True}),
    "power": ("jets.compose", {"outermost_only": True}),
}
_JET_SKIP = {"__init__", "__repr__", "_check_compatible"}


def install(tracer, package, mods):
    """Wrap every layer boundary of the program; ``mods`` maps layer names
    to the package's modules."""
    jets, metric, curvature, scan, identities, convexity, cli = (
        mods[k] for k in ("jets", "metric", "curvature", "scan", "identities", "convexity", "cli")
    )
    namespaces = [package, *mods.values()]

    Jet = jets.Jet
    for attr, raw in list(vars(Jet).items()):
        if attr in _JET_SKIP or not (
            inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod))
        ):
            continue
        name, options = _JET_SPANS.get(attr, ("jets.op", {}))
        tracer.method(Jet, attr, name, **options)
    for attr in ("__mul__", "sqrt", "reciprocal", "power"):
        if attr not in vars(Jet):
            tracer.absent.append(f"jets.{attr}")

    def fn(home, attr, name, **options):
        tracer.function(namespaces, home, attr, name, **options)

    fn(metric, "_fstar_jet_batch", "metric.fstar_jet")
    fn(metric, "fstar_polar_jet", "metric.fstar_jet")
    fn(metric, "validate_domain", "metric.validate")
    fn(curvature, "_assemble", "curvature.assemble")
    fn(curvature, "_kepler_flag_batch", "curvature.kernel", after=_count_kernel)
    fn(curvature, "flag_curvature", "curvature.point")
    fn(curvature, "flag_curvature_closed_form", "curvature.oracle")
    fn(scan, "grid_scan", "scan.lattice")
    fn(scan, "_evaluate_points", "scan.classify", after=_count_rows)
    fn(scan, "_collect", "scan.collect")
    fn(scan, "summarize", "scan.summarize")
    emit = getattr(scan, "emit", None)

    def count_emit_bytes(c, args, kwargs, result):
        destination = inspect.signature(emit).bind(*args, **kwargs).arguments["destination"]
        if destination not in (None, "-"):
            c["scan.emit_bytes"] += os.path.getsize(destination)

    fn(scan, "emit", "scan.emit", after=count_emit_bytes)
    fn(identities, "run_identity_checks", "identities.checks")
    fn(convexity, "verify_convexity", "convexity.sweep")
    fn(cli, "main", "cli.main")


def layer_metrics(tracer):
    """Per-layer metric values of everything ``tracer`` recorded."""
    def s(table, name):
        return table.get(name, 0) / 1e9

    c = tracer.counts
    evaluated = c.get("curvature.kernel_lanes", 0)
    values = {
        "jets.self_s": s(tracer.layer_self_ns, "jets"),
        "jets.mul_calls": c.get("jets.mul_calls", 0),
        "jets.mul_lane_pairs": c.get("jets.mul_lane_pairs", 0),
        "jets.mul_bytes": c.get("jets.mul_bytes", 0),
        "jets.max_batch_lanes": c.get("jets.max_batch_lanes", 0),
        "jets.compose_s": s(tracer.inclusive_ns, "jets.compose"),
        "jets.compose_calls": tracer.calls.get("jets.compose", 0),
        "metric.fstar_jet_s": s(tracer.inclusive_ns, "metric.fstar_jet"),
        "metric.validate_s": s(tracer.inclusive_ns, "metric.validate"),
        "metric.validate_calls": tracer.calls.get("metric.validate", 0),
        "curvature.assemble_s": s(tracer.inclusive_ns, "curvature.assemble"),
        "curvature.kernel_lanes": evaluated,
        "curvature.point_s": s(tracer.inclusive_ns, "curvature.point"),
        "curvature.point_calls": tracer.calls.get("curvature.point", 0),
        "curvature.oracle_s": s(tracer.inclusive_ns, "curvature.oracle"),
        "curvature.oracle_calls": tracer.calls.get("curvature.oracle", 0),
        "scan.lattice_s": s(tracer.self_ns, "scan.lattice"),
        "scan.classify_s": s(tracer.self_ns, "scan.classify"),
        "scan.kernel_useful_ratio": c.get("scan.rows_ok", 0) / evaluated if evaluated else 0.0,
        "scan.rows_ok": c.get("scan.rows_ok", 0),
        "scan.rows_domain_error": c.get("scan.rows_domain_error", 0),
        "scan.rows_singular_v": c.get("scan.rows_singular_v", 0),
        "scan.collect_s": s(tracer.inclusive_ns, "scan.collect"),
        "scan.summarize_s": s(tracer.inclusive_ns, "scan.summarize"),
        "scan.emit_s": s(tracer.inclusive_ns, "scan.emit"),
        "scan.emit_bytes": c.get("scan.emit_bytes", 0),
        "identities.checks_s": s(tracer.inclusive_ns, "identities.checks"),
        "convexity.sweep_s": s(tracer.inclusive_ns, "convexity.sweep"),
        "cli.self_s": s(tracer.self_ns, "cli.main"),
    }
    values["trace.absent_spans"] = len(tracer.absent)
    values["trace.hook_errors"] = sum(v for k, v in c.items() if k.startswith("hook_error."))
    return values
