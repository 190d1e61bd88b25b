"""Lattice and slice evaluation of the flag curvature, with emission.

Grids are row-major over ``(x, phi)`` with endpoints included and the fiber
direction ``(r, t) = (sin phi, cos phi)``; slices evaluate along the ray
``(x, 0, 0, x)``.  Inadmissible or denominator-singular lattice points are
kept as first-class rows with a non-``ok`` status so downstream plotting can
see exactly where the domain boundary runs.  Evaluation is vectorized in
blocks of 128 lanes over a preallocated, index-addressed buffer.  Each
lane's arithmetic is the same whatever the block size, and output order is
decided by the lattice index alone, so identical specs produce
bit-identical files.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .curvature import SINGULAR_V_TOL, CurvatureSample, _kepler_flag_batch
from .metric import MetricParams, PhasePoint, inner_radicand

__all__ = [
    "GridSpec",
    "SliceSpec",
    "ScanSummary",
    "DEFAULT_EXCLUDE_BAND",
    "grid_scan",
    "slice_scan",
    "summarize",
    "emit",
]

# Half-width of the excluded band around the chart singularity x = 0.
DEFAULT_EXCLUDE_BAND = 1e-3

# Lanes per kernel block.  An order-4 product builds gather temporaries of
# 210 x _CHUNK doubles; at 8192 lanes (14 MB each) glibc maps and unmaps
# them on every call, about 250k minor page faults per 256^2 pass.  From
# 256 to 1024 lanes the count depends on earlier allocations, through
# glibc's adaptive mmap threshold: in a fresh process 256 lanes took 2.6k
# faults on a first pass and 49k on a second, 512 lanes 100k then 900k,
# and 1024 lanes about 1M.  128 lanes keep each temporary at 215 KiB and
# cost 2-3k faults on every pass.  Every lane's arithmetic is independent
# of the block size, so the output is too.
_CHUNK = 128


def _require_finite_bounds(*bounds):
    if not all(math.isfinite(b) for b in bounds):
        raise ValueError(f"range bounds must be finite, got {bounds}")


@dataclass(frozen=True)
class GridSpec:
    """A rectangular (x, phi) lattice for one parameter pair (c, a)."""

    x_min: float
    x_max: float
    nx: int
    phi_min: float
    phi_max: float
    nphi: int
    c: float
    a: float
    exclude_band: float = DEFAULT_EXCLUDE_BAND

    def __post_init__(self):
        if self.nx < 1 or self.nphi < 1:
            raise ValueError(f"grid needs nx, nphi >= 1, got {self.nx}, {self.nphi}")
        _require_finite_bounds(self.x_min, self.x_max, self.phi_min, self.phi_max)
        if self.x_min > self.x_max or self.phi_min > self.phi_max:
            raise ValueError("grid ranges must be nondecreasing")
        if self.exclude_band < 0.0:
            raise ValueError("exclude_band must be nonnegative")
        MetricParams(self.a, self.c)  # parameter validation

    @property
    def params(self):
        return MetricParams(self.a, self.c)


@dataclass(frozen=True)
class SliceSpec:
    """The fiber ray (x, 0, 0, x) sampled over [x_min, x_max]."""

    c: float
    a: float
    x_min: float = -10.0
    x_max: float = 10.0
    n: int = 2048
    exclude_band: float = DEFAULT_EXCLUDE_BAND

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"slice needs n >= 2, got {self.n}")
        _require_finite_bounds(self.x_min, self.x_max)
        if self.x_min > self.x_max:
            raise ValueError("slice range must be nondecreasing")
        if self.exclude_band < 0.0:
            raise ValueError("exclude_band must be nonnegative")
        MetricParams(self.a, self.c)

    @property
    def params(self):
        return MetricParams(self.a, self.c)


@dataclass(frozen=True)
class ScanSummary:
    n_ok: int
    n_skipped: int
    min_K: float | None
    max_K: float | None
    argmin: PhasePoint | None
    argmax: PhasePoint | None


def summarize(samples):
    """Extremes over the ok samples; empty-result summary when none are ok."""
    n_ok = 0
    n_skipped = 0
    min_K = max_K = None
    argmin = argmax = None
    for s in samples:
        if s.status != "ok":
            n_skipped += 1
            continue
        n_ok += 1
        if min_K is None or s.K < min_K:
            min_K, argmin = s.K, s.point
        if max_K is None or s.K > max_K:
            max_K, argmax = s.K, s.point
    return ScanSummary(n_ok, n_skipped, min_K, max_K, argmin, argmax)


def _evaluate_points(params, x, r, t, exclude_band):
    """Statuses and curvature values over coordinate arrays.

    Returns ``(K, status, reason)`` aligned with the inputs; ``K`` is NaN
    wherever the status is not ``ok``.
    """
    npts = x.size
    K = np.full(npts, np.nan)
    status = np.full(npts, "ok", dtype=object)
    reason = np.full(npts, None, dtype=object)

    banned = np.abs(x) < exclude_band
    zero_x = x == 0.0
    status[banned | zero_x] = "domain_error"
    reason[banned | zero_x] = "chart_singularity"

    zero_fiber = (r == 0.0) & (t == 0.0)
    fresh = status == "ok"
    status[fresh & zero_fiber] = "domain_error"
    reason[fresh & zero_fiber] = "zero_fiber_direction"

    if params.a > 0.0 and params.c <= params.critical_c:
        fresh = status == "ok"
        status[fresh] = "domain_error"
        reason[fresh] = "energy_below_critical"
        return K, status, reason

    candidate = status == "ok"
    if np.any(candidate):
        rad = np.full(npts, np.nan)
        rad[candidate] = inner_radicand(
            params, x[candidate], r[candidate], t[candidate]
        )
        bad_rad = candidate & ~(rad > 0.0)
        status[bad_rad] = "domain_error"
        reason[bad_rad] = "negative_radicand"

    idx = np.flatnonzero(status == "ok")
    for lo in range(0, idx.size, _CHUNK):
        sel = idx[lo : lo + _CHUNK]
        Kc, vtc, detc = _kepler_flag_batch(params, x[sel], r[sel], t[sel])
        deg = detc <= 0.0
        sing = ~deg & (np.abs(vtc) < SINGULAR_V_TOL)
        bad = ~np.isfinite(Kc) & ~deg & ~sing
        ok = ~(deg | sing | bad)
        status[sel[deg]] = "domain_error"
        reason[sel[deg]] = "degenerate_cometric"
        status[sel[sing]] = "singular_v"
        reason[sel[sing]] = "denominator_below_tolerance"
        status[sel[bad]] = "domain_error"
        reason[sel[bad]] = "nonfinite_result"
        K[sel[ok]] = Kc[ok]
    return K, status, reason


def _collect(x, r, t, K, status, reason):
    samples = []
    for i in range(x.size):
        pt = PhasePoint(float(x[i]), 0.0, float(r[i]), float(t[i]))
        if status[i] == "ok":
            samples.append(CurvatureSample(pt, float(K[i]), "ok"))
        else:
            samples.append(CurvatureSample(pt, None, str(status[i]), reason[i]))
    return samples


def grid_scan(spec):
    """Row-major samples over the (x, phi) lattice, plus their summary."""
    xs = np.linspace(spec.x_min, spec.x_max, spec.nx)
    phis = np.linspace(spec.phi_min, spec.phi_max, spec.nphi)
    X = np.repeat(xs, spec.nphi)
    PHI = np.tile(phis, spec.nx)
    R = np.sin(PHI)
    T = np.cos(PHI)
    K, status, reason = _evaluate_points(spec.params, X, R, T, spec.exclude_band)
    samples = _collect(X, R, T, K, status, reason)
    return samples, summarize(samples)


def slice_scan(c, a, x_min=-10.0, x_max=10.0, n=2048,
               exclude_band=DEFAULT_EXCLUDE_BAND):
    """Samples of K along (x, 0, 0, x) for x in [x_min, x_max]."""
    spec = SliceSpec(c=c, a=a, x_min=x_min, x_max=x_max, n=n,
                     exclude_band=exclude_band)
    xs = np.linspace(spec.x_min, spec.x_max, spec.n)
    R = np.zeros_like(xs)
    T = xs.copy()
    K, status, reason = _evaluate_points(spec.params, xs, R, T, spec.exclude_band)
    return _collect(xs, R, T, K, status, reason)


# ----------------------------------------------------------------------
# emission


def _fmt(v):
    return "" if v is None else f"{v:.17g}"


def _grid_phis(spec):
    phis = np.linspace(spec.phi_min, spec.phi_max, spec.nphi)
    return np.tile(phis, spec.nx)


def _status_field(sample):
    if sample.status == "ok":
        return "ok"
    if sample.reason:
        return f"{sample.status}:{sample.reason}"
    return sample.status


def _point_dict(sample, phi):
    d = {
        "x": sample.point.x,
        "phi": phi,
        "r": sample.point.r,
        "t": sample.point.t,
        "K": sample.K,
        "status": _status_field(sample),
    }
    return d


def emit(samples, summary, format, destination, spec=None, include_samples=True):
    """Write samples (and, for JSON, the spec and summary) to a destination.

    ``destination`` may be a path or ``None``/``"-"`` for standard output.
    CSV columns are exactly ``x,phi,r,t,K,status``; slice output leaves
    ``phi`` empty.  Floats are serialized with 17 significant digits.
    """
    phis = _grid_phis(spec) if isinstance(spec, GridSpec) else [None] * len(samples)
    if format == "csv":
        lines = ["x,phi,r,t,K,status"]
        for sample, phi in zip(samples, phis):
            p = sample.point
            lines.append(
                ",".join(
                    [
                        _fmt(p.x),
                        _fmt(phi if phi is None else float(phi)),
                        _fmt(p.r),
                        _fmt(p.t),
                        _fmt(sample.K),
                        _status_field(sample),
                    ]
                )
            )
        text = "\n".join(lines) + "\n"
    elif format == "json":
        doc = {}
        if spec is not None:
            kind = "grid" if isinstance(spec, GridSpec) else "slice"
            doc["spec"] = {"kind": kind, **asdict(spec)}
        doc["summary"] = {
            "n_ok": summary.n_ok,
            "n_skipped": summary.n_skipped,
            "min_K": summary.min_K,
            "max_K": summary.max_K,
            "argmin": asdict(summary.argmin) if summary.argmin else None,
            "argmax": asdict(summary.argmax) if summary.argmax else None,
        }
        if include_samples:
            doc["samples"] = [
                _point_dict(sample, None if phi is None else float(phi))
                for sample, phi in zip(samples, phis)
            ]
        text = json.dumps(doc, indent=2) + "\n"
    else:
        raise ValueError(f"unknown output format: {format!r}")

    if destination is None or destination == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(destination, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise OSError(f"cannot write scan output to {destination}: {exc}") from exc
