"""Lattice and slice evaluation of the flag curvature, with emission.

Grids are row-major over ``(x, phi)`` with endpoints included and the fiber
direction ``(r, t) = (sin phi, cos phi)``; slices evaluate along the ray
``(x, 0, 0, x)``.  :func:`grid_scan` and :func:`slice_scan` each take their
spec, a :class:`GridSpec` or a :class:`SliceSpec`, and return the columns
with their :class:`ScanSummary`.  Inadmissible or denominator-singular lattice points are
kept as first-class rows with a non-``ok`` status so downstream plotting can
see exactly where the domain boundary runs.  Evaluation is vectorized in
blocks of ``_CHUNK`` lanes, each a replay of the kernel's operation tape
(:mod:`keplerflag.tape`), into a preallocated, index-addressed buffer.
Each lane's arithmetic is the same whatever the block size, and output
order is decided by the lattice index alone, so identical specs produce
bit-identical files.

Results are columns, not per-point objects: a :class:`ScanResult` holds
one NumPy array each for ``x``, ``phi``, ``r``, ``t``, ``K`` and the int8
verdict ``code`` into ``metric.VERDICTS``.  Emission formats and writes them
in blocks of rows, so its memory is one block's text whatever the scan's
size.  CSV formats each lattice axis once, then ``K`` per row; JSON fills
one template per sample, with the bytes ``json.dumps`` would write.  Status
text is looked up by code, in tables built once from ``VERDICTS``.
:func:`_write` writes every output destination, the CLI's included.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .curvature import _evaluate
from .metric import OK, VERDICTS, MetricParams, PhasePoint

__all__ = [
    "GridSpec",
    "SliceSpec",
    "ScanResult",
    "ScanSummary",
    "DEFAULT_EXCLUDE_BAND",
    "grid_scan",
    "slice_scan",
    "summarize",
    "emit",
]

# Half-width of the excluded band around the chart singularity x = 0.
DEFAULT_EXCLUDE_BAND = 1e-3

# status and reason strings, and the emitted status field, by verdict code
_STATUS, _REASON = (np.array(column, dtype=object) for column in zip(*VERDICTS))
_FIELD = np.array([f"{s}:{r}" if r else s for s, r in VERDICTS], dtype=object)
_JSON_FIELD = np.array([json.dumps(f) for f in _FIELD], dtype=object)

# Lanes per kernel block: one tape replay, about 2,400 NumPy calls whatever
# the width, into its own 124-row buffer (1 MB at 1,024 lanes).  perfbench/
# sweep_chunk.py, 2-vCPU Xeon, medians of 3, kernel_s/wall_s/peak_rss_mb:
# 256 0.35/0.43/87.8, 512 0.24/0.33/87.8, 1,024 0.20/0.28/87.9, 2,048
# 0.21/0.31/87.7, 4,096 0.14/0.21/87.8, 8,192 0.16/0.24/89.0, 16,384
# 0.17/0.23/97.0 (its references dominate RSS).  grid-accept3 peak_rss_mb
# was 0.8 MB below the batched jets' at 1,024 lanes, 0.25 MB above at 2,048.
_CHUNK = 1024


def _require_range(lo, hi, name):
    """A sampled range: finite ends, ``lo <= hi``, and a finite width, since
    np.linspace steps by ``(hi - lo) / (n - 1)``."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} range {lo}:{hi} must have finite bounds")
    if not lo <= hi:
        raise ValueError(f"{name} range {lo}:{hi} must be nondecreasing")
    if not math.isfinite(hi - lo):
        raise ValueError(f"{name} range {lo}:{hi} must have a finite width")


def _axis(lo, hi, n):
    """``np.linspace(lo, hi, n)``, whose last step may overflow near the float
    range; linspace then sets that point to ``hi``, so the warning is noise."""
    with np.errstate(over="ignore"):
        return np.linspace(lo, hi, n)


def _params(spec):
    return MetricParams(spec.a, spec.c)


def _check_spec(spec, **ranges):
    """The checks a grid and a slice share: each sampled range, the
    exclusion band and the parameters."""
    for name, (lo, hi) in ranges.items():
        _require_range(lo, hi, name)
    if not spec.exclude_band >= 0.0:  # NaN fails too
        raise ValueError("exclude_band must be nonnegative")
    _params(spec)  # parameter validation


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
    params = property(_params)

    def __post_init__(self):
        if self.nx < 1 or self.nphi < 1:
            raise ValueError(f"grid needs nx, nphi >= 1, got {self.nx}, {self.nphi}")
        _check_spec(self, x=(self.x_min, self.x_max), phi=(self.phi_min, self.phi_max))


@dataclass(frozen=True)
class SliceSpec:
    """The fiber ray (x, 0, 0, x) sampled over [x_min, x_max]."""

    c: float
    a: float
    x_min: float = -10.0
    x_max: float = 10.0
    n: int = 2048
    exclude_band: float = DEFAULT_EXCLUDE_BAND
    params = property(_params)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"slice needs n >= 2, got {self.n}")
        _check_spec(self, x=(self.x_min, self.x_max))


@dataclass(frozen=True, eq=False)
class ScanResult:
    """A scan's columns in output order: ``phi`` is NaN on slices, ``K`` NaN
    off ``ok``; ``status`` and ``reason`` look ``code`` up in ``VERDICTS``."""

    x: np.ndarray
    phi: np.ndarray
    r: np.ndarray
    t: np.ndarray
    K: np.ndarray
    code: np.ndarray
    status = property(lambda self: _STATUS[self.code])
    reason = property(lambda self: _REASON[self.code])

    def __len__(self):
        return self.x.size

    def point(self, i):
        """The phase point of row ``i``."""
        return PhasePoint(float(self.x[i]), 0.0, float(self.r[i]), float(self.t[i]))


@dataclass(frozen=True)
class ScanSummary:
    n_ok: int
    n_skipped: int
    min_K: float | None
    max_K: float | None
    argmin: PhasePoint | None
    argmax: PhasePoint | None


def summarize(result):
    """Extremes over the ok rows; empty-result summary when none are ok.

    On ties the first row in output order wins.
    """
    ok = np.flatnonzero(result.code == OK)
    n_skipped = len(result) - ok.size
    if ok.size == 0:
        return ScanSummary(0, n_skipped, None, None, None, None)
    K = result.K[ok]
    lo, hi = ok[np.argmin(K)], ok[np.argmax(K)]
    return ScanSummary(ok.size, n_skipped, float(result.K[lo]), float(result.K[hi]),
                       result.point(lo), result.point(hi))


def _evaluate_points(params, x, r, t, exclude_band):
    """Curvature values and verdict codes over coordinate arrays, evaluated
    in blocks of ``_CHUNK`` lanes.

    Returns ``(K, code)`` aligned with the inputs, ``code`` int8 into
    ``VERDICTS``; ``K`` is NaN wherever ``code`` is not ``OK``.
    """
    K = np.empty(x.size)
    code = np.empty(x.size, np.int8)
    for lo in range(0, x.size, _CHUNK):
        b = slice(lo, lo + _CHUNK)
        K[b], code[b] = _evaluate(params, x[b], 0.0, r[b], t[b], exclude_band)
    return K, code


def grid_scan(spec):
    """Row-major columns over the (x, phi) lattice, plus their summary."""
    xs = _axis(spec.x_min, spec.x_max, spec.nx)
    phis = _axis(spec.phi_min, spec.phi_max, spec.nphi)
    # (r, t) are taken on the phi axis and tiled, so every lattice column
    # evaluates exactly the values emit formats once per axis.
    X = np.repeat(xs, spec.nphi)
    PHI, R, T = (np.tile(v, spec.nx) for v in (phis, np.sin(phis), np.cos(phis)))
    K, code = _evaluate_points(spec.params, X, R, T, spec.exclude_band)
    result = ScanResult(X, PHI, R, T, K, code)
    return result, summarize(result)


def slice_scan(spec):
    """Columns of K along the ray (x, 0, 0, x) of a :class:`SliceSpec`, plus
    their summary."""
    xs = _axis(spec.x_min, spec.x_max, spec.n)
    R = np.zeros_like(xs)
    T = xs.copy()
    K, code = _evaluate_points(spec.params, xs, R, T, spec.exclude_band)
    result = ScanResult(xs, np.full_like(xs, np.nan), R, T, K, code)
    return result, summarize(result)


# ----------------------------------------------------------------------
# emission


# Rows per written block: emission holds one block's text at a time.
_ROWS = 4096

# One JSON sample, as json.dumps(doc, indent=2) writes it.
_SAMPLE = ('    {\n      "x": %s,\n      "phi": %s,\n      "r": %s,\n      "t": %s,\n'
           '      "K": %s,\n      "status": %s\n    }')


def _fmt(values, fmt="%.17g", nan=""):
    """Fields of a float column: ``fmt % v``, and ``nan`` for NaN."""
    return [nan if v != v else fmt % v for v in values.tolist()]


def _json_fmt(values):
    """Fields of a float column as ``json`` writes them, NaN as null."""
    if np.isinf(values).any():
        return [json.dumps(None if v != v else v) for v in values.tolist()]
    return _fmt(values, "%r", "null")


def _blocks(result, fields):
    """Each block's row slice and status fields, read from ``fields`` by code."""
    for lo in range(0, len(result), _ROWS):
        rows = slice(lo, lo + _ROWS)
        yield rows, fields[result.code[rows]].tolist()


def _csv_text(result, spec):
    yield "x,phi,r,t,K,status\n"
    columns = (result.x, result.phi, result.r, result.t, result.K)
    if not (isinstance(spec, GridSpec) and len(result) == spec.nx * spec.nphi):
        for rows, status in _blocks(result, _FIELD):
            fields = zip(*(_fmt(c[rows]) for c in columns), status)
            yield "".join([",".join(f) + "\n" for f in fields])
        return
    # A lattice repeats its axes: format x once per row of the lattice and
    # phi, r, t once per column.
    n = spec.nphi
    heads = [f + "," for f in _fmt(result.x[::n])]
    tails = [",".join(f) + "," for f in zip(*(_fmt(c[:n]) for c in columns[1:4]))]
    for rows, status in _blocks(result, _FIELD):
        yield "".join([f"{heads[i // n]}{tails[i % n]}{k},{s}\n" for i, k, s in
                       zip(range(rows.start, rows.stop), _fmt(result.K[rows]), status)])


def _json_text(result, summary, spec, include_samples):
    doc = {}
    if spec is not None:
        kind = "grid" if isinstance(spec, GridSpec) else "slice"
        doc["spec"] = {"kind": kind, **asdict(spec)}
    doc["summary"] = asdict(summary)
    if include_samples:
        doc["samples"] = []
    text = json.dumps(doc, indent=2)
    if not (include_samples and len(result)):
        yield text + "\n"
        return
    yield text[:-len("]\n}")] + "\n"  # '"samples": [' ends the head
    columns = (result.x, result.phi, result.r, result.t, result.K)
    for rows, status in _blocks(result, _JSON_FIELD):
        fields = zip(*(_json_fmt(c[rows]) for c in columns), status)
        yield ("" if rows.start == 0 else ",\n") + ",\n".join([_SAMPLE % f for f in fields])
    yield "\n  ]\n}\n"


def emit(result, summary, format, destination, spec=None, include_samples=True):
    """Write a scan's rows (and, for JSON, the spec and summary).

    ``destination`` may be a path or ``None``/``"-"`` for standard output.
    CSV columns are exactly ``x,phi,r,t,K,status``; slice output leaves
    ``phi`` empty, and floats have 17 significant digits.  JSON has the
    bytes of ``json.dumps(doc, indent=2)``.  Rows are formatted and written
    ``_ROWS`` at a time, so only one block's text is held in memory.
    """
    if format == "csv":
        text = _csv_text(result, spec)
    elif format == "json":
        text = _json_text(result, summary, spec, include_samples)
    else:
        raise ValueError(f"unknown output format: {format!r}")
    _write(text, destination)


def _write(chunks, destination):
    """Write the strings ``chunks`` to ``destination``, a path, or to standard
    output for ``None`` or ``"-"``: the one writer of output destinations."""
    if destination is None or destination == "-":
        sys.stdout.writelines(chunks)
        return
    try:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise OSError(f"cannot write output to {destination}: {exc}") from exc
