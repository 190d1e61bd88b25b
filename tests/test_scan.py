"""Tests for grid/slice scanning and emission."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

import keplerflag.scan as scan_module
from keplerflag.curvature import flag_curvature
from keplerflag.metric import (
    CHART_BAND,
    CHART_SINGULARITY,
    DENOMINATOR_BELOW_TOLERANCE,
    OK,
    VERDICTS,
    MetricParams,
    PhasePoint,
)
from keplerflag.scan import (
    GridSpec,
    ScanResult,
    ScanSummary,
    SliceSpec,
    _evaluate_points,
    emit,
    grid_scan,
    slice_scan,
    summarize,
)

TAU = 2.0 * math.pi

# The 21 x 25 c = 1.51 lattice of test_chunked_evaluation_matches_unchunked
# (ok, domain_error and singular_v rows) and a slice with a row at x = 0.
PINNED_GRID = GridSpec(x_min=-2.0, x_max=2.0, nx=21, phi_min=0.0, phi_max=TAU,
                       nphi=25, c=1.51, a=1.0)
PINNED_SLICE = SliceSpec(c=1.51, a=1.0, x_min=-2.0, x_max=2.0, n=41)
SMALL_SLICE = SliceSpec(c=2.0, a=1.0, x_min=0.5, x_max=1.5, n=3)


class TestGridSpec:
    def test_rejects_empty_axes(self):
        with pytest.raises(ValueError):
            GridSpec(x_min=0.5, x_max=1.0, nx=0, phi_min=0, phi_max=1, nphi=4,
                     c=2.0, a=1.0)

    def test_rejects_reversed_range(self):
        with pytest.raises(ValueError):
            GridSpec(x_min=2.0, x_max=1.0, nx=4, phi_min=0, phi_max=1, nphi=4,
                     c=2.0, a=1.0)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            GridSpec(x_min=0.5, x_max=1.0, nx=2, phi_min=0, phi_max=1, nphi=2,
                     c=-1.0, a=1.0)

    @pytest.mark.parametrize("field", ["x_min", "x_max", "phi_min", "phi_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_bounds(self, field, value):
        bounds = dict(x_min=0.5, x_max=1.0, phi_min=0.0, phi_max=1.0)
        bounds[field] = value
        with pytest.raises(ValueError, match="finite"):
            GridSpec(nx=2, nphi=2, c=2.0, a=1.0, **bounds)

    @pytest.mark.parametrize("axis", ["x", "phi"])
    def test_rejects_span_beyond_float_range(self, axis):
        bounds = dict(x_min=0.5, x_max=1.0, phi_min=0.0, phi_max=1.0)
        bounds[f"{axis}_min"], bounds[f"{axis}_max"] = -1e308, 1e308
        with pytest.raises(ValueError, match="finite width"):
            GridSpec(nx=3, nphi=2, c=2.0, a=1.0, **bounds)


    @pytest.mark.parametrize("band", [math.nan, -1e-3])
    def test_rejects_bad_exclude_band(self, band):
        # the band around x = 0 is the classifier's rule, metric.CHART_BAND:
        # a spec takes no band of its own
        with pytest.raises(TypeError, match="exclude_band"):
            GridSpec(x_min=0.5, x_max=1.0, nx=2, phi_min=0.0, phi_max=1.0,
                     nphi=2, c=2.0, a=1.0, exclude_band=band)


class TestSliceSpec:
    @pytest.mark.parametrize("band", [math.nan, -1e-3])
    def test_rejects_bad_exclude_band(self, band):
        # as for a grid: the band is metric.CHART_BAND
        with pytest.raises(TypeError, match="exclude_band"):
            SliceSpec(c=2.0, a=1.0, x_min=0.5, x_max=1.0, n=3, exclude_band=band)

    def test_rejects_span_beyond_float_range(self):
        with pytest.raises(ValueError, match="finite width"):
            SliceSpec(c=2.0, a=1.0, x_min=-1e308, x_max=1e308, n=3)

    @pytest.mark.parametrize("field", ["x_min", "x_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_bounds(self, field, value):
        bounds = dict(x_min=0.5, x_max=1.0)
        bounds[field] = value
        with pytest.raises(ValueError, match="finite"):
            SliceSpec(c=2.0, a=1.0, n=3, **bounds)


class TestGridScan:
    def test_single_point_grid(self):
        spec = GridSpec(x_min=1.0, x_max=1.0, nx=1, phi_min=0.0, phi_max=0.0,
                        nphi=1, c=2.0, a=1.0)
        result, summary = grid_scan(spec)
        assert len(result) == 1
        assert summary.n_ok == 1
        assert summary.min_K == summary.max_K == result.K[0]
        # phi = 0 means (r, t) = (0, 1), the reference slice point at x = 1
        single = flag_curvature(spec.params, result.point(0))
        assert result.K[0] == pytest.approx(single.K, rel=1e-9)

    def test_row_major_order_and_count(self):
        spec = GridSpec(x_min=0.5, x_max=1.0, nx=3, phi_min=0.0, phi_max=1.0,
                        nphi=4, c=2.0, a=1.0)
        result, _ = grid_scan(spec)
        assert len(result) == 12
        xs = result.x.tolist()
        assert xs == sorted(xs)  # x varies slowest
        # within one x-row the fiber angle increases
        phis = [math.atan2(r, t) for r, t in zip(result.r[:4], result.t[:4])]
        assert phis == sorted(phis)

    def test_matches_single_point_evaluation(self):
        spec = GridSpec(x_min=-2.0, x_max=2.0, nx=5, phi_min=0.0, phi_max=TAU,
                        nphi=6, c=1.55, a=1.0)
        result, _ = grid_scan(spec)
        for i, status in enumerate(result.status):
            single = flag_curvature(spec.params, result.point(i))
            assert single.status == status
            assert single.reason == result.reason[i]
            if status == "ok":
                assert result.K[i] == pytest.approx(single.K, rel=1e-9, abs=1e-9)

    def test_singular_lane_reason_matches_point_query(self):
        params = MetricParams(1.0, 2.0)
        single = flag_curvature(params, PhasePoint(1.0, 0.0, 1.0, 0.0))
        K, code = _evaluate_points(
            params, np.array([1.0]), np.array([1.0]), np.array([0.0])
        )
        assert VERDICTS[code[0]] == (single.status, single.reason)
        assert single.status == "singular_v"
        assert math.isnan(K[0]) and single.K is None

    def test_underflowing_lane_leaves_the_others_alone(self):
        # At phi = 0 in the first row the jets' radicand rounds to 0 where
        # the classifier's is 2^-53 (test_curvature's RADICAND_ROUNDS_TO_ZERO),
        # so that lane's jets raise for the whole block; the lane ends as
        # nonfinite_result, as a point query does, and every other row
        # equals the grid without it
        lanes = dict(phi_min=0.0, phi_max=1.0, nphi=2, c=1.372436468490984,
                     a=0.8751882652257628)
        spec = GridSpec(x_min=0.9565341842614196, x_max=1.0, nx=3, **lanes)
        result, _ = grid_scan(spec)
        reference, _ = grid_scan(GridSpec(x_min=float(result.x[2]), x_max=1.0, nx=2, **lanes))
        assert result.reason[:2].tolist() == ["nonfinite_result", None]
        assert flag_curvature(spec.params, result.point(0)).reason == "nonfinite_result"
        assert np.array_equal(result.x[2:], reference.x)
        assert np.array_equal(result.K[2:].view(np.int64), reference.K.view(np.int64))
        assert result.status[2:].tolist() == reference.status.tolist() == ["ok"] * 4

    def test_rows_across_the_chart_band_match_point_queries(self):
        # x in [-3e-3, 3e-3] with one lane at x = 0: every point query gives
        # its row's verdict, the chart band's inside |x| < CHART_BAND
        spec = GridSpec(x_min=-3e-3, x_max=3e-3, nx=13, phi_min=0.0, phi_max=TAU,
                        nphi=8, c=1.55, a=1.0)
        result, _ = grid_scan(spec)
        assert 0.0 in result.x.tolist()
        banned = np.abs(result.x) < CHART_BAND
        assert (result.reason[banned] == "chart_singularity").all()
        assert (result.status[~banned] == "ok").any()
        for i in range(len(result)):
            single = flag_curvature(spec.params, result.point(i))
            assert (single.status, single.reason) == (result.status[i], result.reason[i])

    def test_excluded_band_rows_are_kept(self):
        spec = GridSpec(x_min=-2e-3, x_max=2e-3, nx=9, phi_min=0.0, phi_max=1.0,
                        nphi=2, c=2.0, a=1.0)
        result, summary = grid_scan(spec)
        assert len(result) == 18
        banned = np.abs(result.x) < CHART_BAND
        assert np.count_nonzero(banned) >= 6
        assert banned.any() and all(result.status[banned] == "domain_error")
        assert all(result.reason[banned] == "chart_singularity")
        assert summary.n_skipped == np.count_nonzero(banned)

    def test_entirely_invalid_grid_gives_empty_summary(self):
        spec = GridSpec(x_min=-1e-4, x_max=1e-4, nx=4, phi_min=0.0, phi_max=1.0,
                        nphi=3, c=2.0, a=1.0)
        result, summary = grid_scan(spec)
        assert summary.n_ok == 0
        assert summary.min_K is None and summary.max_K is None
        assert len(result) == 12

    def test_subcritical_energy_marks_all_points(self):
        spec = GridSpec(x_min=0.5, x_max=1.0, nx=2, phi_min=0.0, phi_max=1.0,
                        nphi=2, c=1.4, a=1.0)
        result, summary = grid_scan(spec)
        assert summary.n_ok == 0
        assert all(result.reason == "energy_below_critical")

    def test_summary_equals_brute_force(self):
        spec = GridSpec(x_min=0.5, x_max=3.0, nx=8, phi_min=0.0, phi_max=TAU,
                        nphi=8, c=1.55, a=1.0)
        result, summary = grid_scan(spec)
        ks = result.K[result.status == "ok"].tolist()
        assert summary.min_K == min(ks)
        assert summary.max_K == max(ks)
        assert summary.n_ok == len(ks)


def summarize_by_loop(result):
    """The row-by-row summary: strict comparisons keep the first of ties."""
    n_ok = 0
    min_K = max_K = argmin = argmax = None
    for i, status in enumerate(result.status):
        if status != "ok":
            continue
        n_ok += 1
        K = float(result.K[i])
        if min_K is None or K < min_K:
            min_K, argmin = K, result.point(i)
        if max_K is None or K > max_K:
            max_K, argmax = K, result.point(i)
    return ScanSummary(n_ok, len(result) - n_ok, min_K, max_K, argmin, argmax)


def columns(K, code):
    """A ScanResult with the given K and verdict code columns, x = 1, 2, ..."""
    n = len(K)
    x = np.arange(1.0, n + 1.0)
    return ScanResult(x, np.full(n, np.nan), np.zeros(n), x.copy(),
                      np.array(K, dtype=float), np.array(code, dtype=np.int8))


# non-ok codes of either status
DE, SV = CHART_SINGULARITY, DENOMINATOR_BELOW_TOLERANCE


class TestSummarize:
    def test_ties_and_skipped_rows_match_the_loop(self):
        nan = math.nan
        result = columns(
            [nan, 0.0, -2.0, 3.0, -0.0, -2.0, 3.0, nan, -2.0],
            [DE, OK, OK, OK, OK, OK, OK, SV, OK],
        )
        summary = summarize(result)
        assert summary == summarize_by_loop(result)
        assert (summary.n_ok, summary.n_skipped) == (7, 2)
        assert summary.argmin.x == 3.0 and summary.argmax.x == 4.0

    def test_signed_zero_tie_keeps_the_first(self):
        for K in ([0.0, -0.0], [-0.0, 0.0]):
            summary = summarize(columns(K, [OK, OK]))
            assert summary == summarize_by_loop(columns(K, [OK, OK]))
            assert math.copysign(1.0, summary.min_K) == math.copysign(1.0, K[0])
            assert summary.argmin.x == summary.argmax.x == 1.0

    def test_no_ok_rows(self):
        result = columns([math.nan] * 3, [DE] * 3)
        assert summarize(result) == ScanSummary(0, 3, None, None, None, None)

    def test_lattice_matches_the_loop(self):
        result, summary = grid_scan(PINNED_GRID)
        assert summary == summarize_by_loop(result)


class TestSliceScan:
    def test_rejects_short_slice(self):
        with pytest.raises(ValueError):
            SliceSpec(c=2.0, a=1.0, x_min=-1.0, x_max=1.0, n=1)

    def test_zero_rotation_slice_is_constant(self):
        result, _ = slice_scan(SliceSpec(c=2.0, a=0.0, x_min=-5.0, x_max=5.0, n=101))
        ks = result.K[result.status == "ok"].tolist()
        assert ks
        spread = (max(ks) - min(ks)) / max(abs(k) for k in ks)
        assert spread < 1e-6

    def test_low_energy_slice_has_negative_curvature(self):
        result, _ = slice_scan(SliceSpec(c=1.51, a=1.0, n=1024))
        ks = result.K[result.status == "ok"].tolist()
        assert min(ks) < 0.0

    def test_high_energy_slice_is_positive(self):
        result, _ = slice_scan(SliceSpec(c=10.0, a=1.0, n=1024))
        ks = result.K[result.status == "ok"].tolist()
        assert min(ks) > 0.0

    def test_band_points_are_skipped_rows(self):
        result, _ = slice_scan(SliceSpec(c=2.0, a=1.0, x_min=-2e-3, x_max=2e-3, n=9))
        n_banned = np.count_nonzero(result.status != "ok")
        assert n_banned == np.count_nonzero(np.abs(result.x) < CHART_BAND) >= 3
        assert set(result.reason[result.status != "ok"]) == {"chart_singularity"}
        assert len(result) == 9


class TestEmit:
    def test_csv_single_sample(self, tmp_path):
        spec = GridSpec(x_min=1.0, x_max=1.0, nx=1, phi_min=0.25, phi_max=0.25,
                        nphi=1, c=2.0, a=1.0)
        result, summary = grid_scan(spec)
        out = tmp_path / "one.csv"
        emit(result, summary, "csv", str(out), spec=spec)
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == "x,phi,r,t,K,status"
        fields = lines[1].split(",")
        assert float(fields[0]) == 1.0
        assert float(fields[1]) == 0.25
        assert fields[5] == "ok"

    def test_csv_slice_leaves_phi_empty(self, tmp_path):
        result, summary = slice_scan(SMALL_SLICE)
        out = tmp_path / "slice.csv"
        emit(result, summary, "csv", str(out), spec=SMALL_SLICE)
        rows = out.read_text().splitlines()[1:]
        assert all(row.split(",")[1] == "" for row in rows)

    def test_csv_serializes_17_significant_digits(self, tmp_path):
        result, summary = slice_scan(SMALL_SLICE)
        out = tmp_path / "digits.csv"
        emit(result, summary, "csv", str(out))
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[4]) == result.K[0]  # round-trips exactly

    def test_csv_grid_without_spec_keeps_phi(self, tmp_path):
        # phi comes from the result's columns, not from the spec
        spec = GridSpec(x_min=0.5, x_max=1.0, nx=2, phi_min=0.25, phi_max=0.5,
                        nphi=3, c=2.0, a=1.0)
        result, summary = grid_scan(spec)
        with_spec, without = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(result, summary, "csv", str(with_spec), spec=spec)
        emit(result, summary, "csv", str(without))
        assert with_spec.read_bytes() == without.read_bytes()

    def test_json_summary_only_omits_samples(self, tmp_path):
        spec = GridSpec(x_min=0.5, x_max=1.0, nx=2, phi_min=0.0, phi_max=1.0,
                        nphi=2, c=2.0, a=1.0)
        result, summary = grid_scan(spec)
        out = tmp_path / "doc.json"
        emit(result, summary, "json", str(out), spec=spec, include_samples=False)
        doc = json.loads(out.read_text())
        assert "samples" not in doc
        assert doc["spec"]["kind"] == "grid"
        assert doc["summary"]["n_ok"] == summary.n_ok

    def test_json_with_samples(self, tmp_path):
        result, summary = slice_scan(SMALL_SLICE)
        out = tmp_path / "doc.json"
        emit(result, summary, "json", str(out), spec=SMALL_SLICE)
        doc = json.loads(out.read_text())
        assert len(doc["samples"]) == 3
        assert doc["spec"]["kind"] == "slice"
        assert doc["samples"][0]["phi"] is None

    def test_json_is_json_dumps_of_the_document(self, tmp_path, monkeypatch):
        # infinities, signed zeros and NaN across blocks of two rows
        monkeypatch.setattr(scan_module, "_ROWS", 2)
        result = columns([1.5, math.inf, math.nan, -math.inf, -0.0],
                         [OK, OK, DE, OK, OK])
        summary = summarize(result)
        out = tmp_path / "doc.json"
        emit(result, summary, "json", str(out))
        floats = [[None if v != v else v for v in c.tolist()]
                  for c in (result.x, result.phi, result.r, result.t, result.K)]
        status = [f"{s}:{r}" if r else s for s, r in zip(result.status, result.reason)]
        samples = [dict(zip(("x", "phi", "r", "t", "K", "status"), row))
                   for row in zip(*floats, status)]
        doc = {"summary": dataclasses.asdict(summary), "samples": samples}
        assert out.read_text() == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_every_verdict_field(self, tmp_path, monkeypatch, fmt):
        # one row per verdict code, in code order, across blocks of three
        monkeypatch.setattr(scan_module, "_ROWS", 3)
        codes = range(len(VERDICTS))
        result = columns([1.0 if c == OK else math.nan for c in codes], codes)
        assert all(c.dtype != object for c in dataclasses.astuple(result))
        assert result.status.tolist() == [s for s, _ in VERDICTS]
        assert result.reason.tolist() == [r for _, r in VERDICTS]
        out = tmp_path / f"verdicts.{fmt}"
        emit(result, summarize(result), fmt, str(out))
        if fmt == "csv":
            fields = [line.split(",")[5] for line in out.read_text().splitlines()[1:]]
        else:
            fields = [row["status"] for row in json.loads(out.read_text())["samples"]]
        assert fields == ["ok"] + [f"{s}:{r}" for s, r in VERDICTS[1:]]

    def test_unknown_format_rejected(self, tmp_path):
        result, summary = slice_scan(SMALL_SLICE)
        with pytest.raises(ValueError):
            emit(result, summary, "xml", str(tmp_path / "x"))

    def test_unwritable_destination_raises(self, tmp_path):
        result, summary = slice_scan(SMALL_SLICE)
        bad = tmp_path / "missing_dir" / "out.csv"
        with pytest.raises(OSError, match="cannot write output to .*missing_dir"):
            emit(result, summary, "csv", str(bad))

    def test_stdout_destination(self, capsys):
        result, summary = slice_scan(SMALL_SLICE)
        emit(result, summary, "csv", None)
        captured = capsys.readouterr().out
        assert captured.startswith("x,phi,r,t,K,status")


class TestDeterminism:
    def test_identical_specs_produce_identical_bytes(self, tmp_path):
        spec = GridSpec(x_min=-2.0, x_max=2.0, nx=6, phi_min=0.0, phi_max=TAU,
                        nphi=7, c=1.55, a=1.0)
        paths = []
        for name in ("a.csv", "b.csv"):
            result, summary = grid_scan(spec)
            path = tmp_path / name
            emit(result, summary, "csv", str(path), spec=spec)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_chunked_evaluation_matches_unchunked(self, monkeypatch):
        # 525 lanes in one block against blocks of 256 (more than two), the
        # default, 4 and 1; x = 0 is a lattice row, so chart_singularity rows
        # fall inside a block, and the phi = pi/2 column gives singular_v
        # lanes.
        spec = GridSpec(x_min=-2.0, x_max=2.0, nx=21, phi_min=0.0, phi_max=TAU,
                        nphi=25, c=1.51, a=1.0)
        assert spec.nx * spec.nphi > 2 * 256
        chunks = (1, 4, 256, scan_module._CHUNK)
        monkeypatch.setattr(scan_module, "_CHUNK", 8192)
        reference, _ = grid_scan(spec)
        assert set(reference.status) == {"ok", "domain_error", "singular_v"}

        # block size 1 runs every lane as a batch of one
        for chunk in chunks:
            monkeypatch.setattr(scan_module, "_CHUNK", chunk)
            result, _ = grid_scan(spec)
            # bit-identical: same kernel, same order
            assert np.array_equal(result.K.view(np.int64), reference.K.view(np.int64))
            assert result.status.tolist() == reference.status.tolist()
            assert result.reason.tolist() == reference.reason.tolist()



class TestBytePins:
    """sha256 of emitted files, recorded before grid results became columns
    (when they were lists of per-point objects).  The JSON pins are of
    those files without the spec's ``"exclude_band": 0.001`` entry: the
    band is the classifier's rule, not a field of the spec."""

    def digest(self, tmp_path, result, summary, fmt, spec, include_samples=True):
        out = tmp_path / f"out.{fmt}"
        emit(result, summary, fmt, str(out), spec=spec, include_samples=include_samples)
        return hashlib.sha256(out.read_bytes()).hexdigest()

    GRID_PINS = [
        ("csv", True, "e05235ce7db6323bb366f786caf1e8a0abf9dbd6b4e678679a904d9b2a2ba22f"),
        ("json", True, "2c22fd0d5d351119d99b0720a6d07dd1fc8f0f974e4175fefb2654cecced63f3"),
        ("json", False, "5fc47edde54b0ddd150591787b10bd35ec9b0686025407f010805d7848636f8d"),
    ]
    SLICE_PINS = [
        ("csv", "014f04831181ff934c52db1cb4e4a0db3d145a404fca535c7506bb08c95d5bcf"),
        ("json", "d003acf0b942c1048e7bdbb7a9cbd00f7a36c25e77f96acff66d8e3abdd07f5b"),
    ]

    @pytest.mark.parametrize("fmt, include_samples, sha256", GRID_PINS)
    def test_grid(self, tmp_path, fmt, include_samples, sha256):
        result, summary = grid_scan(PINNED_GRID)
        assert set(result.status) == {"ok", "domain_error", "singular_v"}
        assert self.digest(tmp_path, result, summary, fmt, PINNED_GRID,
                           include_samples) == sha256

    @pytest.mark.parametrize("fmt, sha256", SLICE_PINS)
    def test_slice(self, tmp_path, fmt, sha256):
        result, summary = slice_scan(PINNED_SLICE)
        assert result.status[20] == "domain_error" and result.x[20] == 0.0
        assert self.digest(tmp_path, result, summary, fmt, PINNED_SLICE) == sha256

    # Blocks of 7 rows end inside lattice rows (25 columns) and inside
    # runs of one status; the bytes must not show where.
    @pytest.mark.parametrize("fmt, include_samples, sha256", GRID_PINS)
    def test_grid_in_small_blocks(self, tmp_path, monkeypatch, fmt, include_samples,
                                  sha256):
        monkeypatch.setattr(scan_module, "_ROWS", 7)
        self.test_grid(tmp_path, fmt, include_samples, sha256)

    @pytest.mark.parametrize("fmt, sha256", SLICE_PINS)
    def test_slice_in_small_blocks(self, tmp_path, monkeypatch, fmt, sha256):
        monkeypatch.setattr(scan_module, "_ROWS", 7)
        self.test_slice(tmp_path, fmt, sha256)


@pytest.fixture(scope="module")
def accept3():
    """The 256 x 256 acceptance-3 lattice's result and summary."""
    spec = GridSpec(x_min=-3.0, x_max=3.0, nx=256, phi_min=0.0, phi_max=TAU,
                    nphi=256, c=1.55, a=1.0)
    return (*grid_scan(spec), spec)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emission_memory_is_bounded(tmp_path, accept3, fmt):
    # 65,536 rows emitted a block at a time: the traced peak is a block's
    # text, not the file's (24 MB of CSV text, 109 MB for JSON in one piece)
    import tracemalloc

    result, summary, spec = accept3
    out = tmp_path / f"accept3.{fmt}"
    tracemalloc.start()
    try:
        emit(result, summary, fmt, str(out), spec=spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out.read_bytes().splitlines()) > len(result)
    assert peak < 4 << 20
