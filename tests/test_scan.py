"""Tests for grid/slice scanning and emission."""

import json
import math

import numpy as np
import pytest

from keplerflag.curvature import flag_curvature
from keplerflag.metric import MetricParams, PhasePoint
from keplerflag.scan import (
    GridSpec,
    SliceSpec,
    _evaluate_points,
    emit,
    grid_scan,
    slice_scan,
    summarize,
)

TAU = 2.0 * math.pi


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


class TestSliceSpec:
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
        samples, summary = grid_scan(spec)
        assert len(samples) == 1
        assert summary.n_ok == 1
        assert summary.min_K == summary.max_K == samples[0].K
        # phi = 0 means (r, t) = (0, 1), the reference slice point at x = 1
        single = flag_curvature(spec.params, samples[0].point)
        assert samples[0].K == pytest.approx(single.K, rel=1e-9)

    def test_row_major_order_and_count(self):
        spec = GridSpec(x_min=0.5, x_max=1.0, nx=3, phi_min=0.0, phi_max=1.0,
                        nphi=4, c=2.0, a=1.0)
        samples, _ = grid_scan(spec)
        assert len(samples) == 12
        xs = [s.point.x for s in samples]
        assert xs == sorted(xs)  # x varies slowest
        # within one x-row the fiber angle increases
        row = samples[:4]
        phis = [math.atan2(s.point.r, s.point.t) for s in row]
        assert phis == sorted(phis)

    def test_matches_single_point_evaluation(self):
        spec = GridSpec(x_min=-2.0, x_max=2.0, nx=5, phi_min=0.0, phi_max=TAU,
                        nphi=6, c=1.55, a=1.0)
        samples, _ = grid_scan(spec)
        for s in samples:
            single = flag_curvature(spec.params, s.point)
            assert single.status == s.status
            if s.status == "ok":
                assert s.K == pytest.approx(single.K, rel=1e-9, abs=1e-9)

    def test_singular_lane_reason_matches_point_query(self):
        params = MetricParams(1.0, 2.0)
        single = flag_curvature(params, PhasePoint(1.0, 0.0, 1.0, 0.0))
        K, status, reason = _evaluate_points(
            params, np.array([1.0]), np.array([1.0]), np.array([0.0]), 1e-3
        )
        assert f"{status[0]}:{reason[0]}" == f"{single.status}:{single.reason}"
        assert single.status == "singular_v"
        assert math.isnan(K[0]) and single.K is None

    def test_excluded_band_rows_are_kept(self):
        spec = GridSpec(x_min=-1.0, x_max=1.0, nx=5, phi_min=0.0, phi_max=1.0,
                        nphi=2, c=2.0, a=1.0, exclude_band=0.1)
        samples, summary = grid_scan(spec)
        assert len(samples) == 10
        banned = [s for s in samples if abs(s.point.x) < 0.1]
        assert banned and all(s.status == "domain_error" for s in banned)
        assert all(s.reason == "chart_singularity" for s in banned)
        assert summary.n_skipped == len(banned)

    def test_entirely_invalid_grid_gives_empty_summary(self):
        spec = GridSpec(x_min=-1e-4, x_max=1e-4, nx=4, phi_min=0.0, phi_max=1.0,
                        nphi=3, c=2.0, a=1.0)
        samples, summary = grid_scan(spec)
        assert summary.n_ok == 0
        assert summary.min_K is None and summary.max_K is None
        assert len(samples) == 12

    def test_subcritical_energy_marks_all_points(self):
        spec = GridSpec(x_min=0.5, x_max=1.0, nx=2, phi_min=0.0, phi_max=1.0,
                        nphi=2, c=1.4, a=1.0)
        samples, summary = grid_scan(spec)
        assert summary.n_ok == 0
        assert all(s.reason == "energy_below_critical" for s in samples)

    def test_summary_equals_brute_force(self):
        spec = GridSpec(x_min=0.5, x_max=3.0, nx=8, phi_min=0.0, phi_max=TAU,
                        nphi=8, c=1.55, a=1.0)
        samples, summary = grid_scan(spec)
        ks = [s.K for s in samples if s.status == "ok"]
        assert summary.min_K == min(ks)
        assert summary.max_K == max(ks)
        assert summary.n_ok == len(ks)


class TestSliceScan:
    def test_rejects_short_slice(self):
        with pytest.raises(ValueError):
            slice_scan(2.0, 1.0, -1.0, 1.0, 1)

    def test_zero_rotation_slice_is_constant(self):
        samples = slice_scan(2.0, 0.0, -5.0, 5.0, 101)
        ks = [s.K for s in samples if s.status == "ok"]
        assert ks
        spread = (max(ks) - min(ks)) / max(abs(k) for k in ks)
        assert spread < 1e-6

    def test_low_energy_slice_has_negative_curvature(self):
        samples = slice_scan(1.51, 1.0, -10.0, 10.0, 1024)
        ks = [s.K for s in samples if s.status == "ok"]
        assert min(ks) < 0.0

    def test_high_energy_slice_is_positive(self):
        samples = slice_scan(10.0, 1.0, -10.0, 10.0, 1024)
        ks = [s.K for s in samples if s.status == "ok"]
        assert min(ks) > 0.0

    def test_band_points_are_skipped_rows(self):
        samples = slice_scan(2.0, 1.0, -1.0, 1.0, 9, exclude_band=0.3)
        n_banned = sum(1 for s in samples if s.status != "ok")
        assert n_banned == sum(1 for s in samples if abs(s.point.x) < 0.3)
        assert len(samples) == 9


class TestEmit:
    def test_csv_single_sample(self, tmp_path):
        spec = GridSpec(x_min=1.0, x_max=1.0, nx=1, phi_min=0.25, phi_max=0.25,
                        nphi=1, c=2.0, a=1.0)
        samples, summary = grid_scan(spec)
        out = tmp_path / "one.csv"
        emit(samples, summary, "csv", str(out), spec=spec)
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == "x,phi,r,t,K,status"
        fields = lines[1].split(",")
        assert float(fields[0]) == 1.0
        assert float(fields[1]) == 0.25
        assert fields[5] == "ok"

    def test_csv_slice_leaves_phi_empty(self, tmp_path):
        samples = slice_scan(2.0, 1.0, 0.5, 1.5, 3)
        spec = SliceSpec(c=2.0, a=1.0, x_min=0.5, x_max=1.5, n=3)
        out = tmp_path / "slice.csv"
        emit(samples, summarize(samples), "csv", str(out), spec=spec)
        rows = out.read_text().splitlines()[1:]
        assert all(row.split(",")[1] == "" for row in rows)

    def test_csv_serializes_17_significant_digits(self, tmp_path):
        samples = slice_scan(2.0, 1.0, 0.5, 1.5, 3)
        out = tmp_path / "digits.csv"
        emit(samples, summarize(samples), "csv", str(out))
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[4]) == samples[0].K  # round-trips exactly

    def test_json_summary_only_omits_samples(self, tmp_path):
        spec = GridSpec(x_min=0.5, x_max=1.0, nx=2, phi_min=0.0, phi_max=1.0,
                        nphi=2, c=2.0, a=1.0)
        samples, summary = grid_scan(spec)
        out = tmp_path / "doc.json"
        emit(samples, summary, "json", str(out), spec=spec, include_samples=False)
        doc = json.loads(out.read_text())
        assert "samples" not in doc
        assert doc["spec"]["kind"] == "grid"
        assert doc["summary"]["n_ok"] == summary.n_ok

    def test_json_with_samples(self, tmp_path):
        samples = slice_scan(2.0, 1.0, 0.5, 1.5, 3)
        spec = SliceSpec(c=2.0, a=1.0, x_min=0.5, x_max=1.5, n=3)
        out = tmp_path / "doc.json"
        emit(samples, summarize(samples), "json", str(out), spec=spec)
        doc = json.loads(out.read_text())
        assert len(doc["samples"]) == 3
        assert doc["spec"]["kind"] == "slice"
        assert doc["samples"][0]["phi"] is None

    def test_unknown_format_rejected(self, tmp_path):
        samples = slice_scan(2.0, 1.0, 0.5, 1.5, 3)
        with pytest.raises(ValueError):
            emit(samples, summarize(samples), "xml", str(tmp_path / "x"))

    def test_unwritable_destination_raises(self, tmp_path):
        samples = slice_scan(2.0, 1.0, 0.5, 1.5, 3)
        bad = tmp_path / "missing_dir" / "out.csv"
        with pytest.raises(OSError):
            emit(samples, summarize(samples), "csv", str(bad))

    def test_stdout_destination(self, capsys):
        samples = slice_scan(2.0, 1.0, 0.5, 1.5, 3)
        emit(samples, summarize(samples), "csv", None)
        captured = capsys.readouterr().out
        assert captured.startswith("x,phi,r,t,K,status")


class TestDeterminism:
    def test_identical_specs_produce_identical_bytes(self, tmp_path):
        spec = GridSpec(x_min=-2.0, x_max=2.0, nx=6, phi_min=0.0, phi_max=TAU,
                        nphi=7, c=1.55, a=1.0)
        paths = []
        for name in ("a.csv", "b.csv"):
            samples, summary = grid_scan(spec)
            path = tmp_path / name
            emit(samples, summary, "csv", str(path), spec=spec)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_chunked_evaluation_matches_unchunked(self, monkeypatch):
        import keplerflag.scan as scan_module

        # 525 lanes span more than two default blocks; x = 0 is a lattice
        # row, so chart_singularity rows fall inside a block, and the
        # phi = pi/2 column gives singular_v lanes.
        spec = GridSpec(x_min=-2.0, x_max=2.0, nx=21, phi_min=0.0, phi_max=TAU,
                        nphi=25, c=1.51, a=1.0)
        assert spec.nx * spec.nphi > 2 * scan_module._CHUNK
        reference, _ = grid_scan(spec)
        statuses = {s.status for s in reference}
        assert statuses == {"ok", "domain_error", "singular_v"}

        def bits(samples):
            K = np.array([math.nan if s.K is None else s.K for s in samples])
            return K.view(np.int64)

        # block size 1 runs every lane as a batch of one
        for chunk in (1, 4, 8192):
            monkeypatch.setattr(scan_module, "_CHUNK", chunk)
            samples, _ = grid_scan(spec)
            # bit-identical: same kernel, same order
            assert np.array_equal(bits(samples), bits(reference))
            assert [s.status for s in samples] == [s.status for s in reference]
            assert [s.reason for s in samples] == [s.reason for s in reference]
