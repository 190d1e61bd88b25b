"""CLI tests: thin-adapter behavior, formats, exit codes."""

import json

import pytest

from keplerflag.cli import main
from keplerflag.curvature import flag_curvature, flag_curvature_closed_form
from keplerflag.metric import MetricParams, PhasePoint


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPoint:
    def test_matches_closed_form_oracle(self, capsys):
        code, out, _ = run(capsys, "point", "--a", "1", "--c", "2",
                           "--x", "1", "--r", "0", "--t", "1")
        assert code == 0
        assert float(out) == pytest.approx(
            flag_curvature_closed_form(2.0, 1.0), rel=1e-8
        )

    def test_identical_to_library_api(self, capsys):
        code, out, _ = run(capsys, "point", "--a", "1", "--c", "1.55",
                           "--x", "0.75", "--r", "0", "--t", "1")
        assert code == 0
        sample = flag_curvature(MetricParams(1.0, 1.55),
                                PhasePoint(0.75, 0.0, 0.0, 1.0))
        assert float(out) == sample.K

    def test_subcritical_energy_exits_one(self, capsys):
        code, _, err = run(capsys, "point", "--a", "1", "--c", "1.4",
                           "--x", "1", "--r", "0", "--t", "1")
        assert code == 1
        assert "critical" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "point", "--a", "1", "--c", "2", "--x", "1",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "ok"
        assert doc["K"] == pytest.approx(152.0 / 27.0, rel=1e-8)

    def test_singular_point_exits_one(self, capsys):
        code, _, err = run(capsys, "point", "--a", "1", "--c", "2",
                           "--x", "1", "--r", "1", "--t", "0")
        assert code == 1
        assert "singular" in err

    def test_overflowing_point_exits_one(self, capsys):
        code, _, err = run(capsys, "point", "--c", "2", "--x", "1e150")
        assert code == 1
        assert "nonfinite_result" in err

    def test_nonfinite_point_exits_one(self, capsys):
        code, _, err = run(capsys, "point", "--c", "2", "--x", "nan")
        assert code == 1
        assert "nonfinite_input" in err


class TestArgumentErrors:
    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["point", "--a", "1", "--c", "2", "--x", "1", "--frobnicate"])
        assert err.value.code == 2

    def test_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_bad_range_syntax_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["slice", "--c", "2", "--x-range", "oops"])
        assert err.value.code == 2


class TestSlice:
    def test_csv_has_negative_rows_at_low_energy(self, capsys):
        code, out, _ = run(capsys, "slice", "--a", "1", "--c", "1.51",
                           "--x-range", "-10:10", "--n", "512")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,phi,r,t,K,status"
        ks = [float(row.split(",")[4]) for row in lines[1:]
              if row.split(",")[5] == "ok"]
        assert len(ks) > 400
        assert min(ks) < 0.0

    def test_negative_range_value_accepted(self, capsys):
        # '--x-range -10:10' with a space must parse (the value begins
        # with '-')
        code, out, _ = run(capsys, "slice", "--a", "1", "--c", "2",
                           "--x-range", "-2:2", "--n", "16")
        assert code == 0
        assert len(out.splitlines()) == 17

    def test_json_output_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "slice.json"
        code, _, _ = run(capsys, "slice", "--a", "1", "--c", "2",
                         "--x-range", "0.5:1.5", "--n", "8",
                         "--format", "json", "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["spec"]["kind"] == "slice"
        assert len(doc["samples"]) == 8

    def test_no_samples_flag(self, capsys, tmp_path):
        out_path = tmp_path / "slice.json"
        code, _, _ = run(capsys, "slice", "--a", "1", "--c", "2",
                         "--x-range", "0.5:1.5", "--n", "8", "--format", "json",
                         "--no-samples", "--out", str(out_path))
        assert code == 0
        assert "samples" not in json.loads(out_path.read_text())


class TestGrid:
    def test_small_grid_summary_on_stderr(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _, err = run(capsys, "grid", "--a", "1", "--c", "1.55",
                           "--x-range", "0.5:2", "--phi-range", "0:6.28",
                           "--nx", "8", "--nphi", "8", "--out", str(out_path))
        assert code == 0
        assert "min K" in err and "max K" in err
        rows = out_path.read_text().splitlines()
        assert len(rows) == 65

    def test_invalid_grid_exits_one(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _, err = run(capsys, "grid", "--a", "1", "--c", "1.4",
                           "--x-range", "0.5:2", "--nx", "4", "--nphi", "4",
                           "--out", str(out_path))
        assert code == 1

    @pytest.mark.parametrize("command", ["grid", "slice"])
    def test_nonfinite_range_exits_one(self, capsys, command):
        code, _, err = run(capsys, command, "--c", "2", "--x-range", "nan:2")
        assert code == 1
        assert "finite" in err


class TestVerifiers:
    def test_verify_convexity_json(self, capsys):
        code, out, _ = run(capsys, "verify-convexity", "--px", "0", "--py", "0",
                           "--C", "1", "--a", "1", "--n", "90")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] is True
        assert doc["n"] == 90
        assert doc["min_form"] > 0

    def test_verify_convexity_derives_offset_from_energy(self, capsys):
        code, out, _ = run(capsys, "verify-convexity", "--px", "1", "--py", "0",
                           "--c", "1.51", "--a", "1", "--n", "64")
        assert code == 0
        assert json.loads(out)["verdict"] is True

    def test_verify_convexity_requires_offset(self, capsys):
        code, _, err = run(capsys, "verify-convexity", "--px", "1")
        assert code == 2

    def test_verify_identities_passes(self, capsys):
        code, out, _ = run(capsys, "verify-identities")
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out


class TestClosedForm:
    def test_single_value(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--c", "2", "--x", "1")
        assert code == 0
        assert float(out) == pytest.approx(152.0 / 27.0, rel=1e-12)

    def test_curve_csv(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--c", "1.51",
                           "--x-range", "-3:3", "--n", "32")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,K,status"
        assert len(lines) == 33

    def test_requires_exactly_one_mode(self, capsys):
        code, _, err = run(capsys, "closed-form", "--c", "2")
        assert code == 2
        code, _, err = run(capsys, "closed-form", "--c", "2", "--x", "1",
                           "--x-range", "0:1")
        assert code == 2

    def test_radicand_violation_exits_one(self, capsys):
        code, _, err = run(capsys, "closed-form", "--c", "1.2", "--x", "1")
        assert code == 1
        assert "radicand" in err
