"""CLI tests: thin-adapter behavior, formats, exit codes."""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from keplerflag import convexity, scan
from keplerflag.cli import _build_parser, _join_values, main
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

    def test_subcritical_energy_json_document(self, capsys):
        code, out, _ = run(capsys, "point", "--c", "1.4", "--x", "1",
                           "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert (doc["status"], doc["reason"]) == ("domain_error", "energy_below_critical")
        assert doc["K"] is None

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

    @pytest.mark.parametrize("x", ["1e-8", "-0.0005", "0"])
    def test_point_in_the_chart_band_exits_one(self, capsys, x):
        # the polar chart has no correct digit of K at x = 1e-8 (the true
        # value is 0.6026...), so the point is rejected as a grid row is
        code, out, err = run(capsys, "point", "--c", "1.55", "--x", x, "--r", "0.6",
                             "--t", "0.8")
        assert code == 1
        assert err == "error: domain_error: chart_singularity\n"
        assert out == ""

    def test_nonfinite_point_exits_one(self, capsys):
        code, _, err = run(capsys, "point", "--c", "2", "--x", "nan")
        assert code == 1
        assert "nonfinite_input" in err

    @pytest.mark.parametrize("field, value", [("x", "nan"), ("r", "-inf"), ("t", "nan")])
    def test_json_writes_null_for_a_nonfinite_coordinate(self, capsys, field, value):
        # NaN and Infinity are not JSON; strict parsers reject them.
        code, out, _ = run(capsys, "point", "--c", "2", "--x", "1",
                           f"--{field}={value}", "--format", "json")

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        doc = json.loads(out, parse_constant=reject)
        assert doc["point"][field] is None
        assert [v is None for v in doc["point"].values()].count(True) == 1
        assert code == 1 and doc["reason"] == "nonfinite_input" and doc["K"] is None


class TestArgumentErrors:
    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["point", "--a", "1", "--c", "2", "--x", "1", "--frobnicate"])
        assert err.value.code == 2

    def test_point_has_no_y_option(self, capsys):
        # K does not read y, so point takes none
        with pytest.raises(SystemExit) as err:
            main(["point", "--c", "2", "--x", "1", "--y", "1"])
        assert err.value.code == 2

    def test_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_bad_range_syntax_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["slice", "--c", "2", "--x-range", "oops"])
        assert err.value.code == 2


class TestNegativeValues:
    """A value that starts with '-' reaches its option in any float notation,
    not as argparse's integers and decimals only."""

    @pytest.mark.parametrize("x", ["-1e-2", "-0.01", "-1E-2", "-.01"])
    def test_point_takes_a_negative_value_in_any_notation(self, capsys, x):
        code, out, err = run(capsys, "point", "--c", "2", "--x", x, "--r", "0.3", "--t", "0.7")
        assert (code, out, err) == (0, "2.5001613326533652\n", "")
        assert run(capsys, "point", "--c", "2", f"--x={x}", "--r", "0.3", "--t", "0.7")[1] == out

    def test_an_infinity_is_a_value(self, capsys):
        code, out, err = run(capsys, "point", "--c", "2", "--x", "-inf")
        assert (code, out, err) == (1, "", "error: domain_error: nonfinite_input\n")

    def test_every_option_takes_one(self, capsys):
        code, out, _ = run(capsys, "point", "--c", "2", "--x", "1", "--r", "-1e-1",
                           "--t", "-7e-1")
        assert code == 0
        pt = PhasePoint(1.0, 0.0, -0.1, -0.7)
        assert float(out) == flag_curvature(MetricParams(1.0, 2.0), pt).K
        code, out, _ = run(capsys, "verify-convexity", "--px", "-1e-3", "--py", "-2e-3",
                           "--c", "2", "--n", "4")
        assert code == 0 and json.loads(out)["verdict"] is True

    @pytest.mark.parametrize("argv", [
        ["point", "--c", "2", "--x", "-1", "--r", "-0.5"],
        ["point", "--c=2", "--x=-1e-2", "--format", "json"],
        ["slice", "--c", "2", "--x-range=-2:2", "--out", "-"],
        ["grid", "--c", "2", "--x-range=-2:-1", "--phi-range", "0:1", "--no-samples"],
        ["closed-form", "--c", "2", "--x", "-3"],
    ])
    def test_forms_argparse_reads_parse_as_before(self, argv):
        parser = _build_parser()
        assert parser.parse_args(_join_values(argv)) == parser.parse_args(argv)


class TestParserCache:
    def test_one_parser_per_process(self):
        assert _build_parser() is _build_parser()

    def test_calls_after_an_error_print_what_a_fresh_parser_prints(self, capsys):
        calls = [["point", "--c", "2", "--x", "1", "--frobnicate"],
                 ["closed-form", "--c", "1.55", "--x", "1.25"],
                 ["point", "--c", "1.55", "--x", "1.25", "--r", "0.6", "--t", "0.8"]]

        def outputs(fresh):
            seen = []
            for argv in calls:
                if fresh:
                    _build_parser.cache_clear()
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                seen.append((code, *capsys.readouterr()))
            return seen

        cached = outputs(fresh=False)
        assert [code for code, *_ in cached] == [2, 0, 0]
        assert cached[2][1] == "4.8293442152731334\n"
        assert cached == outputs(fresh=True)


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

    def test_summary_on_stderr(self, capsys):
        code, out, err = run(capsys, "slice", "--c", "2", "--x-range", "-1:1", "--n", "5")
        assert code == 0
        assert len(out.splitlines()) == 6
        assert err.startswith("min K = ") and err.endswith("(4 ok, 1 skipped)\n")

    def test_no_admissible_point_exits_one(self, capsys):
        # below the critical energy every row is energy_below_critical
        code, out, err = run(capsys, "slice", "--c", "0.5", "--a", "1", "--n", "4")
        assert code == 1
        rows = out.splitlines()[1:]
        assert len(rows) == 4
        assert all(row.endswith(",domain_error:energy_below_critical") for row in rows)
        assert err == "warning: no admissible slice points\n"

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_matches_file(self, capsys, tmp_path, fmt):
        # 21 x 25 rows over x = 0 give ok, domain_error and singular_v rows
        out_path = tmp_path / f"grid.{fmt}"
        argv = ["grid", "--c", "1.51", "--x-range", "-2:2", "--nx", "21",
                "--nphi", "25", "--format", fmt, "--out"]
        code, _, _ = run(capsys, *argv, str(out_path))
        assert code == 0
        code, out, _ = run(capsys, *argv, "-")
        assert code == 0
        assert out.encode("utf-8") == out_path.read_bytes()

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

    @pytest.mark.parametrize("command", ["grid", "slice"])
    def test_range_wider_than_float_range_exits_one(self, capsys, command):
        # both bounds are finite, but the width overflows: linspace cannot
        # step across it without nan/inf lattice points
        sizes = ["--nx", "3", "--nphi", "2"] if command == "grid" else ["--n", "3"]
        code, out, err = run(capsys, command, "--c", "2",
                             "--x-range", "-1e308:1e308", *sizes)
        assert code == 1
        assert "finite width" in err
        assert out == ""


    @pytest.mark.parametrize("command", ["grid", "slice"])
    def test_exclude_band_is_not_an_option(self, capsys, command):
        # the band around x = 0 is a rule of the classifier, not a knob
        sizes = ["--nx", "3", "--nphi", "2"] if command == "grid" else ["--n", "3"]
        with pytest.raises(SystemExit) as exc:
            main([command, "--c", "2", "--x-range", "-1:1", "--exclude-band", "0", *sizes])
        assert exc.value.code == 2
        assert "--exclude-band" in capsys.readouterr().err

    def test_lattice_too_large_to_allocate_exits_one(self, capsys, monkeypatch):
        # np.linspace raises MemoryError for a lattice such as --nx 1e11;
        # raise it here without allocating
        def axis(lo, hi, n):
            raise MemoryError(f"Unable to allocate an axis of {n} points")

        monkeypatch.setattr(scan, "_axis", axis)
        code, out, err = run(capsys, "grid", "--c", "1.55", "--nx", "100000000000",
                             "--nphi", "100000000000")
        assert code == 1
        assert err == "error: Unable to allocate an axis of 100000000000 points\n"
        assert out == ""


class TestVerifiers:
    def test_verify_convexity_json(self, capsys):
        # C = (|p|^2/2 + c)/2 = 1
        code, out, _ = run(capsys, "verify-convexity", "--px", "0", "--py", "0",
                           "--c", "2", "--a", "1", "--n", "90")
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
        with pytest.raises(SystemExit) as exc:
            main(["verify-convexity", "--px", "1"])
        assert exc.value.code == 2
        assert "the following arguments are required: --c" in capsys.readouterr().err

    def test_verify_convexity_has_no_half_offset_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-convexity", "--C", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, cause", [
        (["--px", "1e200", "--c", "2"], "C = (|p|^2/2 + c)/2 is beyond the float range"),
        (["--c", "2e200"], "|q|^3 underflows"),
        (["--c", "inf"], "half-offset C must be positive and finite, got inf"),
        (["--px=0", "--py=0", "--c=2e-80"], "|q|^4 overflows"),
    ])
    def test_verify_convexity_out_of_float_range_exits_one(self, capsys, argv, cause):
        code, out, err = run(capsys, "verify-convexity", *argv, "--n", "8")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and cause in err
        assert "nonzero" not in err

    def test_verify_convexity_reports_disagreeing_routes(self, capsys, monkeypatch):
        # Shift the reduced form's <p_perp, q> so it leaves the matrix route.
        perp_inner = convexity.perp_inner
        monkeypatch.setattr(convexity, "perp_inner", lambda p, q: perp_inner(p, q) + 1.0)
        code, out, err = run(capsys, "verify-convexity", "--px", "0", "--py", "0",
                             "--c", "2", "--n", "8")
        assert code == 1
        assert out == ""
        assert err.startswith("error: Hessian form disagreement at ")

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

    def test_curve_samples_the_slice_x_column(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--c", "2",
                           "--x-range", "-7.3:2.9", "--n", "513")
        assert code == 0
        xs = [line.split(",")[0] for line in out.splitlines()[1:]]
        code, out, _ = run(capsys, "slice", "--c", "2", "--x-range", "-7.3:2.9",
                           "--n", "513")
        assert code == 0
        assert xs == [line.split(",")[0] for line in out.splitlines()[1:]]
        assert float(xs[-1]) == 2.9

    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    def test_curve_needs_two_points(self, capsys, n):
        code, out, err = run(capsys, "closed-form", "--c", "2",
                             "--x-range", "-3:3", "--n", n)
        assert code == 1
        assert out == ""
        assert f"n >= 2, got {n}" in err

    def test_curve_range_needs_a_finite_width(self, capsys):
        code, out, err = run(capsys, "closed-form", "--c", "2",
                             "--x-range", "-1e308:1e308", "--n", "3")
        assert code == 1
        assert out == ""
        assert "finite width" in err

    def test_decreasing_range_exits_one(self, capsys):
        # the rule of slice over the same range
        code, out, err = run(capsys, "closed-form", "--c", "2",
                             "--x-range", "1:0", "--n", "3")
        assert code == 1
        assert out == ""
        assert "x range 1.0:0.0 must be nondecreasing" in err
        code, out, err_slice = run(capsys, "slice", "--c", "2", "--x-range", "1:0", "--n", "3")
        assert code == 1 and out == "" and err_slice == err

    def test_requires_exactly_one_mode(self, capsys):
        for mode in [], ["--x", "1", "--x-range", "0:1"]:
            with pytest.raises(SystemExit) as err:
                main(["closed-form", "--c", "2", *mode])
            assert err.value.code == 2

    def test_radicand_violation_exits_one(self, capsys):
        code, _, err = run(capsys, "closed-form", "--c", "1.2", "--x", "1")
        assert code == 1
        assert "radicand" in err

    def test_nonpositive_c_exits_one_or_gives_domain_error_rows(self, capsys):
        code, out, err = run(capsys, "closed-form", "--c", "-1", "--x", "1e-10")
        assert code == 1
        assert out == ""
        assert "needs c > 0" in err
        code, out, _ = run(capsys, "closed-form", "--c", "0", "--x-range", "0:1",
                           "--n", "3")
        assert code == 0
        assert [line.split(",", 1)[1] for line in out.splitlines()[1:]] == [",domain_error"] * 3

    @pytest.mark.parametrize("x", ["nan", "inf"])
    def test_nonfinite_or_overflowing_x_exits_one(self, capsys, x):
        code, out, err = run(capsys, "closed-form", "--c", "2", "--x", x)
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_an_x_whose_radicand_overflows_has_its_value(self, capsys):
        # x**4 leaves the float range, and the oracle's integers do not
        code, out, err = run(capsys, "closed-form", "--c", "2", "--x", "1e200")
        assert (code, err) == (0, "")
        assert float(out.split()[-1]) == flag_curvature_closed_form(2.0, 1e200, dps=200) == 4.0

    @pytest.mark.parametrize("span", ["nan:1", "-inf:1", "0:inf"])
    def test_nonfinite_range_exits_one(self, capsys, span):
        # the rule of slice over the same range
        code, out, err = run(capsys, "closed-form", "--c", "2", "--x-range", span, "--n", "3")
        assert code == 1
        assert out == ""
        lo, hi = map(float, span.split(":"))
        assert err == f"error: x range {lo}:{hi} must have finite bounds\n"
        code, out, err_slice = run(capsys, "slice", "--c", "2", "--x-range", span, "--n", "3")
        assert code == 1 and out == "" and err_slice == err


# ----------------------------------------------------------------------
# No input gives a traceback: every run ends in an exit code.

FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300,
                     1.7976931348623157e308, -1.7976931348623157e308,
                     math.nan, math.inf, -math.inf]),
    st.floats(-10.0, 10.0),
    st.floats(0.5, 5.0),
)


@st.composite
def cli_argv(draw):
    """Arguments of one command: each number from ``FLOATS`` or, for an
    optional flag, left out, and each size at most 5.  Each value is
    written as ``--name=value`` or as ``--name`` then ``value``, so a
    negative value in any notation meets the CLI's join rule."""
    def option(name, value):
        return [f"--{name}={value}"] if draw(st.booleans()) else [f"--{name}", value]

    def number(name, optional=True):
        value = draw(st.one_of(st.none(), FLOATS) if optional else FLOATS)
        return [] if value is None else option(name, repr(value))

    def span(name):
        pairs = st.tuples(FLOATS, FLOATS)
        ends = draw(st.one_of(st.none(), pairs, pairs.map(sorted)))
        return [] if ends is None else option(name, f"{ends[0]!r}:{ends[1]!r}")

    def size(name):
        return option(name, str(draw(st.one_of(st.integers(1, 5), st.integers(-1, 5)))))

    def choice(name, values):
        return option(name, draw(st.sampled_from(values)))

    command = draw(st.sampled_from(
        ["point", "slice", "grid", "closed-form", "verify-convexity"]))
    if command == "point":
        flags = [number(name) for name in "art"]
        flags += [number("c", False), number("x", False), choice("format", ["plain", "json"])]
    elif command == "closed-form":
        mode = [number("x", False)] if draw(st.booleans()) else [span("x-range"), size("n")]
        flags = [number("c", False), *mode]
    elif command == "verify-convexity":
        flags = [number("px"), number("py"), number("a"), number("c", False), size("n")]
    else:
        sizes = [size("n")] if command == "slice" else [span("phi-range"), size("nx"),
                                                        size("nphi")]
        flags = [number("a"), number("c", False), span("x-range"), *sizes,
                 choice("format", ["csv", "json"])]
    return [command, *(arg for flag in flags for arg in flag)]


def run_quietly(argv):
    """``(exit code, stdout, stderr)`` of ``main(argv)``, with a
    RuntimeWarning raised as an error; argparse's exit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def has_ok_row(out):
    if out.startswith("{"):
        return json.loads(out)["summary"]["n_ok"] > 0
    return any(row.endswith(",ok") for row in out.splitlines()[1:])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(argv=cli_argv())
@example(argv=["verify-convexity", "--px=0", "--py=0", "--c=2e-80", "--n=4"])
@example(argv=["slice", "--c=0.5", "--a=1", "--n=4"])
@example(argv=["grid", "--c=2", "--x-range=0:1.7976931348623157e+308", "--nx=4", "--nphi=1"])
def test_every_input_ends_in_an_exit_code(argv):
    code, out, err = run_quietly(argv)
    assert code in (0, 1, 2)
    if code == 1 and not out:
        assert err.startswith("error: ")
    if argv[0] in ("slice", "grid") and out:
        # a scan exits 0 exactly when some row is ok
        assert (code == 0) == has_ok_row(out)
