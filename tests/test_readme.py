"""The README's library example and CLI examples run as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from keplerflag.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def library_usage_code():
    """The Python block of the README's ``## Library usage`` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library usage\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_usage_runs_and_prints_what_it_says():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_usage_code(), "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 6
    point, closed_form = map(float, lines[0].split())
    assert abs(point - closed_form) < 1e-8 * abs(closed_form)
    assert lines[3] == "ok None"
    assert lines[4] == "True 2048"
    assert abs(float(lines[5]) - 1.0) < 1e-12  # the round sphere


def cli_example_lines():
    """The ``keplerflag ...`` lines of the README's ``## CLI examples`` block."""
    section = README.read_text(encoding="utf-8").split("\n## CLI examples\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("keplerflag ")]


def test_cli_examples_run_as_written(tmp_path, monkeypatch, capsys):
    lines = cli_example_lines()
    assert len(lines) == 6
    monkeypatch.chdir(tmp_path)  # the grid line writes grid.csv here
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
    capsys.readouterr()
    assert (tmp_path / "grid.csv").read_text(encoding="utf-8").count("\n") == 256 * 256 + 1
