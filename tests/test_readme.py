"""The README's library example runs as written."""

import contextlib
import io
import re
from pathlib import Path

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
