"""The benchmark's tracer finds every layer boundary it wraps.

``perfbench/tracer.py`` records a name the program no longer defines as an
absent span instead of failing, so removing or renaming a wrapped function
would silently drop its timings.  This test reads ``perfbench/`` only.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import keplerflag

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_span_but_the_removed_collect(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    tracing, program = _load("tracer"), _load("program")
    mods = {name: importlib.import_module(f"keplerflag.{name}") for name in program.MODULES}
    original = keplerflag.flag_curvature
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, keplerflag, mods)
        # scan._collect went with the per-point objects; every other name is wrapped
        assert tracer.absent == ["scan.collect"]
        assert keplerflag.flag_curvature is not original
    finally:
        tracer.restore()
    assert keplerflag.flag_curvature is original
    assert mods["curvature"].flag_curvature is original
