"""What ``import keplerflag`` loads: the point path, and the rest on first use."""

import os
import subprocess
import sys
from pathlib import Path

import keplerflag


def run_fresh(code):
    """Standard output of ``code`` run by a fresh interpreter that imports
    this checkout's package."""
    src = str(Path(keplerflag.__file__).resolve().parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path}, check=True)
    return proc.stdout


def test_a_point_query_loads_neither_scan_nor_convexity():
    out = run_fresh(
        "import sys, keplerflag as kf\n"
        "s = kf.flag_curvature(kf.MetricParams(1.0, 1.55), kf.PhasePoint(1.25, 0.0, 0.6, 0.8))\n"
        "print(s.K, [m in sys.modules for m in ('keplerflag.scan', 'keplerflag.convexity', 'json')])\n"
    )
    assert out == "4.829344215273133 [False, False, False]\n"


def test_lazy_exports_and_modules_resolve_on_first_use():
    out = run_fresh(
        "import sys, keplerflag as kf\n"
        "from keplerflag import GridSpec\n"
        "print(GridSpec is sys.modules['keplerflag.scan'].GridSpec, 'GridSpec' in vars(kf))\n"
        "print(kf.convexity is sys.modules['keplerflag.convexity'])\n"
        "print(kf.scan.emit is kf.emit, kf.verify_convexity is kf.convexity.verify_convexity)\n"
        "namespace = {}\n"
        "exec('from keplerflag import *', namespace)\n"
        "print(all(namespace[name] is getattr(kf, name) for name in kf.__all__))\n"
    )
    assert out == "True False\nTrue\nTrue True\nTrue\n"


def test_a_lazy_name_follows_its_module(monkeypatch):
    """A name patched in its module while the package's name is read, then
    restored, is the module's own again: the package keeps no copy."""
    original = keplerflag.scan.grid_scan
    patched = object()
    monkeypatch.setattr(keplerflag.scan, "grid_scan", patched)
    assert keplerflag.grid_scan is patched
    monkeypatch.undo()
    assert keplerflag.grid_scan is original is keplerflag.scan.grid_scan


def test_dir_lists_every_export_and_the_lazy_modules():
    names = dir(keplerflag)
    assert set(keplerflag.__all__) <= set(names)
    assert {"scan", "convexity"} <= set(names)
    assert names == sorted(names)
