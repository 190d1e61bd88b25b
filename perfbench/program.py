"""Locate the program under test in the checkout and import it.

The benchmark measures the sources in ``src/`` of the checkout it lives in,
never a copy installed elsewhere, so a missing ``src/keplerflag`` is an
error rather than a silent fallback to another installation.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MODULES = ("jets", "metric", "curvature", "scan", "identities", "convexity", "cli")


class ProgramMissing(RuntimeError):
    """The checkout holds no importable keplerflag sources."""


def load():
    """Import ``keplerflag`` from ``src/`` and return ``(package, modules)``.

    ``modules`` maps each layer name in :data:`MODULES` to its module.
    """
    init = SRC / "keplerflag" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no keplerflag sources at {init.relative_to(ROOT)}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("keplerflag")
    if Path(package.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"keplerflag was imported from {package.__file__}")
    modules = {name: importlib.import_module(f"keplerflag.{name}") for name in MODULES}
    return package, modules
