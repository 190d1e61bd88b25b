"""Diagnostic sweep of the grid chunk size ``keplerflag.scan._CHUNK``.

    python3 perfbench/sweep_chunk.py

For each size in :data:`SIZES` a fresh interpreter imports the program,
sets the module constant, runs the ``grid-accept3`` command once and reports
the time spent in the batch kernel, the pass's wall time, its peak RSS and
the sha256 of the emitted CSV.  The sweep edits no file; if the program no longer has the
constant it reports that and stops.  Nothing here is gated.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile

import program
import tracer as tracing
from workloads import REFS, WORKLOADS, Tally

SIZES = (256, 512, 1024, 2048, 4096, 8192, 16384)


def child(size):
    package, mods = program.load()
    scan = mods["scan"]
    if not hasattr(scan, "_CHUNK"):
        return {"chunk": size, "skipped": "keplerflag.scan has no _CHUNK"}
    scan._CHUNK = size
    tracer = tracing.Tracer()
    tracer.function([package, *mods.values()], mods["curvature"], "_kepler_flag_batch",
                    "curvature.kernel")
    workload = WORKLOADS["grid-accept3"]()
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=program.ROOT, prefix=".perfbench-tmp-") as tmp:
        workload.prepare(package, mods, 0, tmp)
        result = workload.run_pass()
        workload.load_refs()
        sha = workload.check_pass(result, tally)
    tracer.restore()
    return {
        "chunk": size,
        "kernel_s": tracer.inclusive_ns.get("curvature.kernel", 0) / 1e9,
        "wall_s": result.seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sha256": sha,
        "bit_identical": sha == str(workload.ref["sha256"]),
        "failed": tally.failed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(child(args.child)))
        return 0

    if not (REFS / "grid-accept3.npz").is_file():
        print("sweep_chunk: references missing; run make_refs.py", file=sys.stderr)
        return 2
    for size in SIZES:
        proc = subprocess.run([sys.executable, __file__, "--child", str(size)],
                              cwd=program.ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps(row), flush=True)
        if "skipped" in row:
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
