"""Regenerate the stored references in ``refs/`` from the program as it is.

    python3 perfbench/make_refs.py

The references pin what the program computed when they were made: every
lattice row of both grid workloads, and pools of random admissible points
and of ray points with their closed-form values.  The benchmark draws each
run's inputs from these pools with its seed.  Regenerating them re-baselines
the correctness gate, so do it only for a deliberate change of output, and
say so where the change is recorded.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import tempfile

import numpy as np

import program
from workloads import REFS, WORKLOADS, status_field

POOL_SEED = 20261017
RANDOM_POOL = 8192
RAY_POOL = 1024
RAY_C = (1.51, 1.55, 1.65, 2.0, 5.0)  # acceptance 1's energies
SETUP = {"a": 1.0, "c": 1.55, "point": [1.25, 0.0, 0.6, 0.8]}


def scalar(kf, a, c, x, y, r, t):
    s = kf.flag_curvature(kf.MetricParams(a, c), kf.PhasePoint(x, y, r, t))
    return (np.nan if s.K is None else s.K), status_field(s)


def grid_refs(kf, mods, name, tmp):
    wl = WORKLOADS[name]()
    wl.prepare(kf, mods, 0, tmp)
    result = wl.run_pass()
    if result.payload != 0:
        raise SystemExit(f"{name}: grid command exited with {result.payload}")
    cols, _ = wl.read_output()
    ok = cols["status"] == "ok"
    with open(wl.out, "rb") as handle:
        sha = hashlib.sha256(handle.read()).hexdigest()
    return dict(
        K=cols["K"], status=cols["status"],
        min_K=np.min(cols["K"][ok]), max_K=np.max(cols["K"][ok]), sha256=np.array(sha),
    )


def random_points(rng, n):
    """Admissible points: a in [0, 3], c above critical, |x| off the band,
    inner radicand clear of zero; drawn one at a time and filtered."""
    rows = []
    while len(rows) < n:
        a = rng.uniform(0.0, 3.0)
        c = 1.5 * a ** (2.0 / 3.0) + rng.uniform(0.05, 3.0)
        x = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 4.0)
        y = rng.uniform(-math.pi, math.pi)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        scale = 10.0 ** rng.uniform(-1.0, 1.0)
        r, t = scale * math.sin(theta), scale * math.cos(theta)
        norm_q = math.sqrt(r * r + t * t / (x * x))
        w = x * x + 2.0 * c
        if 1.0 - 16.0 * a * t / (norm_q * w * w) > 1e-6:
            rows.append((a, c, x, y, r, t))
    return np.array(rows)


def ray_points(rng, n):
    c = rng.choice(RAY_C, n)
    x = rng.choice([-1.0, 1.0], n) * rng.uniform(0.3, 10.0, n)
    keep = x**4 + 4.0 * x**2 * c + 4.0 * c**2 - 16.0 * x > 0.0
    return np.column_stack([c, x])[keep]


def main():
    kf, mods = program.load()
    rng = np.random.default_rng(POOL_SEED)
    REFS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=program.ROOT, prefix=".perfbench-tmp-") as tmp:
        for name in ("grid-accept3", "grid-boundary"):
            refs = grid_refs(kf, mods, name, tmp)
            np.savez_compressed(REFS / f"{name}.npz", **refs)
            print(name, {k: refs[k] for k in ("min_K", "max_K", "sha256")},
                  dict(zip(*np.unique(refs["status"], return_counts=True))))

    rand = random_points(rng, RANDOM_POOL)
    rand_res = [scalar(kf, *map(float, row)) for row in rand]
    ray = ray_points(rng, RAY_POOL)
    ray_res = [scalar(kf, 1.0, float(c), float(x), 0.0, 0.0, float(x)) for c, x in ray]
    oracle = np.array([kf.flag_curvature_closed_form(float(c), float(x)) for c, x in ray])
    ray_K = np.array([k for k, _ in ray_res])
    np.savez_compressed(
        REFS / "point-queries.npz",
        rand=rand, rand_K=np.array([k for k, _ in rand_res]),
        rand_status=np.array([s for _, s in rand_res]),
        ray=ray, ray_K=ray_K, ray_oracle=oracle,
    )
    print("point-queries", len(rand), "random,", len(ray), "ray; statuses",
          dict(zip(*np.unique([s for _, s in rand_res], return_counts=True))),
          "; worst ray vs oracle", float(np.max(np.abs(ray_K - oracle) / np.abs(oracle))))

    K, status = scalar(kf, SETUP["a"], SETUP["c"], *SETUP["point"])
    if status != "ok":
        raise SystemExit(f"set-up point is not admissible: {status}")
    with open(REFS / "setup.json", "w", encoding="utf-8") as handle:
        json.dump({**SETUP, "K": K}, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
