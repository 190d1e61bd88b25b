"""Command-line front end.

Thin adapters over the library: no numerics live here, so identical inputs
through the CLI and the Python API produce identical numbers.

Exit codes: 0 success, 1 domain or precondition failure, 2 argument errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .convexity import verify_convexity
from .curvature import flag_curvature, flag_curvature_closed_form
from .errors import ConsistencyError, DegeneracyError, DomainError, PreconditionError
from .identities import DEFAULT_SEED, run_identity_checks
from .metric import MetricParams, PhasePoint
from .scan import (
    GridSpec,
    SliceSpec,
    _axis,
    _require_range,
    _write,
    emit,
    grid_scan,
    slice_scan,
)

_RANGE_FLAGS = ("--x-range", "--phi-range")

TAU = 2.0 * math.pi


def _parse_range(text):
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expected a range like 'lo:hi', got {text!r}"
        )
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}: {exc}") from None
    return lo, hi


def _merge_range_values(argv):
    """Rewrite ['--x-range', '-10:10'] as ['--x-range=-10:10'].

    argparse would otherwise read a value starting with '-' as a flag.
    """
    out = []
    for arg in argv:
        if out and out[-1] in _RANGE_FLAGS and ":" in arg:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


@functools.cache  # prog is fixed, and parse_args leaves a parser as it was
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="keplerflag",
        description=(
            "Flag curvature of the rotating Kepler problem's Cartan metrics: "
            "point evaluation, slices, grids, and verifiers."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--a", type=float, default=1.0, help="rotation rate (default 1.0)")
        p.add_argument("--c", type=float, required=True, help="energy parameter")

    p_point = sub.add_parser("point", help="flag curvature at one phase point")
    add_params(p_point)
    p_point.add_argument("--x", type=float, required=True)
    p_point.add_argument("--y", type=float, default=0.0)
    p_point.add_argument("--r", type=float, default=0.0)
    p_point.add_argument("--t", type=float, default=1.0)
    p_point.add_argument("--format", choices=("plain", "json"), default="plain")

    def add_scan(p):
        """The arguments a slice and a grid share."""
        add_params(p)
        p.add_argument("--x-range", type=_parse_range, default=(-10.0, 10.0),
                       metavar="LO:HI")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None,
                       help="output path (default: standard output)")
        p.add_argument("--no-samples", action="store_true",
                       help="JSON only: omit the samples array")

    p_slice = sub.add_parser("slice", help="K along the fiber ray (x, 0, 0, x)")
    add_scan(p_slice)
    p_slice.add_argument("--n", type=int, default=2048)

    p_grid = sub.add_parser("grid", help="K over an (x, phi) lattice")
    add_scan(p_grid)
    p_grid.add_argument("--phi-range", type=_parse_range, default=(0.0, TAU),
                        metavar="LO:HI")
    p_grid.add_argument("--nx", type=int, default=256)
    p_grid.add_argument("--nphi", type=int, default=256)

    p_conv = sub.add_parser("verify-convexity",
                            help="sweep the fiber Hessian form over one level curve")
    p_conv.add_argument("--px", type=float, default=0.0)
    p_conv.add_argument("--py", type=float, default=0.0)
    p_conv.add_argument("--a", type=float, default=1.0)
    p_conv.add_argument("--C", type=float, default=None,
                        help="half-offset; alternatively derive it from --c")
    p_conv.add_argument("--c", type=float, default=None,
                        help="energy parameter; implies C = (|p|^2/2 + c)/2")
    p_conv.add_argument("--n", type=int, default=360)
    p_conv.add_argument("--out", default=None)

    p_ident = sub.add_parser("verify-identities",
                             help="run the structural-identity property suite")
    p_ident.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_cf = sub.add_parser("closed-form",
                          help="closed-form K along (x, 0, 0, x), rotation rate 1")
    p_cf.add_argument("--c", type=float, required=True)
    p_cf.add_argument("--x", type=float, default=None)
    p_cf.add_argument("--x-range", type=_parse_range, default=None, metavar="LO:HI")
    p_cf.add_argument("--n", type=int, default=2048)
    p_cf.add_argument("--out", default=None)

    return parser


def _cmd_point(args):
    params = MetricParams(args.a, args.c)
    pt = PhasePoint(args.x, args.y, args.r, args.t)
    sample = flag_curvature(params, pt)
    if args.format == "json":
        doc = {
            "a": args.a, "c": args.c,
            # JSON has no NaN or infinity: a coordinate that is not finite is null
            "point": {k: v if math.isfinite(v) else None for k, v in vars(pt).items()},
            "K": sample.K, "status": sample.status, "reason": sample.reason,
        }
        print(json.dumps(doc, indent=2))
        return 0 if sample.ok else 1
    if not sample.ok:
        print(f"error: {sample.status}: {sample.reason}", file=sys.stderr)
        return 1
    print(f"{sample.K:.17g}")
    return 0


def _scan(args, spec, scan, points):
    """Run ``scan(spec)``, emit its rows, and report its extremes on stderr;
    1 when no ``points`` are admissible."""
    result, summary = scan(spec)
    emit(result, summary, args.format, args.out, spec=spec,
         include_samples=not args.no_samples)
    if summary.n_ok == 0:
        print(f"warning: no admissible {points} points", file=sys.stderr)
        return 1
    print(
        f"min K = {summary.min_K:.6g} at x={summary.argmin.x:.6g}; "
        f"max K = {summary.max_K:.6g} at x={summary.argmax.x:.6g} "
        f"({summary.n_ok} ok, {summary.n_skipped} skipped)",
        file=sys.stderr,
    )
    return 0


def _cmd_slice(args):
    spec = SliceSpec(args.c, args.a, *args.x_range, args.n)
    return _scan(args, spec, slice_scan, "slice")


def _cmd_grid(args):
    spec = GridSpec(*args.x_range, args.nx, *args.phi_range, args.nphi, args.c, args.a)
    return _scan(args, spec, grid_scan, "lattice")


def _cmd_verify_convexity(args):
    if (args.C is None) == (args.c is None):
        print("error: provide exactly one of --C or --c", file=sys.stderr)
        return 2
    C = args.C
    if C is None:
        try:  # 2C = |p|^2/2 + c
            C = ((args.px**2 + args.py**2) / 2.0 + args.c) / 2.0
        except OverflowError:
            raise ValueError("C = (|p|^2/2 + c)/2 is beyond the float range") from None
    report = verify_convexity((args.px, args.py), C, args.a, args.n)
    _write([json.dumps(report.to_dict(), indent=2) + "\n"], args.out)
    return 0 if report.verdict in (True, None) else 1


def _cmd_verify_identities(args):
    results = run_identity_checks(args.seed)
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        flag = "PASS" if r.passed else "FAIL"
        all_ok &= r.passed
        extra = f"  [{r.detail}]" if r.detail else ""
        print(f"{flag}  {r.name:<{width}}  worst={r.worst:.3e}  "
              f"tol={r.tolerance:.1e}{extra}")
    print(f"{'all checks passed' if all_ok else 'SOME CHECKS FAILED'} "
          f"(seed={args.seed})")
    return 0 if all_ok else 1


def _cmd_closed_form(args):
    if (args.x is None) == (args.x_range is None):
        print("error: provide exactly one of --x or --x-range", file=sys.stderr)
        return 2
    if args.x is not None:
        print(f"{flag_curvature_closed_form(args.c, args.x):.17g}")
        return 0
    if args.n < 2:
        raise ValueError(f"closed-form curve needs n >= 2, got {args.n}")
    lo, hi = args.x_range
    # The x column of `slice` over the same range.  A range with a nonfinite
    # end has no defined points (np.linspace would still end on hi).
    if math.isfinite(lo) and math.isfinite(hi):
        _require_range(lo, hi, "x")
        xs = _axis(lo, hi, args.n)
    else:
        xs = np.full(args.n, math.nan)
    lines = ["x,K,status\n"]
    for x in xs.tolist():
        try:
            k = flag_curvature_closed_form(args.c, x)
            lines.append(f"{x:.17g},{k:.17g},ok\n")
        except DomainError:
            lines.append(f"{x:.17g},,domain_error\n")
    _write(lines, args.out)
    return 0


_COMMANDS = {
    "point": _cmd_point,
    "slice": _cmd_slice,
    "grid": _cmd_grid,
    "verify-convexity": _cmd_verify_convexity,
    "verify-identities": _cmd_verify_identities,
    "closed-form": _cmd_closed_form,
}


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_merge_range_values(list(argv)))
    try:
        return _COMMANDS[args.command](args)
    except (ConsistencyError, DomainError, PreconditionError, DegeneracyError,
            ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
