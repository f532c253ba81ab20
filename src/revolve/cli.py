"""Command-line front end.

Subcommands: volume, compare, centroid, sample, check.  Every run takes a
JSON job config (--config); flags override the matching config fields.
Reports go to stdout as JSON (default) or CSV with 17-significant-digit
numbers, both written by ``_emit``; sample always writes CSV.  The
records are the schema: a JSON report holds their fields by name
(``fields``), and the volume and compare CSV columns are VolumeReport's
fields.  Errors go to stderr.

Exit codes: 0 ok, 2 config error, 3 computation error, 4 method
disagreement (compare only).

A process that imports this module runs OpenBLAS on one thread unless
OPENBLAS_NUM_THREADS is already set.  revolve calls no BLAS routine, and
numpy's import otherwise starts a worker per extra core, each of which
busy-waits before it sleeps: about a quarter of the CPU time of a job
that loads numpy.  ``import revolve`` by itself does not touch it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import signal
import sys
from collections.abc import Iterable

# Before anything here can import numpy, which reads it once at load: the
# idle OpenBLAS workers would spin on this process's CPU time for nothing.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from ._record import fields
from .config import FORMATS, JobConfig, load_job
from .errors import ConfigError, InvalidRegionError, RevolveError
from .methods import _CHUNK, _MAX_SAMPLES, ROUTES, VolumeReport, centroid, compare_methods, run_route
from .region import axis_side_check, bounding_box, contains_mask

__all__ = ["main", "run", "build_parser"]

# methods.ROUTES itself, under the name bench/spans.py patches: a route it
# replaces here is replaced for volume and compare alike.
_METHOD_RUNNERS = ROUTES

# revolve sample masks its grid in blocks of whole rows, at most _CHUNK
# points each, so memory does not grow with the grid.  The bound is one of
# time: grid^2 is at most as many points as a Monte Carlo estimate may draw.
_MAX_GRID = math.isqrt(_MAX_SAMPLES)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, metavar="PATH",
                        help="JSON job config file")
    common.add_argument("--method", metavar="NAME",
                        help="volume method (volume subcommand)")
    common.add_argument("--rel-tol", type=float, metavar="R",
                        help="relative quadrature tolerance override")
    common.add_argument("--abs-tol", type=float, metavar="A",
                        help="absolute quadrature tolerance override")
    common.add_argument("--mc-samples", type=int, metavar="N",
                        help="Monte Carlo sample count override")
    common.add_argument("--seed", type=int, metavar="S",
                        help="Monte Carlo seed override")
    common.add_argument("--format", choices=FORMATS,
                        help="report format (default json)")
    common.add_argument("--print-normalized", action="store_true",
                        help="echo the validated config with defaults filled in and exit")

    parser = argparse.ArgumentParser(
        prog="revolve",
        description="Volumes of solids of revolution about an arbitrary "
                    "line in the plane, with cross-validating methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("volume", parents=[common],
                   help="compute the volume with one method")
    sub.add_parser("compare", parents=[common],
                   help="run every applicable method and compare the results")
    sub.add_parser("centroid", parents=[common],
                   help="area and centroid of the region")
    sample = sub.add_parser("sample", parents=[common],
                            help="CSV grid of containment and axis distance "
                                 "(always CSV: --format json is refused)")
    sample.add_argument("--grid", type=int, default=32, metavar="N",
                        help="grid points per side (default 32)")
    sub.add_parser("check", parents=[common],
                   help="exterior-axis check only")
    return parser


def _g17(value: float) -> str:
    return format(value, ".17g")


def _print_csv(header: Iterable[str], rows: Iterable[Iterable]) -> None:
    print(",".join(header))
    for row in rows:
        cells = [_g17(v) if isinstance(v, float) else str(v) for v in row]
        print(",".join(cells))


def _emit(job: JobConfig, payload: dict, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Print one report: ``payload`` as JSON, with each record in it as its
    fields, or ``header`` and ``rows`` as CSV."""
    if job.out_format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True, default=fields))
    else:
        _print_csv(header, rows)


def _cmd_volume(job: JobConfig) -> int:
    report = fields(run_route(job.method, job.region, job.axis, job.tolerance, job.mc))
    _emit(job, {"command": "volume", **report}, VolumeReport._fields, [report.values()])
    return 0


def _cmd_compare(job: JobConfig) -> int:
    comparison = compare_methods(job.region, job.axis, job.tolerance, job.mc)
    _emit(job, {"command": "compare", **fields(comparison)}, [*VolumeReport._fields, "verdict"],
          [[*fields(r).values(), comparison.verdict] for r in comparison.reports])
    if comparison.verdict in ("agree", "single"):
        return 0
    if comparison.verdict == "disagree":
        return 4
    print("error: no method could run; see failures in the report", file=sys.stderr)
    return 3


def _cmd_centroid(job: JobConfig) -> int:
    report = centroid(job.region, job.tolerance)
    _emit(job, {"command": "centroid", **fields(report)}, ["centroid_x", "centroid_y", "area"],
          [[report.centroid.x, report.centroid.y, report.area]])
    return 0


def _cmd_check(job: JobConfig) -> int:
    side = axis_side_check(job.region, job.axis)
    _emit(job, {"command": "check", "side": side}, ["side"], [[side]])
    return 0


def _cmd_sample(job: JobConfig, grid: int) -> int:
    import numpy as np

    x_lo, x_hi, y_lo, y_hi = bounding_box(job.region)
    xs = [x_lo + (x_hi - x_lo) * ix / (grid - 1) for ix in range(grid)]
    ys = [y_lo + (y_hi - y_lo) * iy / (grid - 1) for iy in range(grid)]
    rows_per_block = max(1, _CHUNK // grid)
    a, b, c = job.axis.a, job.axis.b, job.axis.c
    # The coordinates are monotone in the index, and so is the distance in
    # each of them, under rounding too: the corners bound every distance.
    if not all(math.isfinite(a * x + b * y + c) for x in (xs[0], xs[-1]) for y in (ys[0], ys[-1])):
        raise InvalidRegionError(
            f"grid over [{x_lo!r}, {x_hi!r}] x [{y_lo!r}, {y_hi!r}] has points whose "
            "distance to the axis is not finite")

    def block_rows(start: int):
        # One mask call per block of whole rows, rows ordered y-major.  The
        # distance is signed_distance's a*x + b*y + c, in the same order.
        block = ys[start:start + rows_per_block]
        bx, by = np.tile(xs, len(block)), np.repeat(block, grid)
        inside = contains_mask(job.region, bx, by).astype(np.int64)
        dist = np.abs(a * bx + b * by + c)
        return zip(bx.tolist(), by.tolist(), inside.tolist(), dist.tolist())

    blocks = map(block_rows, range(0, grid, rows_per_block))
    first = next(blocks)  # before the header: a refusal prints nothing
    _print_csv(["x", "y", "inside", "distance"],
               itertools.chain(first, itertools.chain.from_iterable(blocks)))
    return 0


# The handlers, which look up what they call when they run: bench/spans.py
# replaces centroid, compare_methods and the rest here by name.
_COMMANDS = {"volume": _cmd_volume, "compare": _cmd_compare,
             "centroid": _cmd_centroid, "check": _cmd_check}

# The flags that override config fields, by their names in parse_job.
_OVERRIDES = ("method", "rel_tol", "abs_tol", "mc_samples", "seed", "format")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in _OVERRIDES if getattr(args, key) is not None}
    try:
        job = load_job(args.config, overrides)
        if args.command == "volume" and job.method == "all":
            raise ConfigError([("method", "'all' is the compare subcommand's job; "
                                          "pick one method for volume")])
        if args.command == "sample" and args.format == "json":
            raise ConfigError([("--format", "sample always writes CSV")])
        if args.command == "sample" and args.grid < 2:
            raise ConfigError([("--grid", "need at least 2 points per side")])
        if args.command == "sample" and args.grid > _MAX_GRID:
            raise ConfigError([("--grid", f"need at most {_MAX_GRID} points per side")])
    except ConfigError as exc:
        for path, msg in exc.issues:
            print(f"config error: {path}: {msg}", file=sys.stderr)
        return 2

    if args.print_normalized:
        print(json.dumps(job.normalized(), indent=2, sort_keys=True))
        return 0

    try:
        if args.command == "sample":
            return _cmd_sample(job, args.grid)
        return _COMMANDS[args.command](job)
    except RevolveError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    # A closed stdout (revolve ... | head) ends the process silently, as it
    # does cat, instead of in a BrokenPipeError traceback.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    run()
