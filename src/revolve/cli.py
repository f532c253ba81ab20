"""Command-line front end.

Subcommands: volume, compare, centroid, sample, check.  Every run takes a
JSON job config (--config); flags override the matching config fields.
Reports go to stdout as JSON (default) or CSV with 17-significant-digit
numbers; errors go to stderr.

Exit codes: 0 ok, 2 config error, 3 computation error, 4 method
disagreement (compare only).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import asdict

import numpy as np

from .config import JobConfig, load_job
from .errors import ConfigError, RevolveError
from .methods import (
    VolumeReport,
    centroid,
    compare_methods,
    volume_disk,
    volume_double_integral,
    volume_monte_carlo,
    volume_pappus,
    volume_polar,
    volume_shell,
)
from .region import axis_side_check, bounding_box, contains_mask
from .geometry import Point, signed_distance

__all__ = ["main", "run", "build_parser"]

_METHOD_RUNNERS = {
    "double_integral": volume_double_integral,
    "disk": volume_disk,
    "shell": volume_shell,
    "polar": volume_polar,
    "pappus": volume_pappus,
}


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
    common.add_argument("--format", choices=("json", "csv"), dest="out_format",
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
                            help="CSV grid of containment and axis distance")
    sample.add_argument("--grid", type=int, default=32, metavar="N",
                        help="grid points per side (default 32)")
    sub.add_parser("check", parents=[common],
                   help="exterior-axis check only")
    return parser


def _g17(value: float) -> str:
    return format(value, ".17g")


def _report_fields(report: VolumeReport) -> dict:
    return asdict(report)


def _print_csv(header: list[str], rows: list[list]) -> None:
    print(",".join(header))
    for row in rows:
        cells = [_g17(v) if isinstance(v, float) else str(v) for v in row]
        print(",".join(cells))


def _emit_volume(report: VolumeReport, fmt: str) -> None:
    if fmt == "json":
        payload = {"command": "volume", **_report_fields(report)}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _print_csv(
            ["method", "value", "error_estimate", "evaluations", "wall_time"],
            [[report.method, report.value, report.error_estimate,
              report.evaluations, report.wall_time]],
        )


def _cmd_volume(job: JobConfig) -> int:
    method = job.method
    if method == "monte_carlo":
        report = volume_monte_carlo(job.region, job.axis, job.mc)
    else:
        report = _METHOD_RUNNERS[method](job.region, job.axis, job.tolerance)
    _emit_volume(report, job.out_format)
    return 0


def _cmd_compare(job: JobConfig) -> int:
    comparison = compare_methods(job.region, job.axis, job.tolerance, job.mc)
    if job.out_format == "json":
        payload = {
            "command": "compare",
            "verdict": comparison.verdict,
            "reports": [_report_fields(r) for r in comparison.reports],
            "failures": [asdict(f) for f in comparison.failures],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _print_csv(
            ["method", "value", "error_estimate", "evaluations", "wall_time", "verdict"],
            [[r.method, r.value, r.error_estimate, r.evaluations, r.wall_time,
              comparison.verdict] for r in comparison.reports],
        )
    if comparison.verdict in ("agree", "single"):
        return 0
    if comparison.verdict == "disagree":
        return 4
    print("error: no method could run; see failures in the report", file=sys.stderr)
    return 3


def _cmd_centroid(job: JobConfig) -> int:
    report = centroid(job.region, job.tolerance)
    if job.out_format == "json":
        payload = {
            "command": "centroid",
            "centroid": {"x": report.centroid.x, "y": report.centroid.y},
            "area": report.area,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _print_csv(
            ["centroid_x", "centroid_y", "area"],
            [[report.centroid.x, report.centroid.y, report.area]],
        )
    return 0


def _cmd_check(job: JobConfig) -> int:
    side = axis_side_check(job.region, job.axis)
    if job.out_format == "json":
        print(json.dumps({"command": "check", "side": side}, indent=2, sort_keys=True))
    else:
        _print_csv(["side"], [[side]])
    return 0


def _cmd_sample(job: JobConfig, grid: int) -> int:
    x_lo, x_hi, y_lo, y_hi = bounding_box(job.region)
    xs = [x_lo + (x_hi - x_lo) * ix / (grid - 1) for ix in range(grid)]
    ys = [y_lo + (y_hi - y_lo) * iy / (grid - 1) for iy in range(grid)]
    # One mask call over the grid, rows ordered y-major.
    inside = contains_mask(job.region, np.tile(xs, grid), np.repeat(ys, grid))
    rows = [
        [x, y, int(m), abs(signed_distance(job.axis, Point(x, y)))]
        for (y, x), m in zip(itertools.product(ys, xs), inside)
    ]
    _print_csv(["x", "y", "inside", "distance"], rows)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        key: value
        for key, value in (
            ("method", args.method),
            ("rel_tol", args.rel_tol),
            ("abs_tol", args.abs_tol),
            ("mc_samples", args.mc_samples),
            ("seed", args.seed),
            ("format", args.out_format),
        )
        if value is not None
    }
    try:
        job = load_job(args.config, overrides)
        if args.command == "volume" and job.method == "all":
            raise ConfigError([("method", "'all' is the compare subcommand's job; "
                                          "pick one method for volume")])
        if args.command == "sample" and args.grid < 2:
            raise ConfigError([("--grid", "need at least 2 points per side")])
    except ConfigError as exc:
        for path, msg in exc.issues:
            print(f"config error: {path}: {msg}", file=sys.stderr)
        return 2

    if args.print_normalized:
        print(json.dumps(job.normalized(), indent=2, sort_keys=True))
        return 0

    try:
        if args.command == "volume":
            return _cmd_volume(job)
        if args.command == "compare":
            return _cmd_compare(job)
        if args.command == "centroid":
            return _cmd_centroid(job)
        if args.command == "check":
            return _cmd_check(job)
        return _cmd_sample(job, args.grid)
    except RevolveError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
