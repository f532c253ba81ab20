"""One benchmark child process: set-up, or one pass of an in-process
workload.

    python3 bench/worker.py WORKLOAD --seed N --setup
    python3 bench/worker.py WORKLOAD --seed N [--trace]

``--setup`` does what a workload does before its first timed op (import
revolve, build and reference the pass of inputs) and exits; the parent
times it.  Otherwise the child warms up on ops from another stream, runs
the pass once, timing each op's CPU time and then the calibration kernel
of speed.py, and prints one JSON object as its last line of output.  The
parent repeats the pass in fresh processes, so no state carries over from
one repetition to the next.
revolve must be importable (PYTHONPATH=src).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable

from checks import centroid_error, volume_error
from inputs import SQRT_FAMILIES, TIMED_STREAM, WARMUP_STREAM, Case, cli_pass, mc_pass, quad_pass
from speed import KERNEL, Speed


def _quad_op(case: Case):
    from revolve import config, methods

    job = config.parse_job(case.doc)
    reports = [
        methods.volume_double_integral(job.region, job.axis, job.tolerance),
        methods.volume_pappus(job.region, job.axis, job.tolerance),
    ]
    if case.route is not None:
        route = getattr(methods, f"volume_{case.route}")
        reports.append(route(job.region, job.axis, job.tolerance))
    return reports, methods.centroid(job.region, job.tolerance)


def _quad_check(case: Case, result) -> str | None:
    reports, cen = result
    ref, ref_err = case.volume
    for r in reports:
        reason = volume_error(r.method, r.value, r.error_estimate, ref, ref_err)
        if reason:
            return reason
    return centroid_error(cen.area, cen.centroid.x, cen.centroid.y,
                          case.moments.area, case.moments.centroid)


def _mc_prepare(case: Case):
    from revolve import config

    return config.parse_job(case.doc)


def _mc_op(job):
    from revolve import methods

    return methods.volume_monte_carlo(job.region, job.axis, job.mc)


def _mc_check(case: Case, report) -> str | None:
    return volume_error(report.method, report.value, report.error_estimate, *case.volume)


def _quad_warmup(cases: list[Case]) -> list[Case]:
    """One op of each smooth family: every code path of the sqrt families
    is already on theirs, at a fraction of the cost."""
    by_family: dict[str, Case] = {}
    for case in cases:
        if case.name not in SQRT_FAMILIES:
            by_family.setdefault(case.name, case)
    return list(by_family.values())


def _mc_warmup(cases: list[Case]) -> list[Case]:
    """One estimate at 1/40 of the samples."""
    doc = cases[0].doc
    return [replace(cases[0], doc={**doc, "mc": {**doc["mc"], "samples": 100_000}})]


@dataclass(frozen=True)
class Workload:
    make_pass: Callable[[int, int], list[Case]]
    prepare: Callable          # untimed: Case -> op input
    op: Callable               # timed: op input -> result
    check: Callable            # untimed: (Case, result) -> reason or None
    warmup: Callable           # warm-up stream pass -> ops to run untimed


WORKLOADS = {
    "quad_sweep": Workload(quad_pass, lambda case: case, _quad_op, _quad_check, _quad_warmup),
    "mc_sample": Workload(mc_pass, _mc_prepare, _mc_op, _mc_check, _mc_warmup),
}


def run_pass(wl: Workload, cases: list[Case], label: str, tracer, times, failures,
             speed: Speed | None = None) -> None:
    for i, case in enumerate(cases):
        arg = wl.prepare(case)
        if tracer is not None:
            tracer.begin_op()
        t0 = time.process_time()
        try:
            result = wl.op(arg)
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.process_time() - t0
        if tracer is not None:
            tracer.end_op()
        if speed is not None:
            speed.after(elapsed)
        if error is None:
            error = wl.check(case, result)
        times.append(elapsed)
        if error is not None:
            failures.append({"op": f"{label} #{i} {case.name}", "input": case.doc, "reason": error})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS) + ["cli_jobs"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import revolve  # noqa: F401  (part of set-up for every workload)

    if args.workload == "cli_jobs":
        # cli_jobs runs in the parent; its set-up is the import plus the job list.
        cli_pass(args.seed, TIMED_STREAM)
        return 0
    wl = WORKLOADS[args.workload]
    cases = wl.make_pass(args.seed, TIMED_STREAM)
    if args.setup:
        return 0

    # Warm-up ops are checked like timed ones, but not timed.
    failures: list[dict] = []
    warm = wl.warmup(wl.make_pass(args.seed, WARMUP_STREAM))
    run_pass(wl, warm, f"{args.workload} seed={args.seed} warm-up", None, [], failures)

    tracer = None
    if args.trace:
        from spans import Tracer, install, summary

        tracer = Tracer()
        install(tracer)
    times: list[float] = []
    speed = Speed(KERNEL[args.workload])
    run_pass(wl, cases, f"{args.workload} seed={args.seed}", tracer, times, failures, speed)
    out = {"times": times, "failures": failures, "warmup_ops": len(warm),
           "speed_samples": speed.samples}
    if tracer is not None:
        out["spans"] = summary(tracer)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
