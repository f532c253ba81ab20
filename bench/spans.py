"""Span tracing from outside the package.

``install`` replaces public functions of revolve's modules with wrappers,
at every place a caller looks them up (a module that did ``from .region
import bounding_box`` holds its own reference, so both names are patched).
Each wrapped call inside an op records a span (name, parent, start, end).
Counts are taken at the same boundaries.  When an op ends its spans are
folded into per-name totals:

* ``inclusive``: the duration of spans with no ancestor of the same name,
  so recursion (a union's parts) is not counted twice;
* ``self``: a span's duration minus the time its direct child spans cover.

Functions called tens of thousands of times per op (scalar ``eval_expr``,
vectorized ``eval_array``) are counted, not timed; their time stays in
their caller's self time.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict

perf_counter = time.perf_counter

# Marks the stderr line on which a traced CLI job reports its spans.
SPANS_PREFIX = "BENCH-SPANS "


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[list] = []      # [name, parent, start, end, outermost]
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.mc_alloc_peak = 0
        self.ops = 0

    # -- op boundaries -----------------------------------------------------

    def begin_op(self) -> None:
        self.active = True
        self._enter("op")

    def end_op(self) -> None:
        self._exit(self._stack[-1])
        self.active = False
        self.ops += 1
        self._fold()

    def _enter(self, name: str) -> int:
        outermost = self._depth[name] == 0
        self._depth[name] += 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, perf_counter(), 0.0, outermost])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        span = self.spans[idx]
        span[3] = perf_counter()
        self._stack.pop()
        self._depth[span[0]] -= 1

    def _fold(self) -> None:
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, outermost in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, _, start, end, outermost) in enumerate(self.spans):
            if outermost:
                self.inclusive[name] += end - start
            self.self_time[name] += (end - start) - child_time[i]
        self.spans.clear()

    # -- wrappers ------------------------------------------------------------

    def timed(self, name: str, fn, on_call=None, on_result=None, count_nested=False):
        """Wrap ``fn`` in a span.  ``on_call(args)`` and ``on_result(result)``
        return counts to add; calls nested in a same-name span are counted
        only with ``count_nested``."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            outer = tracer._depth[name] == 0
            if outer or count_nested:
                tracer.counts[name + ".calls"] += 1
                if on_call is not None:
                    tracer.counts[name + ".points"] += on_call(args)
            idx = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if on_result is not None and (outer or count_nested):
                tracer.counts[name + ".evals"] += on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn, on_call=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[name + ".calls"] += 1
                if on_call is not None:
                    tracer.counts[name + ".points"] += on_call(args)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def with_alloc_peak(self, fn):
        """Record tracemalloc's peak over each call (Monte Carlo only: the
        allocation hooks would slow the pure-Python quadrature layers)."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                tracer.mc_alloc_peak = max(tracer.mc_alloc_peak, peak)

        wrapper.__wrapped__ = fn
        return wrapper


ROUTES = ("double_integral", "disk", "shell", "polar", "pappus", "monte_carlo")


def _size(args) -> int:
    return int(getattr(args[1], "size", 1))


def install(tracer: Tracer) -> None:
    """Patch revolve's modules in place.  Call before the first op."""
    import revolve
    from revolve import cli, config, expr, methods, quadrature, region

    def patch(wrapper, *sites):
        for module, attr in sites:
            setattr(module, attr, wrapper)

    patch(tracer.timed("config.load_job", config.load_job), (config, "load_job"), (cli, "load_job"))
    patch(tracer.timed("config.parse_job", config.parse_job),
          (config, "parse_job"), (revolve, "parse_job"))
    for cls in (region.NormalX, region.NormalY, region.PolarSector, region.Polygon):
        cls.__post_init__ = tracer.timed("region.construct", cls.__post_init__)
    patch(tracer.timed("expr.parse_expr", expr.parse_expr),
          (expr, "parse_expr"), (config, "parse_expr"), (region, "parse_expr"))
    patch(tracer.counted("expr.eval_expr", expr.eval_expr), (region, "eval_expr"))
    patch(tracer.counted("expr.eval_array", expr.eval_array, on_call=_size),
          (region, "eval_array"))

    patch(tracer.timed("region.axis_side_check", region.axis_side_check),
          (region, "axis_side_check"), (methods, "axis_side_check"), (cli, "axis_side_check"))
    patch(tracer.timed("region.bounding_box", region.bounding_box),
          (region, "bounding_box"), (methods, "bounding_box"), (cli, "bounding_box"))
    patch(tracer.timed("region.contains_mask", region.contains_mask, on_call=_size),
          (region, "contains_mask"), (methods, "contains_mask"))
    patch(tracer.timed("region.contains", region.contains), (region, "contains"), (cli, "contains"))

    patch(tracer.timed("quadrature.integrate_region", quadrature.integrate_region),
          (quadrature, "integrate_region"), (methods, "integrate_region"))
    # Inner integrals run inside the outer one's integrand: count them all.
    patch(tracer.timed("quadrature.integrate_1d", quadrature.integrate_1d,
                       on_result=lambda r: r.evaluations, count_nested=True),
          (quadrature, "integrate_1d"), (methods, "integrate_1d"))

    for route in ROUTES:
        fn = getattr(methods, f"volume_{route}")
        if route == "monte_carlo":
            fn = tracer.with_alloc_peak(fn)
        wrapped = tracer.timed(f"methods.{route}", fn, on_result=lambda r: r.evaluations)
        patch(wrapped, (methods, f"volume_{route}"), (cli, f"volume_{route}"))
        if route in cli._METHOD_RUNNERS:
            cli._METHOD_RUNNERS[route] = wrapped
    patch(tracer.timed("methods.compare", methods.compare_methods),
          (methods, "compare_methods"), (cli, "compare_methods"))
    patch(tracer.timed("methods.centroid", methods.centroid),
          (methods, "centroid"), (cli, "centroid"))


def summary(tracer: Tracer) -> dict:
    """Raw per-name totals, JSON-ready; ``layer_metrics`` turns the sum of
    several summaries into per-op metrics."""
    return {
        "ops": tracer.ops,
        "inclusive": dict(tracer.inclusive),
        "self": dict(tracer.self_time),
        "counts": dict(tracer.counts),
        "mc_alloc_peak": tracer.mc_alloc_peak,
    }


def merge(summaries: list[dict]) -> dict:
    total = {"ops": 0, "inclusive": defaultdict(float), "self": defaultdict(float),
             "counts": defaultdict(int), "mc_alloc_peak": 0}
    for s in summaries:
        total["ops"] += s["ops"]
        total["mc_alloc_peak"] = max(total["mc_alloc_peak"], s["mc_alloc_peak"])
        for key in ("inclusive", "self", "counts"):
            for name, value in s[key].items():
                total[key][name] += value
    return total


def layer_metrics(total: dict) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics named as in BENCHMARK.json.

    What each layer should move when it gets faster:

    * import: setup_s everywhere, op_s_* and ops_per_s on cli_jobs;
    * config and region.construct: op_s_p50 on cli_jobs, a little on quad_sweep;
    * expr and quadrature: op_s_p50/op_s_p90/ops_per_s on quad_sweep and
      on the compare share of cli_jobs;
    * region side check and bounding box: op_s_p50 on quad_sweep (up to
      four side checks per compare); contains_mask: op_s_* on mc_sample;
      scalar contains: the sample jobs of cli_jobs;
    * methods.monte_carlo (self time, allocation peak): op_s_* and
      peak_rss_mb on mc_sample, and nothing on quad_sweep.
    """
    ops = total["ops"]
    incl, self_time, counts = total["inclusive"], total["self"], total["counts"]

    def per_op(value):
        return value / ops

    m = {
        "config.load_job_s": (per_op(incl.get("config.load_job", 0.0)), "s/op"),
        "config.parse_job_s": (per_op(incl.get("config.parse_job", 0.0)), "s/op"),
        "region.construct_s": (per_op(incl.get("region.construct", 0.0)), "s/op"),
        "expr.parse_expr_s": (per_op(incl.get("expr.parse_expr", 0.0)), "s/op"),
        "expr.eval_expr_calls": (per_op(counts.get("expr.eval_expr.calls", 0)), "count/op"),
        "expr.eval_array_calls": (per_op(counts.get("expr.eval_array.calls", 0)), "count/op"),
        "expr.eval_array_points": (per_op(counts.get("expr.eval_array.points", 0)), "count/op"),
    }
    for fn, count in (("axis_side_check", "calls"), ("bounding_box", "calls"),
                      ("contains_mask", "points"), ("contains", "calls")):
        m[f"region.{fn}_s"] = (per_op(incl.get(f"region.{fn}", 0.0)), "s/op")
        m[f"region.{fn}_{count}"] = (per_op(counts.get(f"region.{fn}.{count}", 0)), "count/op")
    m["quadrature.integrate_region_s"] = (per_op(incl.get("quadrature.integrate_region", 0.0)), "s/op")
    m["quadrature.integrate_1d_self_s"] = (per_op(self_time.get("quadrature.integrate_1d", 0.0)), "s/op")
    m["quadrature.integrate_1d_calls"] = (per_op(counts.get("quadrature.integrate_1d.calls", 0)), "count/op")
    m["quadrature.evaluations"] = (per_op(counts.get("quadrature.integrate_1d.evals", 0)), "count/op")
    for route in ROUTES:
        m[f"methods.{route}_s"] = (per_op(incl.get(f"methods.{route}", 0.0)), "s/op")
        m[f"methods.{route}_evals"] = (per_op(counts.get(f"methods.{route}.evals", 0)), "count/op")
    m["methods.compare_s"] = (per_op(incl.get("methods.compare", 0.0)), "s/op")
    m["methods.centroid_s"] = (per_op(incl.get("methods.centroid", 0.0)), "s/op")
    m["methods.monte_carlo_self_s"] = (per_op(self_time.get("methods.monte_carlo", 0.0)), "s/op")
    m["methods.monte_carlo_alloc_peak_mb"] = (total["mc_alloc_peak"] / 2**20, "MiB")
    return m
