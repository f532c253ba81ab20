"""revolve benchmark: three seeded workloads, timed from outside the package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout (it needs ``src/revolve`` and
``fixtures/``).  Each workload is a closed loop with one client on one
thread, over a fixed list of ops built from the seed (inputs.py):

* ``cli_jobs``: one ``python -m revolve.cli`` process per job, one at a
  time: the 12 bundled fixtures x compare/volume/centroid/check/sample
  --grid 64 in a seeded order, compare and volume with a seeded ``--seed``
  (Monte Carlo at the 1e6 default).  An op is one job.
* ``quad_sweep``: in a child process, ``parse_job`` plus double_integral,
  pappus, the applicable shell/disk/polar route and centroid on 24 seeded
  regions of all five variants, each about a vertical, a horizontal and an
  oblique exterior axis.  An op is one region x axis volume set.
* ``mc_sample``: in a child process, ``volume_monte_carlo`` with 4e6
  samples on 15 seeded polar, curved, polygon and union regions.  An op is
  one estimate.

The op list (a pass) is repeated a fixed number of times per workload
(PASSES), each time in fresh processes; no pass starts once S seconds
have passed, so S only caps a run on a very slow machine.  Every answer is
checked against references computed without revolve (checks.py); a wrong,
refused or raising op counts as failed and is listed with its input.

Ops are timed by CPU time: ``time.process_time`` around each in-process
op, ``ru_utime + ru_stime`` of each CLI job's process.  In-process op
times are then divided by their pass's speed factor (speed.py), so they
read in seconds at the reference machine's speed; the report also prints
the raw times.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of fresh
interpreters doing the workload's set-up), ``op_s_p50``/``op_s_p90`` over
the ops' median times across passes, ``ops_per_s`` (ops over the sum of
those times), and ``peak_rss_mb`` (the high-water RSS of the process that
ran the ops: a pass's child, or the largest CLI job).  ``--trace 1`` runs
untraced and traced passes alternately (spans.py) and prints the per-layer
metrics per op, the import times and ``trace.overhead_ratio``.  The human
readable report ends with one JSON line holding the metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from checks import cli_error  # noqa: E402
from inputs import TIMED_STREAM, WARMUP_STREAM, cli_pass  # noqa: E402
from spans import SPANS_PREFIX, layer_metrics, merge  # noqa: E402
from speed import speed_factor  # noqa: E402

WORKLOADS = ("cli_jobs", "quad_sweep", "mc_sample")
SETUP_REPEATS = 7
# Timed passes per run, each workload's run about 30 s long; a CLI pass
# (60 processes) alone takes 20 to 25 s.
PASSES = {"cli_jobs": 1, "quad_sweep": 4, "mc_sample": 2}
CHILD_TIMEOUT_S = 60.0  # ten times a slow pass
# Untraced/traced pass pairs in a traced run: about as long as a timed run.
TRACE_REPEATS = {"cli_jobs": 1, "quad_sweep": 2, "mc_sample": 1}
CLI_WARMUP_JOBS = 3


class BenchError(Exception):
    """The benchmark itself could not run (not a failed op)."""


@dataclass(frozen=True)
class Child:
    code: int
    stdout: str
    stderr: str
    cpu_s: float
    maxrss_mib: float


def run_child(argv: list[str], env: dict, tmp: Path) -> Child:
    """Run a process to completion; its own CPU time and peak RSS come
    from wait4 (rusage of this child only)."""
    with tempfile.TemporaryFile(dir=tmp) as out, tempfile.TemporaryFile(dir=tmp) as err:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read().decode(), err.read().decode(),
                     usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


def last_json(child: Child, what: str) -> dict:
    if child.code != 0:
        raise BenchError(f"{what} exited {child.code}: {child.stderr.strip()[-2000:]}")
    return json.loads(child.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Environment

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _sysconf(name: str) -> int | None:
    try:
        value = os.sysconf(name)
    except (ValueError, OSError):
        return None
    return value if value > 0 else None


def _l3_size() -> str:
    try:
        return Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return res.stdout.strip() or "unknown"


def environment() -> dict:
    pages, page_size = _sysconf("SC_PHYS_PAGES"), _sysconf("SC_PAGE_SIZE")
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "l3": _l3_size(),
        "ram_bytes": pages * page_size if pages and page_size else None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# Passes.  A pass runs a workload's op list once; a run repeats the same
# pass, each time in fresh processes, and takes each op's median time.

@dataclass
class Pass:
    times: list[float]      # per op, in pass order
    failures: list[dict]
    attempted: int          # ops checked, warm-up included
    peak_rss_mib: float
    spans: list[dict]
    speed_samples: list[float]  # calibration kernel CPU times (speed.py)


def cli_run(seed: int, env: dict, tmp: Path, stream: int, traced: bool = False,
            limit: int | None = None) -> Pass:
    entry = [str(BENCH / "traced_cli.py")] if traced else ["-m", "revolve.cli"]
    out = Pass([], [], 0, 0.0, [], [])
    for i, job in enumerate(cli_pass(seed, stream)[:limit]):
        label = f"cli_jobs seed={seed} stream={stream} #{i} {job.fixture} {job.command}"
        child = run_child(python(*entry, *job.argv()), env, tmp)
        out.attempted += 1
        out.times.append(child.cpu_s)
        out.peak_rss_mib = max(out.peak_rss_mib, child.maxrss_mib)
        reason = cli_error(job.fixture, job.command, child.code, child.stdout)
        if reason is not None:
            out.failures.append({"op": label, "input": " ".join(job.argv()),
                                 "reason": f"{reason}; stderr: {child.stderr.strip()[-300:]}"})
        if traced:
            lines = [ln for ln in child.stderr.splitlines() if ln.startswith(SPANS_PREFIX)]
            if not lines:
                raise BenchError(f"traced job {label} left no spans: {child.stderr[-500:]}")
            out.spans.append(json.loads(lines[-1][len(SPANS_PREFIX):]))
    return out


def worker_run(workload: str, seed: int, env: dict, tmp: Path, traced: bool = False) -> Pass:
    flags = ["--trace"] if traced else []
    child = run_child(python(str(BENCH / "worker.py"), workload, "--seed", str(seed), *flags),
                      env, tmp)
    res = last_json(child, f"{workload} worker")
    spans = [res["spans"]] if "spans" in res else []
    return Pass(res["times"], res["failures"], len(res["times"]) + res["warmup_ops"],
                child.maxrss_mib, spans, res["speed_samples"])


def one_pass(workload: str, seed: int, env: dict, tmp: Path, traced: bool = False) -> Pass:
    if workload == "cli_jobs":
        return cli_run(seed, env, tmp, TIMED_STREAM, traced)
    return worker_run(workload, seed, env, tmp, traced)


def warm_up(workload: str, seed: int, env: dict, tmp: Path) -> Pass:
    """CLI jobs warm the file cache here; workers warm up in-process."""
    if workload == "cli_jobs":
        return cli_run(seed, env, tmp, WARMUP_STREAM, limit=CLI_WARMUP_JOBS)
    return Pass([], [], 0, 0.0, [], [])


def op_times(passes: list[Pass]) -> list[float]:
    """Each op's median time over the passes."""
    return [statistics.median(ts) for ts in zip(*(p.times for p in passes))]


def normalized(workload: str, passes: list[Pass]) -> list[Pass]:
    """The passes with each op time divided by its pass's speed factor, so
    that a pass in a slow phase of the machine counts like one in a fast
    phase even when the phase changes within a run."""
    return [replace(p, times=[t / speed_factor(workload, p.speed_samples) for t in p.times])
            for p in passes]


def median_setup_s(workload: str, seed: int, env: dict, tmp: Path) -> float:
    argv = python(str(BENCH / "worker.py"), workload, "--seed", str(seed), "--setup")
    cpu = []
    # The first, untimed run fills the bytecode cache of a fresh checkout.
    for _ in range(1 + SETUP_REPEATS):
        child = run_child(argv, env, tmp)
        if child.code != 0:
            raise BenchError(f"set-up failed: {child.stderr.strip()[-2000:]}")
        cpu.append(child.cpu_s)
    return statistics.median(cpu[1:])


def import_times(env: dict, tmp: Path) -> tuple[float, float]:
    """(bare interpreter start-up, in-process ``import revolve``), medians."""
    startup, imports = [], []
    probe = "import time; t = time.process_time(); import revolve; print(time.process_time() - t)"
    for _ in range(SETUP_REPEATS):
        startup.append(run_child(python("-c", "pass"), env, tmp).cpu_s)
        imports.append(float(last_json(run_child(python("-c", probe), env, tmp), "import probe")))
    return statistics.median(startup), statistics.median(imports)


# ---------------------------------------------------------------------------
# Metrics

def end_to_end(workload: str, seed: int, seconds: float, env: dict, tmp: Path):
    start = time.perf_counter()
    setup_s = median_setup_s(workload, seed, env, tmp)
    warm = warm_up(workload, seed, env, tmp)
    timed: list[Pass] = []
    for _ in range(PASSES[workload]):
        if timed and time.perf_counter() - start > seconds:
            break
        timed.append(one_pass(workload, seed, env, tmp))
    raw, times = op_times(timed), op_times(normalized(workload, timed))
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_p90": (statistics.quantiles(times, n=10, method="inclusive")[8], "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (max(p.peak_rss_mib for p in timed), "MiB"),
    }
    factors = [speed_factor(workload, p.speed_samples) for p in timed]
    notes = [f"{len(times)} ops per pass, each timed {len(timed)} of {PASSES[workload]} times in "
             f"fresh processes; op_s_* and ops_per_s use each op's median CPU time; setup_s is "
             f"the median of {SETUP_REPEATS} fresh set-ups",
             f"speed factor per pass {factors!r}; op times are divided by it; raw CPU times: "
             f"op_s_p50 {statistics.median(raw)!r}, "
             f"op_s_p90 {statistics.quantiles(raw, n=10, method='inclusive')[8]!r}, "
             f"ops_per_s {len(raw) / sum(raw)!r}"]
    return [warm, *timed], metrics, notes


def per_layer(workload: str, seed: int, env: dict, tmp: Path):
    warm = warm_up(workload, seed, env, tmp)
    plain, traced = [], []
    for i in range(TRACE_REPEATS[workload]):
        # Alternate which side goes first, so an order effect cancels.
        for side in ((False, True) if i % 2 == 0 else (True, False)):
            (traced if side else plain).append(one_pass(workload, seed, env, tmp, traced=side))
    startup_s, import_s = import_times(env, tmp)
    metrics = {
        "import.python_startup_s": (startup_s, "s"),
        "import.revolve_s": (import_s, "s"),
        **layer_metrics(merge([s for p in traced for s in p.spans])),
        "trace.overhead_ratio": (sum(op_times(normalized(workload, traced)))
                                 / sum(op_times(normalized(workload, plain))), "ratio"),
        "bench.speed_factor": (speed_factor(workload, [s for p in plain + traced
                                                        for s in p.speed_samples]), "ratio"),
    }
    notes = [f"{len(traced)} traced and {len(plain)} untraced pass(es) of {len(traced[0].times)} "
             f"ops, in alternating order; per-op values are totals over the traced ops divided by their "
             f"count; trace.overhead_ratio compares the sums of the ops' traced and untraced times, "
             f"each divided by its pass's speed factor; "
             f"import times are medians of {SETUP_REPEATS} fresh interpreters; layer times "
             f"are CPU seconds (import) or wall seconds (spans), not divided by "
             f"bench.speed_factor"]
    return [warm, *plain, *traced], metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/revolve/__init__.py", "fixtures") if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a revolve checkout, missing {missing} under {ROOT}", file=sys.stderr)
        return 2

    env = child_env()
    tmp = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT))
    try:
        if args.trace:
            passes, metrics, notes = per_layer(args.workload, args.seed, env, tmp)
        else:
            passes, metrics, notes = end_to_end(args.workload, args.seed, args.seconds, env, tmp)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        tmp.rmdir()

    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    failed = len(failures)
    print(f"revolve benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(environment()))
    for note in notes:
        print("note: " + note)
    print(f"failed_ratio {failed / attempted!r} ({failed} of {attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value!r} {unit}")
    for f in failures:
        print(f"FAILED {f['op']}: {f['reason']}; input: {json.dumps(f['input'])}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
