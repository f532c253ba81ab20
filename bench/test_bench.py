"""Tests of the benchmark itself: seeded inputs repeat, other seeds differ,
traced counts repeat, and the closed-form references hold together.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from inputs import (  # noqa: E402
    FIXTURES, TIMED_STREAM, WARMUP_STREAM, Moments, cli_pass, mc_pass, quad_pass,
    reference_volume,
)
from spans import SPANS_PREFIX  # noqa: E402

PASSES = {"quad_sweep": quad_pass, "mc_sample": mc_pass, "cli_jobs": cli_pass}


def _inputs(workload: str, seed: int) -> str:
    items = PASSES[workload](seed, 0)
    if workload == "cli_jobs":
        return json.dumps([job.argv() for job in items])
    return json.dumps([case.doc for case in items])


@pytest.mark.parametrize("workload", sorted(PASSES))
def test_same_seed_gives_identical_inputs(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)


@pytest.mark.parametrize("workload", sorted(PASSES))
def test_other_seed_gives_other_inputs(workload):
    assert _inputs(workload, 7) != _inputs(workload, 8)


def test_warmup_ops_share_no_region_with_timed_ops():
    docs = [json.dumps(case.doc["region"])
            for stream in (TIMED_STREAM, WARMUP_STREAM) for case in quad_pass(3, stream)]
    # Three axes per region, so each region doc appears exactly three times.
    assert all(docs.count(d) == 3 for d in docs)


def _child(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH.parent / "src"), str(BENCH)]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=BENCH.parent, timeout=120, check=True)


# One traced pass of a workload in a fresh process; mc_sample at 1/40 of
# its samples, which leaves its code paths as they are.
_TRACED_PASS = """
import json, sys
from dataclasses import replace
import worker
from spans import Tracer, install, summary
wl = worker.WORKLOADS[sys.argv[1]]
cases = wl.make_pass(5, 0)
if sys.argv[1] == "mc_sample":
    cases = [replace(c, doc={**c.doc, "mc": {**c.doc["mc"], "samples": 100_000}}) for c in cases]
tracer = Tracer()
install(tracer)
failures = []
worker.run_pass(wl, cases, "test", tracer, [], failures)
print(json.dumps({"failures": failures, "counts": summary(tracer)["counts"]}))
"""


@pytest.mark.parametrize("workload, count", [
    ("quad_sweep", "quadrature.integrate_1d.evals"),
    ("mc_sample", "region.contains_mask.points"),
])
def test_traced_counts_repeat_for_a_seed(workload, count):
    def counts():
        out = _child("-c", _TRACED_PASS, workload).stdout
        return json.loads(out.splitlines()[-1])

    first = counts()
    assert first["failures"] == []
    assert first["counts"][count] > 0
    assert first == counts()


def test_traced_cli_job_repeats_counts_and_output():
    def job():
        res = subprocess.run(
            [sys.executable, str(BENCH / "traced_cli.py"), "compare", "--config",
             "fixtures/torus_circle.json", "--mc-samples", "1000"],
            capture_output=True, text=True, cwd=BENCH.parent, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(BENCH.parent / "src")))
        line = [ln for ln in res.stderr.splitlines() if ln.startswith(SPANS_PREFIX)][-1]
        report = json.loads(res.stdout)
        values = [(r["method"], r["value"]) for r in report["reports"]]
        return res.returncode, values, json.loads(line[len(SPANS_PREFIX):])["counts"]

    first = job()
    assert first[0] == 0
    assert first[2]["methods.compare.calls"] == 1
    assert first == job()


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_closed_forms_satisfy_pappus(name):
    ref = FIXTURES[name]
    if ref.volume is None:
        return
    m = Moments(ref.area, ref.area * ref.centroid[0], ref.area * ref.centroid[1])
    value, _ = reference_volume(m, ref.axis)
    assert math.isclose(value, ref.volume, rel_tol=1e-14)
