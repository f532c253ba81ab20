"""Machine-speed calibration of the in-process workloads.

The machine this benchmark was written on (2 vCPUs shared with other
tenants) runs the same compute loops up to 1.6x slower for minutes at a
time, and CPU time slows as much as wall time (the cycles themselves are
slower, the process is not descheduled).  So a worker also times a fixed
kernel that runs no revolve code right after each op, and the parent
divides the op times by the pass's speed factor: the kernel's median CPU
time over the pass divided by its reference time below.  Times reported
this way are seconds at the reference speed; a change to revolve moves
them, a slow phase of the machine much less.

Each workload gets the kernel most like its ops: ``python`` (interpreted
float arithmetic, as in quadrature and expression evaluation) for
quad_sweep, ``numpy`` (element-wise passes over arrays of Monte Carlo
size) for mc_sample.  cli_jobs and every set-up get none: the CPU time of
fresh interpreters moved by at most about 15% over hours in which the
python kernel's moved by 0.7x to 1.1x, and calibrating them only widened
their spread.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median CPU time of one kernel unit on the reference machine: Intel Xeon,
# 2 vCPUs, Python 3.11.7, numpy 2.4.6.
REFERENCE_S = {"python": 0.0030, "numpy": 0.050}

KERNEL = {"quad_sweep": "python", "mc_sample": "numpy"}

# Calibration time as a share of the op time calibrated.
SHARE = 0.1


def _python_unit() -> None:
    s = 0.0
    for i in range(20_000):
        s += (i * 0.5) ** 0.5


def _numpy_unit() -> None:
    # Allocated and freed in each unit, as Monte Carlo does, so that no
    # calibration array stays resident to raise a worker's peak RSS.
    a = np.arange(4_000_000, dtype=np.float64)
    float(np.sqrt(a * a + 1.0).sum())


_UNITS = {"python": _python_unit, "numpy": _numpy_unit}


class Speed:
    """Samples of one calibration kernel, taken as a pass goes along."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.samples: list[float] = []
        self._owed = 0.0
        _UNITS[kernel]()  # untimed: warms the caches

    def after(self, busy_s: float) -> None:
        """Calibrate for SHARE of the time just spent, in whole units; the
        remainder carries over to the next call."""
        ref = REFERENCE_S[self.kernel]
        self._owed += SHARE * busy_s
        while self._owed >= ref / 2:
            t0 = time.process_time()
            _UNITS[self.kernel]()
            self.samples.append(time.process_time() - t0)
            self._owed -= ref


def speed_factor(workload: str, samples: list[float]) -> float:
    """How much slower than the reference the machine was while these
    samples were taken; 1.0 for a workload without a kernel."""
    if workload not in KERNEL:
        return 1.0
    return statistics.median(samples) / REFERENCE_S[KERNEL[workload]]
