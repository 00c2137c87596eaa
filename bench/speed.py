"""The CPU's speed while a child runs, from a fixed reference kernel.

The benchmark's machine is a VM on a shared host, and the host changes its
CPUs' clock with the load of other tenants: within minutes the kernel below
takes from 0.54 to 0.99 ms, and a workload's cold run from 14 to 25 s. Each
CPU changes on its own. The runner pins itself, and so every child it
starts, to one CPU, and a ``SpeedProbe`` thread on that same CPU times
``kernel`` every ``PERIOD_S``. ``normalize`` scales a time measured in a
child to a CPU on which the kernel takes ``REFERENCE_S``.

The kernel does, at a fixed size, the kinds of work the scenarios spend
their time on: a counter-based random stream, the normal quantile of it,
small-array integer arithmetic and a Python loop. It does not call
``logdrift``, so a change to the program cannot change the reference.
"""

from __future__ import annotations

import os
import threading
from statistics import median
from time import perf_counter

import numpy as np
from scipy.special import ndtri

# The kernel's time on the CPU the normalized times refer to: about its
# time on the 2-vCPU Xeon VM at the faster of the clocks seen there, so that
# normalized times read close to wall times on that machine at its fastest.
REFERENCE_S = 0.55e-3
# one sample every PERIOD_S; a sample runs the kernel twice (about 2 ms)
PERIOD_S = 0.05
# fewest samples a time is normalized by
MIN_SAMPLES = 5
# The kernel only computes, so its time follows the clock; the scenarios
# also wait on memory, which the clock does not speed up. Over 32 cold runs
# of the two workloads on the 2-vCPU Xeon VM, log(wall time) against
# log(kernel time) had slope 0.63 on each.
SENSITIVITY = 0.6


def kernel(seed: int) -> int:
    raw = np.random.Philox(np.random.SeedSequence([seed, 1])).random_raw(2048)
    ints = np.zeros(1, dtype=np.int64)
    lo = 1
    while lo < raw.size:
        u = ((raw[lo:2 * lo] >> np.uint64(11)) + 0.5) * 2.0 ** -53
        offs = np.rint(ndtri(u) * 1e3).astype(np.int64)
        kids = np.empty(2 * ints.size, dtype=np.int64)
        kids[0::2] = ints + offs
        kids[1::2] = ints - offs
        ints = kids
        lo *= 2
    total = 0
    for i in range(6000):
        total += (i * i) & 1023
    return int(ints.sum()) + total


def pin_to_one_cpu() -> int:
    """Pin the calling thread, and so the threads and processes it starts
    from now on, to the highest-numbered CPU it may use."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def normalize(wall_s: float, kernel_s: float) -> float:
    """Wall time on a CPU where the kernel takes REFERENCE_S."""
    return wall_s * (REFERENCE_S / kernel_s) ** SENSITIVITY


class SpeedProbe(threading.Thread):
    """Times the kernel every PERIOD_S until ``close``; start it after
    ``pin_to_one_cpu`` so it shares the children's CPU."""

    def __init__(self):
        super().__init__(name="speed-probe", daemon=True)
        self._done = threading.Event()
        self.samples = []  # (start, seconds) of the warm second kernel run

    def run(self):
        seed = 0
        while not self._done.is_set():
            kernel(seed)
            t0 = perf_counter()
            kernel(seed)
            t1 = perf_counter()
            self.samples.append((t0, t1 - t0))
            seed += 1
            self._done.wait(max(0.0, PERIOD_S - 2 * (t1 - t0)))

    def close(self):
        self._done.set()
        self.join()

    def kernel_s(self, start: float, end: float) -> float:
        """Median kernel time of the samples taken in [start, end]
        (``perf_counter`` times, which child processes share), or of the
        MIN_SAMPLES taken nearest to its middle if it holds fewer."""
        samples = list(self.samples)
        window = [s for t, s in samples if start <= t <= end]
        if len(window) < MIN_SAMPLES:
            mid = (start + end) / 2
            nearest = sorted(samples, key=lambda ts: abs(ts[0] - mid))
            window = [s for _, s in nearest[:MIN_SAMPLES]]
        if not window:
            raise RuntimeError("the speed probe took no sample")
        return median(window)
