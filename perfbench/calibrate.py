"""Machine-speed calibration for the benchmark's timings.

The virtual machines this benchmark runs on change speed by up to 3x, over
spans from a second to a minute, with no steal time to show for it: the
same walk took 2.8 s and 4.5 s less than a minute apart, and a fixed
kernel took 0.058 s and 0.086 s three seconds apart. So while a timed call
runs, a second thread runs a tiny fixed kernel every PERIOD_S seconds and
times it in its own CPU time. The kernel does not use the package; it does
the kind of work the solver does (interpreted Python, small numpy
operations, a 25x25 LU factorization and solve, solves with a factored
100x100 matrix). A call's scaled time is its raw time times NOMINAL_S over
the trimmed mean kernel time during the call: the call's time at a fixed
machine speed. Both threads are pinned to one CPU while measuring, because
the two vCPUs can run at different speeds.

Each sample runs the kernel twice and times only the second run. The first
run finds the caches holding the timed call's data and refills them. Timed
cold, the kernel took 30% to 50% longer, and longer the more memory the
call touched, so a change that grew the package's working set read as a
slower machine and part of its cost was scaled away. NOTES.md records
injected slowdowns that the scaled times follow.
"""

from __future__ import annotations

import bisect
import os
import threading
import time

import numpy as np
import scipy.linalg

PERIOD_S = 0.025

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((25, 25)) + 5.0 * np.eye(25)
_x = _rng.standard_normal(25)
# A factored 100x100 system, the size wide-d solves with once per candidate.
# Its 80 KB do not fit the L1 cache, so the kernel also feels slowdowns that
# hit L2-bound work harder; without it, wide-d's scaled times rose when the
# machine slowed.
_LU100 = scipy.linalg.lu_factor(_rng.standard_normal((100, 100)) + 10.0 * np.eye(100))
_y = _rng.standard_normal(100)

# Warm kernel CPU time at nominal speed: a round figure among the kernel's
# times (0.31 to 0.36 ms) seen while the workloads run on the 2-vCPU Xeon
# (2.1 GHz) virtual machine where the benchmark was defined. Scaled times are
# seconds at that speed.
NOMINAL_S = 0.0003


def kernel() -> None:
    """What the solver does: 25x25 LU, small numpy products, Python loops,
    and solves with a factored 100x100 matrix."""
    for _ in range(8):
        lu = scipy.linalg.lu_factor(_A, check_finite=False)
        y = scipy.linalg.lu_solve(lu, _x, check_finite=False)
        float(y @ _x) + sum(k * 0.5 for k in range(40))
    for _ in range(4):
        scipy.linalg.lu_solve(_LU100, _y, check_finite=False)


def _trimmed_mean(values: list[float]) -> float:
    values = sorted(values)
    cut = len(values) // 10
    kept = values[cut : len(values) - cut]
    return sum(kept) / len(kept)


class SpeedSampler:
    """Background kernel timings, and calls timed and scaled by them.

    Use as a context manager; ``time(fn, *args)`` returns
    (result, raw seconds, scaled seconds). The kernel is timed in CPU time
    of its own thread, not wall time: LAPACK releases the GIL, and the wait
    to take it back depends on what the timed call does.
    """

    def __init__(self):
        self._starts: list[float] = []
        self._times: list[float] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            t0 = time.perf_counter()
            kernel()  # refills the caches; only the warm run below is timed
            c0 = time.thread_time()
            kernel()
            dt = time.thread_time() - c0
            with self._lock:
                self._starts.append(t0)
                self._times.append(dt)

    def __enter__(self) -> "SpeedSampler":
        # The two vCPUs can run at different speeds, so the kernel must run
        # on the CPU the timed calls run on: pin this thread, which the
        # sampler thread inherits, to one CPU until exit.
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._affinity)})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._affinity)

    def speed(self, t0: float, t1: float) -> float:
        """Machine speed relative to nominal over [t0, t1], from at least
        three kernel samples; the window widens around short calls."""
        pad = 0.0
        while True:
            with self._lock:
                lo = bisect.bisect_left(self._starts, t0 - pad)
                hi = bisect.bisect_right(self._starts, t1 + pad)
                window = self._times[lo:hi]
            if len(window) >= 3:
                return NOMINAL_S / _trimmed_mean(window)
            if not self._thread.is_alive():
                raise RuntimeError("speed sampler is not running")
            pad += PERIOD_S
            time.sleep(PERIOD_S)

    def time(self, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        t1 = time.perf_counter()
        raw = t1 - t0
        return result, raw, raw * self.speed(t0, t1)
