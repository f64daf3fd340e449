"""Machine-speed calibration: a fixed kernel timed between operations.

The machines this benchmark runs on are shared virtual CPUs whose speed
drifts: on a 2-vCPU Xeon VM the same solve took 2.5 ms in one 5-second
window and 4.6 ms in the next, and whole 35-second runs came out 35 % apart.
Process CPU time drifts the same way, so it is no remedy. To keep runs
comparable, `SpeedTrack` times `kernel()` every `EVERY_S` seconds between
operations (never inside one), and `scale` converts an operation's wall
time to the time it would take on a machine where the kernel takes
`REFERENCE_S`: wall time * REFERENCE_S / (the median kernel time of the
`NEAREST` samples closest in time).

The kernel is shaped like the solver's hot path (a Python loop of small
logit blocks filling a dense 424 x 424 Jacobian, then one LU solve) but
calls numpy only, never modal-market. A change to modal-market therefore
moves scaled times in full; a change of machine speed moves kernel and
operation together and cancels. What it cannot cancel is a slowdown that
the program under test inflicts on the kernel, for example by leaving busy
threads behind; such a change shows only in the raw times, which run.py
prints beside the scaled ones.
"""
from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Kernel wall time on the reference machine; scaled times are in its units.
REFERENCE_S = 0.010
#: Seconds between kernel samples during a measured run.
EVERY_S = 0.25
#: Kernel samples whose median gives the speed at one instant.
NEAREST = 5

_N = 200
_DIM = 2 * _N + 24
_rng = np.random.default_rng(0)
_UTIL = _rng.standard_normal((_N, 3))
_Y = 0.1 * _rng.standard_normal(_DIM)
_NODE = _rng.integers(0, 24, _N)
_RHS = _rng.standard_normal(_DIM)


def kernel() -> np.ndarray:
    """Fixed work: per-block logit shares into a dense matrix, then one solve."""
    jac = np.zeros((_DIM, _DIM))
    for k in range(_N):
        u = _UTIL[k] - np.array([_Y[2 * k], _Y[2 * k + 1], 0.0])
        e = np.exp(u - u.max())
        p = e / e.sum()
        jac[2 * k:2 * k + 2, 2 * k:2 * k + 2] += np.outer(p[:2], p[:2])
        j = 2 * _N + _NODE[k]
        jac[j, 2 * k] += p[0]
        jac[2 * k, j] += p[0]
    jac[np.diag_indices(_DIM)] += _DIM
    return np.linalg.solve(jac, _RHS)


class SpeedTrack:
    """Kernel timings over a run, and the scaling they imply."""

    def __init__(self) -> None:
        kernel()  # the first call pays for imports and cold caches
        self.at: list[float] = []
        self.seconds: list[float] = []
        self._last = -float("inf")

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.at.append(0.5 * (start + end))
        self.seconds.append(end - start)
        self._last = end

    def maybe_sample(self) -> None:
        """Sample if EVERY_S has passed since the last sample."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def local_seconds(self, at: float) -> float:
        """Median kernel time of the NEAREST samples closest to `at`."""
        n = len(self.at)
        if n == 0:
            raise ValueError("no kernel samples")
        i = bisect.bisect_left(self.at, at)
        lo, hi = max(0, i - NEAREST), min(n, i + NEAREST)
        window = sorted(range(lo, hi), key=lambda k: abs(self.at[k] - at))[:NEAREST]
        return statistics.median(self.seconds[k] for k in window)

    def scale(self, start: float, seconds: float) -> float:
        """Wall time of an interval starting at `start`, at reference speed."""
        return seconds * REFERENCE_S / self.local_seconds(start + 0.5 * seconds)
