"""The host's speed, sampled between items, to put item times on one scale.

On a shared VM the speed of the core that runs the benchmark can drift by
up to a factor of two for stretches of seconds to minutes, with no steal
time seen by the guest (measured on a 2-core 2.1 GHz Xeon VM).  A fixed
kernel, independent of the library, is timed every SAMPLE_EVERY_S between
items, after one untimed call that refills the caches the last item
evicted.  An item's measured time is multiplied by REFERENCE_S over the
median kernel time of the WINDOW samples on each side of it, which gives
its time at the reference speed: the speed at which the kernel takes
REFERENCE_S.

The kernel mixes what the library spends its time on: small int64 numpy
products and row reductions mod a prime, and Python loops that box the
entries into tuples and look them up in a dict.
"""

import bisect
import statistics
import time

import numpy as np

SAMPLE_EVERY_S = 0.03
WINDOW = 4
# about the kernel's time on a 2-core 2.1 GHz Xeon VM at its faster speed,
# so that times at the reference speed read close to that host's best
REFERENCE_S = 0.0005

_SQUARE = (np.arange(64, dtype=np.int64).reshape(8, 8) * 3 + 1) % 7
_WIDE = (np.arange(60, dtype=np.int64).reshape(6, 10) * 5 + 3) % 7


def _row_reduce(a, p: int):
    """Reduced row echelon form of `a` mod p and its pivot columns."""
    a = a.copy()
    pivots = []
    for c in range(a.shape[1]):
        r = len(pivots)
        below = np.nonzero(a[r:, c])[0]
        if below.size == 0:
            continue
        k = r + int(below[0])
        if k != r:
            a[[r, k]] = a[[k, r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, p)) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        if len(pivots) == a.shape[0]:
            break
    return a, tuple(pivots)


def kernel() -> int:
    m, total, seen = _SQUARE, 0, {}
    for _ in range(12):
        m = (m @ _SQUARE) % 7
        for i in range(8):
            row = tuple(int(x) for x in m[i])
            seen[row] = seen.get(row, 0) + 1
            total += sum(row)
    w = _WIDE
    for t in range(10):
        w = (w * 3 + t) % 7
        reduced, pivots = _row_reduce(w, 7)
        seen[tuple(map(tuple, reduced.tolist()))] = pivots
    return total + len(seen)


class Gauge:
    """Kernel samples of one process, in time order."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._last = float("-inf")

    def sample(self, force: bool = False) -> None:
        """Time the kernel, if SAMPLE_EVERY_S has passed since the last
        sample or `force` is set."""
        if not force and time.perf_counter() - self._last < SAMPLE_EVERY_S:
            return
        kernel()   # untimed: refills the caches the last item evicted
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.durations.append(end - start)
        self._last = end

    def factor(self, at: float) -> float:
        """Reference speed over the speed around time `at`: the WINDOW
        samples before `at` and the WINDOW after it."""
        j = bisect.bisect_right(self.starts, at)
        window = self.durations[max(0, j - WINDOW):j + WINDOW]
        return REFERENCE_S / statistics.median(window)

    def median_factor(self) -> float:
        return REFERENCE_S / statistics.median(self.durations)
