"""A fixed piece of work that measures how fast the host is right now.

Shared hosts slow this benchmark down by up to 1.6x, for seconds to
minutes at a time, while other tenants are busy; a whole run can fall in
a slow spell. Untraced reps therefore run this work between ticks, at
most once per ``PERIOD_NS``, and ``run.py`` divides each part of a run by
the time of the calibration nearest to it. The work does not use the
package, so no change to the package moves it. Its three parts are shaped
like the workloads' hot loops: interpreted Python, numpy calls on small
arrays, and numpy over a 1 000 x 1 000 matrix.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

PERIOD_NS = 250_000_000
# near one calibration's time on a 2-vCPU Xeon host (5.5-8.6 ms measured); only scales the results
REFERENCE_S = 0.008


class Calibration:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.small = rng.random(200)
        self.line = rng.random(1000)
        # allocated once and touched by a first run, so the peak RSS holds exactly ``nbytes`` of them
        self.square = np.empty((1000, 1000))
        self.mask = np.empty((1000, 1000), bool)
        self.nbytes = self.square.nbytes + self.mask.nbytes
        self()

    def __call__(self) -> int:
        """Run the work once; its duration in nanoseconds."""
        t0 = perf_counter_ns()
        counts: dict[int, int] = {}
        for i in range(10_000):
            counts[i & 255] = counts.get(i & 255, 0) + i
        x = self.small
        for _ in range(5):
            np.count_nonzero(np.hypot(x[:, None] - x[None, :], x[None, :] - x[:, None]) < 0.1)
        np.subtract(self.line[:, None], self.line[None, :], out=self.square)
        np.multiply(self.square, self.square, out=self.square)
        np.less(self.square, 1e-4, out=self.mask)
        np.count_nonzero(self.mask)
        return perf_counter_ns() - t0
