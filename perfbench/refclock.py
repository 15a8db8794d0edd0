"""Timing rescaled by a reference kernel, for shared and noisy machines.

On a host shared with other tenants the same single-threaded code can run
30-50 % slower for tens of seconds at a time, with no change in CPU time
against wall time: the core itself is slower. Medians over a run do not
remove that, so two runs of the same code can differ by more than any
useful regression bound.

``RefClock`` times a fixed reference kernel (a pure-Python loop plus a few
small float32 matmuls, about the mix the program runs) every
``INTERVAL_S`` seconds during a run. ``scaled(a, b)`` is the time from
``a`` to ``b``, without the time spent in the kernel itself, with each
stretch between two kernel samples divided by how slow the kernel ran
around it: the time the interval would take on a machine where the kernel
takes ``NOMINAL_S``. ``NOMINAL_S`` only sets the unit: it is the kernel's
time on an idle core of the 2-core x86-64 machine the benchmark was
written on, so scaled times read close to wall times there, and it cancels
when two runs on one machine are compared.

The kernel runs in the same process as the program, so a change that
moves the program's cache or heap footprint can also move the kernel's
speed, and part of that change's effect is divided out.
``median_slowdown`` is reported with every run so that such a shift, or a
run where the correction is large, shows.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
NOMINAL_S = 0.00105
SMOOTH = 5                   # kernel samples in each speed estimate


def reference_kernel(x: np.ndarray, w: np.ndarray) -> int:
    total = 0
    seen = set()
    for i in range(1500):
        total += (i * 7919) % 1009
        seen.add(total % 4096)
    for _ in range(4):
        x = np.tanh(x @ w) + 0.5
    return total + len(seen) + int(x[0, 0] > 0)


class RefClock:
    """Reference-kernel samples taken during one run."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.random((200, 200), dtype=np.float32)
        self._w = rng.random((200, 200), dtype=np.float32) * np.float32(0.01)
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._slowdowns: list[float] = []

    def sample(self) -> float:
        """Time the kernel once; returns the time it finished."""
        start = time.perf_counter()
        reference_kernel(self._x, self._w)
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        return end

    def due(self, now: float) -> bool:
        return not self.ends or now - self.ends[-1] >= INTERVAL_S

    def slowdowns(self) -> list[float]:
        """Per sample: median kernel time of its neighbourhood over ``NOMINAL_S``."""
        if len(self._slowdowns) != len(self.starts):
            took = [end - start for start, end in zip(self.starts, self.ends)]
            half = SMOOTH // 2
            self._slowdowns = [statistics.median(took[max(0, i - half):i + half + 1]) / NOMINAL_S
                               for i in range(len(took))]
        return self._slowdowns

    def scaled(self, a: float, b: float) -> float:
        """Seconds in ``[a, b]`` outside kernel samples, at nominal speed."""
        slow = self.slowdowns()
        if not slow:
            raise ValueError("no reference samples taken")
        total = 0.0
        # gap k runs from the end of sample k-1 to the start of sample k
        k = max(0, bisect.bisect_right(self.ends, a))
        while k <= len(slow):
            lo = self.ends[k - 1] if k > 0 else a
            hi = self.starts[k] if k < len(slow) else b
            if lo >= b:
                break
            if k == 0:
                factor = slow[0]
            elif k == len(slow):
                factor = slow[-1]
            else:
                factor = (slow[k - 1] + slow[k]) / 2
            overlap = min(b, hi) - max(a, lo)
            if overlap > 0:
                total += overlap / factor
            k += 1
        return total

    def median_kernel_s(self) -> float:
        return statistics.median(end - start for start, end in zip(self.starts, self.ends))

    def median_slowdown(self) -> float:
        """Median kernel time of the run over ``NOMINAL_S``."""
        return self.median_kernel_s() / NOMINAL_S
