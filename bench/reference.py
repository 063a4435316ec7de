"""A fixed piece of pure-Python work that gauges the speed of the host.

The benchmark runs on shared hosts whose speed moves by up to a factor of
two over minutes, with the process never descheduled: its CPU time moves
with its wall time, so the slowdown comes from what else the host runs.
No run length averages that out.  So the benchmark times this kernel
between items, and scales each timed metric to a host on which the kernel
takes ``NOMINAL_S``: an item's latency is divided by the host factor, the
kernel's time around it over ``NOMINAL_S``.  The raw figures are printed
beside the scaled ones.

The kernel does the kind of work selcalc does (exact fractions in dicts,
small tuples, recursion), never calls selcalc, so no change to the program
changes its time, and runs with the garbage collector off, so neither does
the size of the program's heap.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# a round figure near the kernel's median time on the 2-CPU x86-64 host
# the benchmark was built on; it only fixes the scale of the metrics
NOMINAL_S = 0.005
WINDOW = 2           # a factor is the median of the probe and 2 on each side

_WEIGHTS = ((0, Fraction(1, 3)), (1, Fraction(1, 2)), (2, Fraction(1, 6)))


def _tree(n: int):
    return ("leaf", n) if n < 2 else ("node", _tree(n - 1), _tree(n - 2))


def _fold(t) -> Fraction:
    if t[0] == "leaf":
        return Fraction(t[1] + 1, 3)
    return _fold(t[1]) + _fold(t[2]) / 2


def kernel() -> tuple:
    """A distribution over sums by repeated weighted binds, and the fold of
    a recursively built tree."""
    dist = {0: Fraction(1)}
    for _ in range(14):
        nxt: dict = {}
        for k, p in dist.items():
            for d, w in _WEIGHTS:
                nxt[k + d] = nxt.get(k + d, 0) + p * w
        dist = nxt
    return sum(dist.values()), _fold(_tree(13))


class Gauge:
    """Probes of the kernel, taken between items."""

    def __init__(self):
        self.samples: list[float] = []
        kernel()  # untimed: the first call is the slowest

    def probe(self) -> None:
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t0)
        finally:
            if was_enabled:
                gc.enable()

    def factor(self, j: int | None = None) -> float:
        """How much slower than nominal the host ran around probe ``j``,
        or over all probes."""
        xs = self.samples if j is None else \
            self.samples[max(0, j - WINDOW):j + WINDOW + 1]
        return statistics.median(xs) / NOMINAL_S
