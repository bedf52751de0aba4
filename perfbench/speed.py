"""Machine-speed reference: times regions against a fixed reference loop.

On a shared host the speed of a core drifts in phases that last from
seconds to minutes (other tenants' load on sibling hardware threads and
shared caches), and a phase can slow every instruction of a whole run by
1.5x or more; CPU time slows with wall time, so it is no way out. No
statistic taken within one run removes a slowdown that covers the whole
run. So every timed region is bracketed by a fixed reference loop, run
just before and just after it, outside the timed region. The reference
is benchmark code that no change to the program touches; it mixes the
kinds of work the program does (float formatting and parsing, dict
building, small numpy products) and allocates almost nothing that the
garbage collector tracks, so interpreter settings that the program might
change barely move it.

A region's reported time is

    REF_S * wall_s / ref_s

where ref_s is the mean of the two reference times around it: its wall
time at the machine speed under which the reference takes REF_S seconds.
REF_S is a fixed constant, the reference's median time on a quiet core
of the machine this benchmark was defined on (an Intel Xeon, 2 vCPUs,
Python 3.11, numpy 2.4 with OpenBLAS pinned to one thread), so on such a
core the reported time is the wall time. The reported time is thus not
the raw wall time of the run: it is the raw wall time corrected by the
measured speed of the machine. Raw wall times and reference times are
kept in the run record, and run.py prints their medians.
"""

import statistics
import time
from contextlib import contextmanager

import numpy as np

REF_S = 0.021  # reference loop time on a quiet core of the defining machine
REUSE_S = 0.005  # a reference taken this recently still brackets the next region

_FLOATS = [float(x) for x in np.random.default_rng(0).standard_normal(25000) * 1e3]
_MAT = np.random.default_rng(1).standard_normal((96, 96))


def reference() -> float:
    """Run the fixed reference work once; return its wall time."""
    start = time.perf_counter()
    text = ["%.9g" % x for x in _FLOATS]
    index = dict(zip(text, range(len(text))))
    total = sum(map(float, text)) + len(index)
    m = _MAT
    for _ in range(80):
        m = np.tanh(m @ _MAT) + _MAT
    total += float(np.char.mod("%.9g", m[:40]).astype(np.float64).sum())
    elapsed = time.perf_counter() - start
    if total != total:  # keeps the work observable; never true
        raise ArithmeticError("reference produced NaN")
    return elapsed


class Clock:
    """Collects [wall_s, ref_s] per region kind."""

    def __init__(self):
        self.samples = {}  # kind -> [[wall_s, ref_s], ...]
        self._last = None  # (ref_s, perf_counter at its end)
        for _ in range(5):  # warm-up
            self._ref()

    def _ref(self) -> float:
        elapsed = reference()
        self._last = (elapsed, time.perf_counter())
        return elapsed

    def _ref_before(self) -> float:
        if time.perf_counter() - self._last[1] < REUSE_S:
            return self._last[0]
        return self._ref()

    @contextmanager
    def timed(self, kind: str):
        before = self._ref_before()
        start = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - start
            ref = (before + self._ref()) / 2.0
            self.samples.setdefault(kind, []).append([wall, ref])

    def walls(self, kind: str) -> list:
        return [w for w, _ in self.samples.get(kind, [])]


def median_normalized(pairs) -> float:
    """The median of the regions' wall times at reference machine speed."""
    return statistics.median(REF_S * wall / ref for wall, ref in pairs)
