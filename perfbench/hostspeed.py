"""The host's speed, from a fixed kernel timed between the items.

The benchmark runs on shared hosts whose speed moves by tens of percent
over minutes, so one run can meet a host half again as slow as the next.
A run therefore times a fixed pure-Python kernel between its items, for a
set share of the item time, and divides each item run's time by the host
factor around it: the kernel's mean time per call near the item run, over
its time on the reference host.  The times then read as on the reference
host.

The kernel does the kind of work sepdepth does, in the benchmark's own code
on constant inputs: Gaussian elimination over ``Fraction`` (the dense and
sparse solvers) and the closure of permutation tuples under composition
(the group enumeration).  No sepdepth code runs in it, so a change to
sepdepth moves the item times but not the host factor.

This module does not import sepdepth.
"""

import random
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

clock = time.perf_counter

# The reference host is one on which a ``kernel()`` call takes this long,
# about its mean inside the workload processes on the 2-core shared x86-64
# virtual machine the benchmark was written on (CPython 3.11).
REFERENCE_S = 0.008

# Share of the item time the kernel takes, after each item run.
SHARE = 0.15

# An item run's host factor reads the kernel calls within the run's own
# length, and at least this long, before and after it.
WINDOW_S = 1.0


def _inputs():
    """The kernel's constant inputs: a 9 x 11 matrix of small integers as
    ``Fraction``, and two permutations of 7 points."""
    rng = random.Random(1)
    matrix = [[Fraction(rng.randint(-3, 3)) for _ in range(11)]
              for _ in range(9)]
    generators = []
    for _ in range(2):
        perm = list(range(7))
        rng.shuffle(perm)
        generators.append(tuple(perm))
    return matrix, generators


_MATRIX, _GENERATORS = _inputs()


def _eliminate(rows):
    """Reduced row echelon form of a copy of ``rows``."""
    m = [list(row) for row in rows]
    r = 0
    for c in range(len(m[0])):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return m


def _closure(generators, limit):
    """Up to ``limit`` elements of the group the permutations generate."""
    identity = tuple(range(len(generators[0])))
    seen, frontier = {identity}, [identity]
    while frontier and len(seen) < limit:
        grown = []
        for a in frontier:
            for g in generators:
                b = tuple(a[i] for i in g)
                if b not in seen:
                    seen.add(b)
                    grown.append(b)
        frontier = grown
    return seen


def kernel():
    """One call of the fixed work; 8 ms on the reference host."""
    _eliminate(_MATRIX)
    _closure(_GENERATORS, 3000)


class HostMeter:
    """Kernel calls between item runs, and the host factor they give."""

    share = SHARE

    def __init__(self):
        self.work_s = self.kernel_s = 0.0
        self.starts, self.durations = [], []

    def after(self, work_s):
        """Count ``work_s`` of item time, then call the kernel until it has
        taken its share of all item time so far (once at least)."""
        self.work_s += work_s
        while not self.starts or self.kernel_s < self.share * self.work_s:
            t0 = clock()
            kernel()
            took = clock() - t0
            self.kernel_s += took
            self.starts.append(t0)
            self.durations.append(took)

    def factor(self):
        """Mean kernel time per call over its time on the reference host."""
        return self.kernel_s / len(self.durations) / REFERENCE_S

    def factor_around(self, start, end):
        """The host factor of the kernel calls near an item run from
        ``start`` to ``end``; the whole run's factor if none is near."""
        width = max(WINDOW_S, end - start)
        lo = bisect_left(self.starts, start - width)
        hi = bisect_right(self.starts, end + width)
        if lo == hi:
            return self.factor()
        return statistics.fmean(self.durations[lo:hi]) / REFERENCE_S
