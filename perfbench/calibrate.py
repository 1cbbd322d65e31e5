"""Machine-speed probe for the benchmark's timed passes.

The benchmark runs on shared virtual machines whose speed swings by up to
1.6 times within seconds to minutes (NOTES.md, Noise).  Plain times follow
those swings, so a pass also measures how fast the machine was.  While a
pass runs, a Sampler interrupts it every INTERVAL_S seconds of wall time
(SIGALRM) and times kernel(), a fixed piece of pure-Python work of the
kind the library does: composing permutations held as tuples and storing
them in a dict.  The kernel's time measures how fast the machine was at
that moment.  A time
is then reported at reference speed:

    net time x REFERENCE_S / mean kernel time around that interval

where net time leaves out the time spent in the probe itself.  The kernel
does not touch the library, so a change to the library moves the
normalised times exactly as it moves the plain ones.
"""

from __future__ import annotations

import bisect
import gc
import random
import resource
import signal
import time

# wall time between the end of one probe and the start of the next
INTERVAL_S = 0.04
# the kernel's median time on the 2-vCPU Xeon VM the benchmark was written
# on; a constant, so it cancels when two commits are compared
REFERENCE_S = 0.0021
# an interval shorter than the probe spacing borrows this many probes on
# each side of it
NEIGHBOURS = 2

_rng = random.Random(5)
_DEGREE = 48
_GENERATORS = [tuple(_rng.sample(range(_DEGREE), _DEGREE)) for _ in range(3)]
_ELEMENTS = 450


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def kernel() -> int:
    """Breadth-first closure of three fixed permutations up to _ELEMENTS
    elements; always the same work."""
    seen = {_GENERATORS[0]: 0}
    frontier = [_GENERATORS[0]]
    while frontier and len(seen) < _ELEMENTS:
        p = frontier.pop()
        for g in _GENERATORS:
            q = tuple(p[i] for i in g)
            if q not in seen:
                seen[q] = len(seen)
                frontier.append(q)
    return len(seen)


class Sampler:
    """Runs the kernel every INTERVAL_S seconds between start() and
    stop(), and keeps its net clocks: wall and CPU time without the time
    spent in the kernel."""

    def __init__(self):
        self.mids: list[float] = []       # perf_counter midpoint of each probe
        self.durations: list[float] = []  # its wall time
        self.paused = 0.0
        self.paused_cpu = 0.0
        self.running = False
        self.started = None

    def _tick(self, signum, frame) -> None:
        # the kernel's allocations must not set off a collection of the
        # library's heap, which would time the heap instead of the machine
        collecting = gc.isenabled()
        gc.disable()
        t0, c0 = time.perf_counter(), _cpu()
        kernel()
        c1, t1 = _cpu(), time.perf_counter()
        if collecting:
            gc.enable()
        self.mids.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)
        self.paused += t1 - t0
        self.paused_cpu += c1 - c0
        if self.running:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self) -> None:
        self.running = True
        self.started = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        self.running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def probe(self, count: int) -> None:
        """Run the kernel `count` times now, as if the timer had fired."""
        for _ in range(count):
            self._tick(None, None)

    def now(self) -> tuple[float, float]:
        """(raw perf_counter, net wall clock)."""
        t = time.perf_counter()
        return t, t - self.paused

    def net_clock(self) -> float:
        """Wall clock that stands still while the kernel runs."""
        return time.perf_counter() - self.paused

    def cpu(self) -> float:
        """Net user plus system CPU time of the process."""
        return _cpu() - self.paused_cpu

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time of the probes inside the
        raw interval [start, end] and NEIGHBOURS probes on either side."""
        lo = max(0, bisect.bisect_left(self.mids, start) - NEIGHBOURS)
        hi = min(len(self.mids), bisect.bisect_right(self.mids, end) + NEIGHBOURS)
        if lo >= hi:
            raise ValueError("no speed probe was taken")
        window = self.durations[lo:hi]
        return REFERENCE_S * len(window) / sum(window)
