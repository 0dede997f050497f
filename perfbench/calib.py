"""Host-speed calibration for the benchmark's timings.

On a shared host the same pure-Python work can take 1.0x to 1.6x its fastest
time, in spells of seconds to minutes, and process CPU time rises with wall
time, so neither is a steady measure of the program.  Each measuring process
therefore runs a fixed reference kernel from a timer signal every
`INTERVAL_S` while it measures: the kernel's duration near a timed call says
how fast the host ran then.  A call's calibrated time is its wall time, less
the handler's time inside it, scaled by `REFERENCE_S / (kernel time near the
call)`: the time the call takes on a host that runs the kernel in
`REFERENCE_S`, about what a quiet 2-vCPU Xeon host does.  The kernel is fixed
code of the benchmark, not speckit's, so a change to speckit moves
calibrated times as it moves wall time on a steady host.

The kernel mixes the kinds of work speckit does: interpreter loops, string
and dict operations, regular expressions, set algebra, sorting with a key
function and JSON decoding.  Each tick runs it twice and times the second
run: the first refills the caches the interrupted call had taken over, and
its time followed that call more than the host (correlation 0.38 against
0.98 for the second, over repeated index builds).  On a 2-vCPU shared host,
over ten seeds, the median calibrated index build spread 0.02-0.04
(interquartile range over median); the fastest wall time had spread
0.23-0.30.  A kernel on the other core is no use: the two vCPUs' speeds were
uncorrelated.
"""

from __future__ import annotations

import json
import random
import re
import signal
import time
from array import array
from bisect import bisect_left, bisect_right

INTERVAL_S = 0.03
REFERENCE_S = 0.0008  # nominal kernel time; sets the scale of calibrated times
WARMUP = 50

_rng = random.Random(20240602)
_WORDS = ["".join(_rng.choice("abcdefghijklmnop") for _ in range(_rng.randint(2, 9))) for _ in range(600)]
_TEXTS = [" ".join(_rng.choice(_WORDS) for _ in range(25)) for _ in range(20)]
_DOC = json.dumps([{"id": i, "text": _TEXTS[i % 20], "tags": [i, str(i)]} for i in range(30)])
_WORD_RE = re.compile(r"[a-z]+")


def kernel() -> int:
    """A fixed mix of interpreter work; just under a millisecond on a quiet 2-vCPU host."""
    n = 0
    for i in range(2000):
        n += i * i % 7
    counts: dict[str, int] = {}
    for w in _WORDS:
        counts[w] = counts.get(w, 0) + 1
    sets = [frozenset(_WORD_RE.findall(t.upper().lower())) for t in _TEXTS]
    for a in sets[:10]:
        for b in sets[10:]:
            n += len(a & b) * 100 // len(a | b)
    n += len(json.loads(_DOC))
    n += len(sorted(counts, key=lambda w: (counts[w], w)))
    return n


class Clock:
    """Runs the kernel from SIGALRM and converts wall times to calibrated times."""

    def __init__(self) -> None:
        self.at = array("d")  # kernel midpoints, perf_counter seconds
        self.took = array("d")  # kernel durations
        self.spent = 0.0  # seconds spent in the signal handler so far
        self._previous = None
        self._ticking = False

    def _tick(self, signum, frame) -> None:
        if self._ticking:  # the next alarm came while the kernel ran
            return
        self._ticking = True
        begun = time.perf_counter()
        # The first run refills the caches the interrupted call took over;
        # its time says more about that call than about the host.
        kernel()
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self.spent += time.perf_counter() - begun
        self._ticking = False

    def start(self) -> None:
        for _ in range(WARMUP):
            kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._tick(signal.SIGALRM, None)  # a sample before the first call

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick(signal.SIGALRM, None)  # a sample after the last call
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def kernel_s(self, t0: float, t1: float) -> float:
        """Mean kernel time over [t0, t1], and the nearest sample on each side."""
        lo = max(0, bisect_left(self.at, t0) - 1)
        hi = min(len(self.at), bisect_right(self.at, t1) + 1)
        window = self.took[lo:hi]
        return sum(window) / len(window)

    def calibrated(self, t0: float, t1: float, seconds: float) -> float:
        return seconds * REFERENCE_S / self.kernel_s(t0, t1)
