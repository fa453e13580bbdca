"""Host speed sampled during the timed loop, to scale times to a fixed speed.

The benchmark runs on shared machines whose speed drifts by tens of percent
over seconds to minutes.  While ``Speed`` is active, an interval timer runs a
fixed reference task (graph6 decoding and the literal IO-code check from
``workloads``, i.e. the same kind of pure-Python set and bit work as the
package) every ``PERIOD`` seconds, in the main thread between bytecodes.
A call's time is its elapsed time minus the reference runs inside it, scaled
by ``REFERENCE_S / median(reference runs near the call)``: the time the call
would take on a host where the reference task takes ``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
from time import perf_counter

from workloads import decode_graph6, encode_graph6, is_io_code_literal, subdivided_random_tree

PERIOD = 0.25
WINDOW = 0.5
REFERENCE_S = 0.001
_ORDER, _EDGES = subdivided_random_tree(26, random.Random(5))
_G6 = encode_graph6(_ORDER, _EDGES)
_CODE = list(range(_ORDER))


def reference() -> float:
    """Seconds taken by the fixed reference task, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        for _ in range(4):
            is_io_code_literal(decode_graph6(_G6), _CODE)
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Speed:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def _sample(self, signum, frame) -> None:
        started = perf_counter()
        taken = reference()
        self.starts.append(started)
        self.seconds.append(taken)

    def __enter__(self) -> "Speed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self._sample(None, None)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def scaled(self, started: float, ended: float) -> float:
        """Time of the interval without reference runs, at reference speed."""
        lo = bisect.bisect_left(self.starts, started)
        hi = bisect.bisect_left(self.starts, ended)
        net = ended - started - sum(self.seconds[lo:hi])
        lo = bisect.bisect_left(self.starts, started - WINDOW)
        hi = bisect.bisect_right(self.starts, ended + WINDOW)
        near = self.seconds[lo:hi] or self.seconds
        return net * REFERENCE_S / statistics.median(near)
