"""Host-speed reference: a fixed pure-Python loop timed next to every op.

The benchmark runs on a shared host whose speed drifts: the same pass over
an op list takes up to ~1.7x longer in a slow stretch than in a fast one,
and CPU time drifts with wall time, so the drift is the host's, not the
scheduler's.  A stretch can last a whole run, so longer runs do not average
it away.  The reference loop does the same kind of work as the library
(small-object allocation, method calls, integer gcd, dict updates) without
touching it, and its time is taken right before and right after each op.
Every timing the benchmark reports is scaled by ``REF_MS / reference time``:
it reads as milliseconds at the fixed reference speed at which the loop
takes ``REF_MS``.  A change to the library moves the op times and not the
loop, so it shows in full; a change of host speed moves both and cancels.
The raw wall-clock figures are printed and recorded beside the adjusted ones.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

# The loop's time on the machine the bounds were set on (2 vCPUs of a shared
# x86-64 host, Python 3.11), taken in a fast stretch; it only fixes the scale.
REF_MS = 2.5
_STEPS = 3000
_WARM_UP = 20


class _Ratio:
    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        self.p = p
        self.q = q

    def add(self, other: "_Ratio") -> "_Ratio":
        p = self.p * other.q + other.p * self.q
        q = self.q * other.q
        a, b = p, q
        while b:
            a, b = b, a % b
        return _Ratio(p // a, q // a)


def _loop() -> int:
    counts: dict[tuple[int, int], int] = {}
    total = _Ratio(0, 1)
    for i in range(_STEPS):
        total = total.add(_Ratio(i % 7, 1 + i % 5))
        key = (i & 63, i % 3)
        counts[key] = counts.get(key, 0) + 1
    return total.p + len(counts)


def sample() -> float:
    """One timing of the loop in ms, with the cyclic collector off so that
    the library's heap cannot slow the loop down."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _loop()
        return (perf_counter() - start) * 1000.0
    finally:
        if enabled:
            gc.enable()


def warm_up() -> None:
    """Run the loop until the interpreter has specialised it."""
    for _ in range(_WARM_UP):
        sample()


def adjust(latencies_ms: list[float], ref_ms: list[float]) -> list[float]:
    """Op i ran between reference samples i and i + 1; scale it by their mean."""
    if len(ref_ms) != len(latencies_ms) + 1:
        raise ValueError("need one reference sample before each op and one after the last")
    return [ms * 2.0 * REF_MS / (ref_ms[i] + ref_ms[i + 1]) for i, ms in enumerate(latencies_ms)]


def adjust_one(ms: float, ref_ms: list[float]) -> float:
    """Scale one timing by the median of the reference samples taken around it."""
    return ms * REF_MS / statistics.median(ref_ms)
