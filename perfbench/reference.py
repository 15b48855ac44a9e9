"""A fixed pure-Python kernel that gauges how fast the host runs right now.

On a shared host the same Python code runs up to 1.5x slower for minutes
at a time while neighbours load the machine.  The benchmark therefore
runs this kernel between timed calls — never inside them — and rescales
every wall time it reports to a nominal host speed::

    scaled = measured * NOMINAL_S / kernel time around the measurement

The kernel is interpreter-bound work of the same kind the program does
(dict inserts and lookups, attribute access, small-int arithmetic, bytes
building).  It lives here, not in ``repro``, so no change to the program
can change it; a change that makes the program faster or slower moves the
scaled times by the same factor as the raw ones.  Garbage collection is
off while it runs, so the size of the program's heap does not leak into
the gauge.
"""

from __future__ import annotations

import gc
from time import perf_counter

#: The kernel's time on an idle core of a 2-CPU Xeon host; scaled times
#: read as wall times on that host when it is idle.
NOMINAL_S = 0.002
#: Timed steps run for at most about this long between two gauges.
GAUGE_EVERY_S = 0.1
_REPEATS = 3


class _Pair:
    __slots__ = ("number", "text")

    def __init__(self, number: int, text: str) -> None:
        self.number = number
        self.text = text


def _kernel() -> int:
    table = {}
    for i in range(3000):
        table[(i * 7919) % 10007] = _Pair(i, str(i))
    digest = 0
    for key in sorted(table):
        pair = table[key]
        digest = (digest * 31 + pair.number + len(pair.text)) & 0xFFFFFFFF
    joined = b"".join(key.to_bytes(4, "big") for key in table)
    return digest ^ len(joined)


def gauge() -> float:
    """Seconds the kernel takes now: the fastest of a few back-to-back runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(_REPEATS):
            began = perf_counter()
            _kernel()
            best = min(best, perf_counter() - began)
        return best
    finally:
        if enabled:
            gc.enable()


def factor(before: float, after: float) -> float:
    """Multiplier that rescales a time taken between two gauges."""
    return NOMINAL_S / ((before + after) / 2)
