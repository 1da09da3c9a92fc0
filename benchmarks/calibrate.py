"""Machine-speed calibration for the end-to-end times.

This benchmark runs on a few cores of a shared host.  The same pure-Python
loop there takes 35 ms in one minute and 60 ms in the next, and the process's
CPU time moves with its wall time, so raw latencies of the same operations
spread by a third between runs.  A fixed, selfsim-free ``kernel`` (tuple
building and small-dict updates, the interpreter work that dominates selfsim)
is timed after an operation whenever ``INTERVAL_S`` have passed since its
last run.  Each operation's raw latency is then scaled by
``REFERENCE_S / (median kernel time around it)``: its time on a machine where
the kernel takes ``REFERENCE_S``.  A change to selfsim moves these scaled
times exactly as it moves the raw ones; a change in the host's speed mostly
cancels.  Raw times are reported next to the scaled ones.

The kernel's time must not depend on what selfsim did before it: it runs
with the garbage collector off, so the library's heap is not scanned, and it
runs once untimed before each timed run, so the caches the library evicted
are warm again.  Its data stay a few hundred small objects: a kernel that
walks a table larger than the L2 cache runs two to three times slower inside
a workload than alone, so its time would follow selfsim's memory use.
"""

from __future__ import annotations

import gc
import statistics
import time

# the kernel's time at the reference speed: about its median on a shared
# 2-core Xeon VM (Python 3.11), so scaled times read like raw ones there
REFERENCE_S = 0.0008
# the kernel runs after an operation once this long has passed since its
# last run, which keeps its share of a run near a tenth
INTERVAL_S = 0.01
# each operation is scaled by the median of this many kernel samples, the
# first one taken after it and its neighbours
WINDOW = 15


def kernel() -> int:
    """A fixed amount of interpreter work that does not touch selfsim."""
    counts: dict = {}
    recent: tuple = ()
    for i in range(300):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        recent = recent[-5:] + (i,)
        word = tuple((i * 31 + x) % 17 for x in range(4))
        counts[word] = word[::-1]
    return len(counts) + len(recent)


def sample() -> float:
    """One timed kernel run, in seconds, after an untimed one, with the
    collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(raw: list[float], after: list[int], kernel_s: list[float]) -> list[float]:
    """Scale each raw time by the median kernel time of its window.
    ``kernel_s[after[i]]`` is the first sample taken after operation ``i``."""
    n, half = len(kernel_s), WINDOW // 2
    out = []
    for value, first in zip(raw, after):
        lo = max(0, min(first - half, n - WINDOW))
        local = statistics.median(kernel_s[lo:lo + WINDOW])
        out.append(value * REFERENCE_S / local)
    return out
