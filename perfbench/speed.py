"""Machine speed, measured next to the ops it is used to scale.

On a shared host the speed of a core drifts by tens of percent within a
second and over minutes, and CPU time drifts with wall time, so neither
clock escapes it.  The benchmark therefore runs a fixed piece of
interpreter work, the kernel, after every INTERVAL_S of op time, and
reports op times at the reference speed: an op's wall time is multiplied
by REFERENCE_S over the median of the WINDOW kernel samples around it.

The kernel fills a dict of a few thousand small lists and sorts it:
allocation, hashing and pointer chasing, like relsyl's own ops.  It uses
nothing of relsyl and runs with the collector off, so the size of
relsyl's heap does not reach it: a change to relsyl moves the scaled
times as it moves the wall times, while the host's drift moves the
kernel as well and cancels.  Measured on a 2-vCPU x86-64 VM, with a fixed
chunk of 120 check ops (about 1.3 s) repeated for 45 to 60 s: the
standard deviation of the log of the chunk's time was 0.12 to 0.13 as
measured, 0.085 scaled with a sample every 0.1 s of op time, and 0.03 to
0.04 scaled with a sample every 0.01 s, because the speed changes within
a tenth of a second.
"""

from __future__ import annotations

import gc
import statistics
import time

REFERENCE_S = 1.25e-3  # kernel time at the reference speed (a 2-vCPU x86-64
                       # VM with Python 3.11 runs it in 0.8 to 2 ms)
INTERVAL_S = 0.01      # op time between two kernel samples
WINDOW = 5             # kernel samples whose median scales an op
KERNEL_N = 2500


def _kernel() -> int:
    d = {}
    for i in range(KERNEL_N):
        d[(i * 7919) % 100003] = [i, str(i)]
    return len(sorted(d.items()))


def sample() -> float:
    """Time one run of the kernel, in seconds, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        _kernel()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def factor(samples: list) -> float:
    """How much slower than the reference the machine ran: >1 is slower."""
    return statistics.median(samples) / REFERENCE_S


def window_factors(samples: list) -> list:
    """factor() over the WINDOW samples centred on each sample."""
    h = WINDOW // 2
    return [factor(samples[max(0, k - h):k + h + 1]) for k in range(len(samples))]


def probe(count: int = 31) -> float:
    """The speed factor now, from `count` kernel samples in a row."""
    return factor([sample() for _ in range(count)])
