"""The benchmark's clock: program times that a busy host moves little.

Two corrections are made to wall time.  First, the time the process
waited on a run queue while another task held the CPU (the second field
of /proc/self/schedstat) is left out: on the shared 2-core host the
benchmark was tuned on, two busy processes beside a run raised the plain
wall time of the `exact` round by 40 % and this time by under 5 %.
Waiting for I/O, a lock or a child process still counts.  Second, the
host's speed drifted by 10-30 % from one minute to the next; a fixed
piece of interpreter work, timed right before and right after a call,
slows and speeds up with it, and a call's time over the mean of those
two reference times, times REF_S, cancels most of that drift.
"""

from __future__ import annotations

import time

# The reference loop's median time on the host the benchmark was tuned on.
REF_S = 0.0012
SCHEDSTAT = "/proc/self/schedstat"


def run_delay() -> float:
    """Seconds this process has waited on a run queue so far (0 where the
    kernel does not report it)."""
    try:
        with open(SCHEDSTAT) as f:
            return int(f.read().split()[1]) * 1e-9
    except (OSError, IndexError, ValueError):
        return 0.0


def start() -> tuple[float, float]:
    """A mark to measure from with stop()."""
    delay = run_delay()
    return time.perf_counter(), delay


def stop(mark: tuple[float, float]) -> float:
    """Wall time since mark, less the run-queue wait in between."""
    t = time.perf_counter()
    return t - mark[0] - (run_delay() - mark[1])


def reference() -> int:
    """A fixed piece of interpreter work, independent of cutproject.

    Integer adds, compares and products of mixed sizes, like the scanner's
    inner loop.
    """
    a, b, m = 7, 11, 3 * 2**61
    acc = 0
    for k in range(1500):
        a = (a * 48271 + k) % m
        b += a >> 7
        if a * a > b * b * 5:
            acc += 1
    return acc


def reference_time() -> float:
    mark = start()
    reference()
    return stop(mark)


def rescale(t: float, before: float, after: float) -> float:
    """t taken between reference times `before` and `after`, at REF_S speed."""
    return 2 * REF_S * t / (before + after)


def timed(fn) -> float:
    """The rescaled duration of one call fn()."""
    before = reference_time()
    mark = start()
    fn()
    t = stop(mark)
    return rescale(t, before, reference_time())
