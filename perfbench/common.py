"""Shared pieces of the benchmark: statistics, clocks, check tallies."""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass

# Seconds the reference kernel takes when the machine runs at its usual
# unloaded speed (2-core x86-64 VM, Python 3.11; see README.md).
REFERENCE_S = 0.006


def tail(values) -> tuple[float, int]:
    """The highest sample with at least ten samples beyond it.

    Returns (value, percentile).  With fewer than eleven samples no such
    sample exists and the largest one stands in, reported as percentile 100.
    """
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100
    index = len(ordered) - 11
    return ordered[index], int(100 * (index + 1) / len(ordered))


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@dataclass(frozen=True)
class _Cell:
    kind: str
    code: int | None = None


_ROWS = tuple(
    tuple(_Cell("CODE", 200 + (i * k) % 5) for i in range(4590)) for k in range(1, 9)
)


def reference_kernel() -> float:
    """Seconds for a fixed pure-Python loop shaped like the program's own:
    frozen-dataclass equality along 4,590-long tuples.  It never changes,
    so its time measures the interpreter's speed on the machine right now."""
    start = time.perf_counter()
    for a, b in zip(_ROWS, _ROWS[1:]):
        sum(1 for x, y in zip(a, b) if x == y)
    return time.perf_counter() - start


class SpeedClock:
    """Times CPU-bound calls in reference-speed seconds.

    On a shared machine the interpreter's speed drifts by up to 1.9x over
    tens of seconds, which no run length averages away.  The reference
    kernel runs right before and right after each timed call; the call's
    wall time is scaled by REFERENCE_S over the mean of those two kernel
    times.  Calls that wait on sockets or other processes are not timed
    here: their wall time is reported as measured.
    """

    def __init__(self):
        self.kernel_s: list[float] = []

    def timed(self, fn, *args, **kwargs):
        """Returns (result, reference-speed seconds)."""
        before = reference_kernel()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        after = reference_kernel()
        self.kernel_s += [before, after]
        return result, elapsed * REFERENCE_S * 2 / (before + after)


class Budget:
    """Run-length clock: keep going while the next round should still fit.

    At least one round always runs; after that a round starts only if the
    median round so far would end before the budget does.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.perf_counter()
        self.rounds: list[float] = []

    def more(self) -> bool:
        if not self.rounds:
            return True
        elapsed = time.perf_counter() - self.start
        return elapsed + statistics.median(self.rounds) <= self.seconds

    def done_round(self, seconds: float) -> None:
        self.rounds.append(seconds)


class Tally:
    """Checked outputs: every output counts as attempted, mismatches as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.notes) < 20:
            self.notes.append(f"{what}: {failed} of {attempted}")
