"""Real-clock measurement for the speed benchmarks.

This is the only module in the benchmark path allowed to read the real
clock (sanctioned in ``repro.lint.contracts``); everything it measures
is still a deterministic simulation — only the *cost* of running it is
nondeterministic, which is the thing being benchmarked.
"""

from __future__ import annotations

import time
import zlib


class Stopwatch:
    """Wall-clock + process-CPU-time interval."""

    __slots__ = ("wall_s", "cpu_s", "_wall0", "_cpu0")

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def __enter__(self) -> "Stopwatch":
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, *exc: object) -> None:
        self.wall_s = time.perf_counter() - self._wall0
        self.cpu_s = time.process_time() - self._cpu0


def _calibration_workload(rounds: int) -> int:
    """A fixed pure-Python reference load.

    Deliberately does NOT touch any repro code path: the calibration
    must measure the machine, not the code under test, so optimizing
    the codebase never shifts the denominator.
    """
    acc = 0
    blob = bytes(range(256)) * 16
    table = {}
    for r in range(rounds):
        for i in range(200):
            table[i] = acc
            acc = (acc + i * 31) & 0xFFFFFFFF
        acc ^= zlib.crc32(blob, acc)
        acc += sum(range(500))
    return acc


def calibration_seconds(rounds: int = 2000) -> float:
    """CPU seconds the reference load takes on this machine.

    Recorded beside a set of host measurements, so two sets that
    disagree can be told from a machine that changed.  Takes the best of
    three to shake scheduler noise.
    """
    best = float("inf")
    for _ in range(3):
        with Stopwatch() as clock:
            _calibration_workload(rounds)
        best = min(best, clock.cpu_s)
    return best
