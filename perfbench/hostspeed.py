"""How fast this host's core runs Python right now, as a scale factor.

A shared host changes speed by up to 1.7x within minutes (other tenants on
the same physical core), far more than any bound a benchmark can hold.
Every timing the benchmark reports is therefore scaled to a reference
speed: multiplied by ``REFERENCE_MS / probe``, where ``probe`` is the CPU
time of a fixed pure-Python loop.  Each timed operation takes the mean
factor of the probes just before and just after it.  Drift common to the
probe and the program cancels; a change in the program shows in full.

The probe counts the thread's CPU time, not wall time, so waiting for a CPU
or for the interpreter lock does not count, and it runs only while the
benchmark has no operation in flight: a program that adds busy threads or
processes cannot make the probe look slow.  Raw timings are kept in the
run record.

This module imports nothing from the program, so a cold set-up process can
probe before it imports the package.
"""

from __future__ import annotations

import time

REFERENCE_MS = 1.0


def _probe_loop() -> None:
    table: dict = {}
    for i in range(5000):
        key = (i & 63, "k")
        table[key] = table.get(key, 0) + i


class HostSpeed:
    """The probe history of one process."""

    INTERVAL_S = 0.5

    def __init__(self) -> None:
        self.probes_ms: list[float] = []
        self.factors: list[float] = []
        self.probe()

    def probe(self) -> int:
        """Probe now; returns the new probe's index."""

        times = []
        for _ in range(3):
            start = time.thread_time()
            _probe_loop()
            times.append((time.thread_time() - start) * 1000.0)
        probe_ms = sorted(times)[1]
        self.probes_ms.append(probe_ms)
        self.factors.append(REFERENCE_MS / probe_ms)
        self._next = time.perf_counter() + self.INTERVAL_S
        return len(self.factors) - 1

    def current(self) -> int:
        """The latest probe's index, probing first when it is ``INTERVAL_S``
        old.  Call only with no operation in flight."""

        if self.due():
            return self.probe()
        return len(self.factors) - 1

    def due(self) -> bool:
        return time.perf_counter() >= self._next

    def between(self, index: int) -> float:
        """The factor for an operation timed after probe ``index`` and
        before the next one (or the last, when none followed)."""

        after = self.factors[min(index + 1, len(self.factors) - 1)]
        return (self.factors[index] + after) / 2.0
