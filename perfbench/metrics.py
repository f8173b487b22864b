"""Summary statistics and machine-speed scaling shared by the workloads
(no repro imports, so the helper tests run without the analysis
stack)."""

from __future__ import annotations

import bisect
import gc
import json
import math
import os
import resource
import statistics
import time

#: Percentiles a latency tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (the smallest sample with at
    least ``q`` percent of the samples at or below it)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    # Rounding first keeps 99.9% of 10000 at rank 9990, not 9991.
    rank = max(1, math.ceil(round(q * len(ordered) / 100.0, 9)))
    return ordered[rank - 1]


def beyond(values, q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    cut = percentile(values, q)
    return sum(1 for value in values if value > cut)


def supported_percentile(values, ladder=TAIL_LADDER,
                         min_beyond: int = MIN_BEYOND) -> float | None:
    """The highest percentile of ``ladder`` that has at least
    ``min_beyond`` samples beyond it, or None when even the lowest
    rung does not."""
    for q in ladder:
        if beyond(values, q) >= min_beyond:
            return q
    return None


def due_latencies(records) -> list[float]:
    """Open-loop latency: each ``(due, sent, done)`` record is timed
    from when it was *due*, so a stall charges every request queued
    behind it, not just the one that hit it."""
    return [done - due for due, _sent, done in records]


def lateness(records, free_at) -> list[float]:
    """How late the generator sent each request: the send time minus
    the later of its due time and the moment a connection was free to
    carry it.  Waiting for a connection held by a slow reply is the
    daemon's backlog, not the generator's, and is excluded."""
    return [max(0.0, sent - max(due, free))
            for (due, sent, _done), free in zip(records, free_at)]


def self_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mb() -> float:
    """Largest peak resident set among waited-for child processes."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """A live process's peak resident set (``VmHWM``), in MiB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# -- machine speed ----------------------------------------------------------

#: Seconds :func:`kernel_seconds` takes on the reference machine.  Timed
#: figures are reported as they would read on a machine this fast.
REFERENCE_KERNEL_S = 0.020

_KERNEL_DATA = {f"k{index:05d}": [index, index * 2.5, "x" * (index % 7),
                                  {"n": index % 13}]
                for index in range(4000)}


def kernel_seconds(repeats: int = 3) -> float:
    """Mean time of ``repeats`` runs of a fixed standard-library
    workload (a JSON round trip and a keyed sort), which no change to
    the program under test can speed up or slow down.  The garbage
    collector is paused, so the caller's heap does not weigh in."""
    paused = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(repeats):
            back = json.loads(json.dumps(_KERNEL_DATA, sort_keys=True))
            sorted(back.items(),
                   key=lambda item: (item[1][3]["n"], item[1][1]))
        return (time.perf_counter() - started) / repeats
    finally:
        if paused:
            gc.enable()


class Speed:
    """The machine's speed over a run, sampled between timed operations.

    A shared virtual machine's speed wanders by a third within a minute,
    and run-to-run figures tracked it, not the program.  Each timing is
    therefore scaled by the speed sampled just before and just after it
    (:meth:`factor`), so figures read as on the reference machine
    (:data:`REFERENCE_KERNEL_S`).  Sample while the work under test is
    idle, so the kernel neither slows it nor is slowed by it, or, where
    it never is, from a process of its own (``perfbench/sampler.py``,
    :meth:`add`).
    """

    def __init__(self, clock=time.monotonic, kernel=kernel_seconds):
        self.clock = clock
        self.kernel = kernel
        self.times: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        seconds = self.kernel()
        self.add(self.clock(), seconds)

    def add(self, at: float, seconds: float) -> None:
        """Record a kernel that took ``seconds`` and ended at ``at``
        (samples arrive in time order)."""
        self.times.append(at)
        self.seconds.append(seconds)

    def factor(self, start: float, end: float) -> float:
        """Reference over measured speed for the interval
        ``[start, end]``: the kernel time of the last sample taken at
        or before ``start`` and of the first taken at or after ``end``
        (the nearest ones where none is), averaged."""
        before = max(0, bisect.bisect_right(self.times, start) - 1)
        after = min(len(self.times) - 1,
                    bisect.bisect_left(self.times, end))
        measured = (self.seconds[before] + self.seconds[after]) / 2
        return REFERENCE_KERNEL_S / measured

    def scale(self, start: float, end: float) -> float:
        """``end - start`` as it would read on the reference machine."""
        return (end - start) * self.factor(start, end)

    def overall(self) -> float:
        """The median factor over all samples (for the printed detail)."""
        return median(REFERENCE_KERNEL_S / seconds
                      for seconds in self.seconds)
