"""Open-loop load generator: seeded random arrivals over a fixed pool
of connections.

Requests are sent when they are due, whatever the replies are doing.
Each connection is served by one sender thread that takes the next
request in due order as soon as it is free; a request due while every
connection awaits a reply is sent late, and that wait is charged to
the system under test because latency runs from the due time
(:func:`metrics.due_latencies`).  The generator's own lateness (woken
late, or busy decoding a reply) is reported separately
(:func:`metrics.lateness`) so a run where the generator fell behind can
be declared invalid.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Planned:
    index: int
    offset: float          # seconds after the schedule's start
    kind: str              # 'read' | 'write'
    engine: str
    edit: int = -1         # write number (edits stay distinct)
    function: int = -1     # function a write edits


def schedule(seed: int, *, rate: float, seconds: float, write_share: float,
             functions: int, engines=("pht", "stl")) -> list[Planned]:
    """``n = round(rate * seconds)`` arrivals, one at a uniformly random
    moment in each of ``n`` equal slots of ``[0, seconds)``, so every
    run carries the same number of requests at the same mean rate.
    Slotted arrivals are less bursty than Poisson ones: with Poisson
    arrivals the run-to-run spread of the p90 latency (0.47 of its
    median over ten seeds) measured the dice, not the daemon.  Exactly
    ``round(write_share * n)`` requests are writes, in seeded order; engines alternate within each kind, so reads and writes each
    split evenly between them; writes walk seeded permutations of the
    functions so each function is edited about equally often."""
    rng = random.Random(f"{seed}:arrivals")
    count = max(1, round(rate * seconds))
    slot = seconds / count
    offsets = [(index + rng.random()) * slot for index in range(count)]
    writes = round(write_share * count)
    kinds = ["write"] * writes + ["read"] * (count - writes)
    rng.shuffle(kinds)
    targets: list[int] = []
    while len(targets) < writes:
        order = list(range(functions))
        rng.shuffle(order)
        targets += order
    plan, seen = [], {"read": 0, "write": 0}
    for index, (offset, kind) in enumerate(zip(offsets, kinds)):
        number = seen[kind]
        seen[kind] += 1
        engine = engines[number % len(engines)]
        if kind == "write":
            plan.append(Planned(index, offset, kind, engine, number,
                                targets[number]))
        else:
            plan.append(Planned(index, offset, kind, engine))
    return plan


@dataclass
class Record:
    planned: Planned
    due: float
    free: float = 0.0      # when a connection became free to carry it
    sent: float = 0.0
    done: float = 0.0
    outcome: object = None
    error: str | None = None


def run(plan: list[Planned], senders) -> list[Record]:
    """Drive ``plan`` open-loop.  ``senders`` holds one callable per
    connection; ``sender(planned)`` performs one request and returns
    its outcome (an exception is recorded as the request's error).
    Returns one record per planned request, in plan order."""
    clock = time.monotonic
    start = clock()
    records = [Record(planned=p, due=start + p.offset) for p in plan]
    cursor = iter(records)
    lock = threading.Lock()

    def drive(send) -> None:
        while True:
            free = clock()
            with lock:
                record = next(cursor, None)
            if record is None:
                return
            record.free = free
            pause = record.due - clock()
            if pause > 0:
                time.sleep(pause)
            record.sent = clock()
            try:
                record.outcome = send(record.planned)
            except Exception as error:  # the request failed; keep going
                record.error = f"{type(error).__name__}: {error}"
            record.done = clock()

    threads = [threading.Thread(target=drive, args=(send,),
                                name=f"loadgen-{number}", daemon=True)
               for number, send in enumerate(senders)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records
