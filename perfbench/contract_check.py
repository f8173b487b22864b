"""``contract-check``: static and relational contract validation.

Each seeded conformance-profile program goes through the static LCM
analysis under every contract of ``CONTRACT_LCMS``
(``ConformanceHarness.static_analysis``) and through the relational
ctrace/htrace check in every cell of the ``HARDWARE_POLICIES`` x
``CONTRACT_LCMS`` matrix.  Programs are checked one after another
until the run's seconds are spent.
"""

from __future__ import annotations

import time

from repro.fuzz import conformance
from repro.fuzz.conformance import CONTRACT_LCMS, HARDWARE_POLICIES
from repro.fuzz.gen_c import conformance_vectors

from perfbench import common, inputs, instrument, metrics
from perfbench.tracing import Tracer

#: Programs generated per second of run time: several times the
#: fastest observed check rate, so the pool never runs dry.
POOL_PER_SECOND = 40

#: A program whose full check takes longer than this misses.
LIMIT_MS = 1000.0

#: Throughput is the median over chunks of this many consecutive
#: programs, so a few seconds of interference from outside the
#: benchmark move one chunk, not the run's figure.
CHUNK = 16


def programs(seed: int, seconds: float):
    return inputs.conformance_programs(seed,
                                       int(POOL_PER_SECOND * seconds) + 16)


def predictions() -> dict:
    return {(policy, contract): conformance.predicted_verdict(
                HARDWARE_POLICIES[policy](), CONTRACT_LCMS[contract].policy())
            for policy in HARDWARE_POLICIES for contract in CONTRACT_LCMS}


class Checker:
    """Checks programs and tallies verdicts against the predicted
    refinement relation (``predicted_verdict``)."""

    def __init__(self):
        self.predicted = predictions()
        self.pairs = {cell: 0 for cell in self.predicted}
        self.intervals: list[tuple[float, float]] = []
        self.verdicts = 0      # static analyses + matrix cells
        self.decided = 0       # ... that produced evidence
        self.failed = 0
        self.problems: list[str] = []

    def check(self, generated) -> bool:
        started = time.monotonic()
        ok = True
        try:
            harness = conformance.ConformanceHarness(generated)
            for contract in CONTRACT_LCMS:
                harness.static_analysis(contract)
                self.verdicts += 1
                self.decided += 1
            families = conformance_vectors(generated)
            for cell, expected in self.predicted.items():
                policy, contract = cell
                result = conformance.check_conformance(
                    generated, policy_name=policy, contract_name=contract,
                    families=families, harness=harness)
                self.pairs[cell] += result.pairs_checked
                self.verdicts += 1
                if result.pairs_checked or result.violations:
                    self.decided += 1
                if (expected == "conform" and result.violations) or \
                        (expected == "violate" and not result.violations):
                    ok = False
                    self.problems.append(
                        f"program {generated.seed}: cell {policy}/"
                        f"{contract} predicted {expected}, found "
                        f"{len(result.violations)} counterexample(s)")
        except Exception as error:  # one bad program must not end the run
            ok = False
            self.problems.append(f"program {generated.seed}: "
                                 f"{type(error).__name__}: {error}")
        finished = time.monotonic()
        self.intervals.append((started, finished))
        if not ok:
            self.failed += 1
        return ok

    def finish(self) -> None:
        """Run-level gate: every cell predicted to conform must have
        compared at least one ctrace-equal input pair."""
        for cell, expected in self.predicted.items():
            if expected == "conform" and not self.pairs[cell]:
                self.problems.append(f"cell {cell[0]}/{cell[1]} checked no "
                                     "ctrace-equal pair")
                self.failed += 1


def drive(checker: Checker, pool, start: int, seconds: float,
          speed: metrics.Speed | None = None) -> tuple:
    """Check programs from ``pool[start:]`` (wrapping around) for
    ``seconds``, sampling ``speed`` (if given) before the first program
    and after every :data:`CHUNK`; returns (programs checked, elapsed
    seconds)."""
    if speed is not None:
        speed.sample()
    deadline = time.monotonic() + seconds
    started = time.monotonic()
    count = 0
    while count == 0 or time.monotonic() < deadline:
        checker.check(pool[(start + count) % len(pool)])
        count += 1
        if speed is not None and count % CHUNK == 0:
            speed.sample()
    return count, time.monotonic() - started


def chunk_rate(intervals, speed: metrics.Speed,
               size: int = CHUNK) -> float:
    """Median programs per second over full chunks of ``size``
    consecutive programs (all programs when there is no full chunk),
    at the reference machine speed."""
    rates = [size / speed.scale(intervals[i][0], intervals[i + size - 1][1])
             for i in range(0, len(intervals) - size + 1, size)]
    if not rates:
        return len(intervals) / speed.scale(intervals[0][0],
                                            intervals[-1][1])
    return metrics.median(rates)


def _values(checker: Checker, count: int, speed: metrics.Speed) -> dict:
    latencies = [1000.0 * speed.scale(start, end)
                 for start, end in checker.intervals]
    # A failed program that was also late is subtracted twice: the
    # share can only err low, and only in a run that already failed.
    in_time = sum(1 for value in latencies if value <= LIMIT_MS)
    median_latency = metrics.median(latencies)
    rate = chunk_rate(checker.intervals, speed)
    return {
        "programs_per_s": rate,
        "items_per_s": rate * checker.verdicts / count,
        "decided_share": checker.decided / checker.verdicts,
        "read_latency_p50_ms": median_latency,
        "write_latency_p50_ms": median_latency,
        "latency_p90_ms": metrics.percentile(latencies, 90),
        "slo_share": max(0, in_time - checker.failed) / count,
    }


def measure(seed: int, seconds: float) -> dict:
    setup = common.setup_seconds("contract-check", seed, seconds)
    pool = programs(seed, seconds)
    checker = Checker()
    speed = metrics.Speed()
    count, _ = drive(checker, pool, 0, seconds, speed)
    values = _values(checker, count, speed)
    values["setup_s"] = setup
    values["peak_rss_mb"] = metrics.self_rss_mb()
    checker.finish()
    return {"attempted": count, "failed": checker.failed,
            "problems": checker.problems, "metrics": values,
            "detail": {"programs": count, "speed": speed.overall(),
                       "latency_samples": len(checker.intervals),
                       "tail_percentile": metrics.supported_percentile(
                           [end - start
                            for start, end in checker.intervals])}}


def measure_traced(seed: int, seconds: float) -> dict:
    """Half the run untraced, then half traced on the next programs of
    the same pool; the rate difference is the tracing overhead."""
    pool = programs(seed, seconds)
    plain = Checker()
    plain_count, plain_elapsed = drive(plain, pool, 0, seconds / 2)
    tracer = Tracer()
    traced = Checker()
    instrument.install(tracer)
    try:
        count, elapsed = drive(traced, pool, plain_count, seconds / 2)
    finally:
        tracer.restore()
    plain.finish()
    traced.finish()
    overhead = (plain_count / plain_elapsed) / (count / elapsed) - 1.0
    return {"attempted": plain_count + count,
            "failed": plain.failed + traced.failed,
            "problems": plain.problems + traced.problems,
            "tracer": tracer, "memo": {},
            "extra": {"trace.overhead_share": overhead},
            "detail": {"programs": plain_count + count}}
