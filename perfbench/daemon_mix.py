"""``daemon-edit-mix``: open-loop edit/re-check traffic against a live
``clou serve`` daemon.

A daemon subprocess (default ``jobs``, result cache in a scratch
directory) is booted and warm-filled with the monorepo under both
engines during set-up.  Seeded slotted arrivals then drive it over
:data:`CONNECTIONS` connections: reads re-check the unchanged monorepo
(every function a cache hit), writes send a one-function edit (one
miss, one analysis, one cache put).  Latency runs from each request's
due time.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace

from repro.clou.serialize import module_report_dict
from repro.sched import AnalysisRequest, ClouSession, worker
from repro.serve import ClouClient, ClouServer, DaemonUnreachable

from perfbench import common, inputs, instrument, loadgen, metrics
from perfbench.tracing import Tracer

#: Arrival rate (requests/s), connections (capped at the core count,
#: so the generator never has more sender threads than cores) and
#: write share of the mix.
RATE = 3.5
CONNECTIONS = 2
WRITE_SHARE = 0.3

#: A request answered later than this after its due time misses.
LIMIT_MS = 1000.0

#: The run is invalid when the generator, not the daemon, sent its
#: requests this late at p90.
MAX_LATE_MS = 250.0

#: Seconds between machine-speed samples during the open-loop window.
SPEED_INTERVAL_S = 0.5

#: Responses per kind compared byte-for-byte against a serial
#: in-process analysis of the same source.
SAMPLED_PER_KIND = 2

UNIT_NAME = "repo.c"
BOOT_TIMEOUT_S = 60.0


def connections() -> int:
    return min(CONNECTIONS, metrics.nproc())


def plan(seed: int, seconds: float):
    repo = inputs.Monorepo(seed)
    return repo, loadgen.schedule(seed, rate=RATE, seconds=seconds,
                                  write_share=WRITE_SHARE,
                                  functions=len(repo.names))


def source_for(repo, planned) -> str:
    if planned.kind == "read":
        return repo.source
    return repo.edit(planned.edit, planned.function)


def request_for(repo, planned) -> AnalysisRequest:
    return AnalysisRequest.analyze(source_for(repo, planned),
                                   engine=planned.engine, name=UNIT_NAME)


def rows(report) -> dict:
    """Per function: the verdict-bearing part of its report (the
    deduplicated transmitters, which is what crosses the wire)."""
    return {function.function: (
                function.verdict, len(function.transmitters()),
                tuple(sorted((klass.value, count)
                             for klass, count in function.counts().items())),
                function.complete, function.error)
            for function in report.functions}


def stable_json(report) -> str:
    return json.dumps(module_report_dict(report, stable=True),
                      sort_keys=True)


def reference(source: str, engine: str):
    """A serial, uncached, in-process analysis of ``source``."""
    [result] = ClouSession(jobs=1, cache=False).run(
        [AnalysisRequest.analyze(source, engine=engine, name=UNIT_NAME)])
    return result.report


def sampled(schedule, seed: int) -> set[int]:
    rng = random.Random(f"{seed}:sample")
    keep: set[int] = set()
    for kind in ("read", "write"):
        indices = [p.index for p in schedule if p.kind == kind]
        keep.update(rng.sample(indices, min(SAMPLED_PER_KIND, len(indices))))
    return keep


def make_sender(client: ClouClient, repo, tracer: Tracer | None = None):
    """One connection's sender.  It returns the decoded result and does
    nothing else, so the timed window covers only the client call;
    grading happens after the window (:func:`grade`)."""
    def send(planned):
        if tracer is not None:
            tracer.adopt(planned.index, None)
        result = client.analyze(request_for(repo, planned))
        if not result.ok:
            raise RuntimeError(result.error)
        return result
    return send


def references(repo) -> dict:
    return {engine: reference(repo.source, engine)
            for engine in ("pht", "stl")}


def grade(repo, base, records, keep: set[int]):
    """Per record: was the answer right, and its :func:`rows`.  Reads
    must match the serial reference ``base`` of the monorepo; writes
    must match it on every function but the edited one, which must be
    decided; the responses in ``keep`` must equal their own serial
    reference byte-for-byte."""
    base_rows = {engine: rows(report) for engine, report in base.items()}
    verdicts, got_rows, problems = [], [], []
    for record in records:
        planned = record.planned
        ok = record.error is None
        got = rows(record.outcome.report) if ok else {}
        got_rows.append(got)
        if ok:
            expected = dict(base_rows[planned.engine])
            others = dict(got)
            if planned.kind == "write":
                edited = repo.names[planned.function]
                row = others.pop(edited, None)
                expected.pop(edited, None)
                ok = row is not None and row[3] and row[4] is None
            ok = ok and others == expected
        if ok and planned.index in keep:
            truth = (base[planned.engine] if planned.kind == "read"
                     else reference(source_for(repo, planned),
                                    planned.engine))
            ok = stable_json(record.outcome.report) == stable_json(truth)
            if not ok:
                problems.append(f"request {planned.index} ({planned.kind}) "
                                "differs from the serial reference")
        elif not ok:
            problems.append(f"request {planned.index} ({planned.kind}): "
                            f"{record.error or 'wrong verdicts'}")
        verdicts.append(ok)
    return verdicts, got_rows, problems


def summarize(records, verdicts, got_rows,
              speed: metrics.Speed | None = None) -> tuple[dict, dict]:
    """End-to-end metrics of one open-loop window, with latencies
    scaled by ``speed`` when given.  The rates are never scaled: the
    arrival schedule sets them."""
    timings = [(r.due, r.sent, r.done) for r in records]
    latencies = [1000.0 * value * (speed.factor(due, done) if speed else 1.0)
                 for value, (due, _sent, done)
                 in zip(metrics.due_latencies(timings), timings)]
    reads = [ms for ms, r in zip(latencies, records)
             if r.planned.kind == "read"]
    writes = [ms for ms, r in zip(latencies, records)
              if r.planned.kind == "write"]
    window = max(r.done for r in records) - min(r.due for r in records)
    answered = [got for got, ok in zip(got_rows, verdicts) if ok]
    functions = sum(len(got) for got in answered)
    decided = sum(1 for got in answered for row in got.values() if row[3])
    in_time = sum(1 for ms, ok in zip(latencies, verdicts)
                  if ok and ms <= LIMIT_MS)
    late = metrics.lateness(timings, [r.free for r in records])
    values = {
        "items_per_s": functions / window,
        "decided_share": decided / functions if functions else 0.0,
        "programs_per_s": len(answered) / window,
        "read_latency_p50_ms": metrics.median(reads),
        "write_latency_p50_ms": metrics.median(writes),
        "latency_p90_ms": metrics.percentile(latencies, 90),
        "slo_share": in_time / len(records),
    }
    detail = {
        "requests": len(records), "reads": len(reads),
        "writes": len(writes),
        "tail_percentile": metrics.supported_percentile(latencies),
        "late_p90_ms": 1000.0 * metrics.percentile(late, 90),
        "window_s": window,
    }
    return values, detail


def validity(detail: dict) -> list[str]:
    problems = []
    if detail["late_p90_ms"] > MAX_LATE_MS:
        problems.append(f"invalid run: the load generator sent requests "
                        f"{detail['late_p90_ms']:.0f} ms late at p90 "
                        f"(limit {MAX_LATE_MS:.0f} ms)")
    tail = detail["tail_percentile"]
    if tail is None or tail < 90:
        problems.append("invalid run: too few requests beyond p90")
    return problems


# -- the daemon subprocess ------------------------------------------------


class Daemon:
    """A ``clou serve`` subprocess on a scratch socket and cache."""

    def __init__(self, label: str):
        self.dir = common.scratch_dir(label)
        self.socket = os.path.join(self.dir, "clou.sock")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--socket",
             self.socket],
            env=common.child_env(REPRO_CACHE_DIR=os.path.join(self.dir,
                                                              "cache")),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def client(self, tenant: str) -> ClouClient:
        return ClouClient(socket_path=self.socket, tenant=tenant,
                          retries=0)

    def wait_ready(self) -> None:
        client = self.client("setup")
        started = time.monotonic()
        try:
            while True:
                try:
                    client.ping()
                    return
                except DaemonUnreachable:
                    if self.proc.poll() is not None or \
                            time.monotonic() - started > BOOT_TIMEOUT_S:
                        raise
                    time.sleep(0.005)
        finally:
            client.close()

    def peak_rss_mb(self) -> float:
        return metrics.pid_peak_rss_mb(self.proc.pid)

    def terminate(self) -> None:
        """Ask the daemon to exit.  Its shutdown takes a few seconds of
        idle thread joins, so callers reap it later (:meth:`reap`)
        instead of waiting here."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        """Stop a set-up daemon at once, so neither its shutdown nor its
        interpreter teardown overlaps the measured window."""
        self.proc.kill()
        self.reap()

    def reap(self) -> None:
        self.terminate()
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        shutil.rmtree(self.dir, ignore_errors=True)


def warm_fill(client: ClouClient, repo) -> None:
    for engine in ("pht", "stl"):
        result = client.analyze(AnalysisRequest.analyze(
            repo.source, engine=engine, name=UNIT_NAME))
        if not result.ok:
            raise RuntimeError(f"warm fill failed: {result.error}")


def measure(seed: int, seconds: float) -> dict:
    repo, schedule = plan(seed, seconds)
    daemons: list[Daemon] = []

    def boot(index: int) -> float:
        """Boot to first ping plus the warm fill; all but the last
        daemon are killed again."""
        started = time.monotonic()
        daemon = Daemon(f"daemon{index}")
        daemons.append(daemon)
        daemon.wait_ready()
        client = daemon.client("setup")
        try:
            warm_fill(client, repo)
        finally:
            client.close()
        elapsed = time.monotonic() - started
        if index < common.SETUP_REPEATS - 1:
            daemon.kill()
        return elapsed

    try:
        setup = common.setup_seconds("daemon-edit-mix", seed, seconds,
                                     extra=boot)
        daemon = daemons[-1]
        clients = [daemon.client(f"conn-{n}") for n in range(connections())]
        try:
            with common.speed_sampler(SPEED_INTERVAL_S) as speed:
                records = loadgen.run(schedule, [make_sender(c, repo)
                                                 for c in clients])
        finally:
            for client in clients:
                client.close()
        rss = daemon.peak_rss_mb()
        daemon.terminate()
        verdicts, got_rows, problems = grade(repo, references(repo),
                                             records, sampled(schedule, seed))
    finally:
        for daemon in daemons:
            daemon.reap()
    values, detail = summarize(records, verdicts, got_rows, speed)
    detail["speed"] = speed.overall()
    problems += validity(detail)
    values["peak_rss_mb"] = rss
    values["setup_s"] = setup
    return {"attempted": len(records),
            "failed": sum(1 for ok in verdicts if not ok),
            "problems": problems, "metrics": values, "detail": detail}


# -- the traced run -----------------------------------------------------------


def _window(server_clients, repo, schedule, tracer=None):
    return loadgen.run(schedule, [make_sender(client, repo, tracer)
                                  for client in server_clients])


def measure_traced(seed: int, seconds: float) -> dict:
    """An in-process ``ClouServer``: half the run untraced, half traced
    (same rate and mix), so the difference is the tracing overhead.
    Each half samples two responses per kind for the byte-for-byte
    check."""
    repo, first = plan(seed, seconds / 2)
    # The second half's edits must not repeat the first half's, or its
    # writes would be cache hits.
    second = [replace(p, edit=p.edit + len(first)) if p.kind == "write"
              else p for p in plan(seed + 1, seconds / 2)[1]]
    scratch = common.scratch_dir("traced")
    server = ClouServer(ClouSession(cache_dir=os.path.join(scratch,
                                                           "cache")),
                        socket_path=os.path.join(scratch, "clou.sock"))
    server.start()
    tracer = Tracer()
    clients = []
    try:
        setup_client = ClouClient(socket_path=server.socket_path,
                                  tenant="setup")
        warm_fill(setup_client, repo)
        setup_client.close()
        clients = [ClouClient(socket_path=server.socket_path,
                              tenant=f"conn-{n}")
                   for n in range(connections())]
        plain = _window(clients, repo, first)
        before_status = server.status()
        before_memo = worker.saeg_cache_info()
        instrument.install(tracer)
        try:
            traced = _window(clients, repo, second, tracer)
        finally:
            tracer.restore()
        after_memo = worker.saeg_cache_info()
        after_status = server.status()
    finally:
        for client in clients:
            client.close()
        server.shutdown()
        shutil.rmtree(scratch, ignore_errors=True)
    base = references(repo)
    verdicts_plain, rows_plain, problems = grade(repo, base, plain,
                                                 sampled(first, seed))
    verdicts, rows_traced, more = grade(repo, base, traced,
                                        sampled(second, seed + 1))
    problems += more
    untraced_values, _ = summarize(plain, verdicts_plain, rows_plain)
    traced_values, detail = summarize(traced, verdicts, rows_traced)
    codec = instrument.codec_seconds_by_request(tracer.spans)
    waits = [1000.0 * ((r.done - r.sent) - r.outcome.stats.wall_seconds
                       - codec.get(r.planned.index, 0.0))
             for r in traced if r.outcome is not None]
    window = detail["window_s"]
    work = sum(r.outcome.stats.work_seconds for r in traced
               if r.outcome is not None)
    extra = {
        "serve.queue_wait_ms": metrics.median(waits),
        "serve.served": after_status["served"] - before_status["served"],
        "serve.busy_rejected": after_status["busy_rejected"]
        - before_status["busy_rejected"],
        "serve.deadline_dropped": after_status["deadline_dropped"]
        - before_status["deadline_dropped"],
        "loadgen.late_p90_ms": detail["late_p90_ms"],
        "sched.scheduler.work_s": work,
        "sched.scheduler.busy_share": work / window,
        "trace.overhead_share": traced_values["read_latency_p50_ms"]
        / untraced_values["read_latency_p50_ms"] - 1.0,
    }
    memo = {key: after_memo[key] - before_memo[key]
            for key in ("hits", "misses")}
    return {"attempted": len(plain) + len(traced),
            "failed": sum(1 for ok in verdicts_plain + verdicts if not ok),
            "problems": problems, "tracer": tracer, "memo": memo,
            "extra": extra, "detail": detail}
