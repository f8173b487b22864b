"""Delta-encoded checkpoint transport on the scheduler pipe.

Engine snapshots stay self-contained; only the worker->parent pipe
carries deltas (the counters, the witnesses new since the last send,
and ``base``).  The parent folds them back into one full snapshot, so
resume payloads, ``ItemOutcome.partial`` and salvaged partial reports
look exactly as if every snapshot had been shipped whole.
"""

import copy

import pytest

from repro.bench.synthetic import openssl_like_source
from repro.clou import ClouConfig
from repro.clou.engine import ENGINES
from repro.clou.serialize import function_report_dict
from repro.sched import AnalysisRequest, ClouSession, run_items, worker
from repro.sched.worker import CheckpointMismatch, SnapshotDeltas

SOURCE = openssl_like_source(n_functions=4, seed=23)
UNIT = "ossl.c"
FUNCTION = "ossl_fn_002"
# Positional fault site: fires after the candidate at this cursor is
# checkpointed, by which point the function has several witnesses.
FAULT_AT = 20


def _snapshots(function=FUNCTION, engine="pht"):
    """(report, every snapshot) of an uninterrupted engine run."""
    snapshots = []
    aeg = worker.saeg_for(SOURCE, UNIT, function)
    report = ENGINES[engine](aeg, ClouConfig()).run(
        checkpoint=snapshots.append)
    return report, snapshots


def _payload(function=FUNCTION, engine="pht", fault_spec=None):
    return {"kind": "analyze", "source": SOURCE, "name": UNIT,
            "function": function, "engine": engine,
            "config": ClouConfig(fault_spec=fault_spec).to_dict()}


def _stream(snapshots, resume=None):
    """Encode a snapshot stream the way the worker side does."""
    sent = SnapshotDeltas.base(resume)
    deltas = []
    for snapshot in snapshots:
        delta, sent = SnapshotDeltas.encode(snapshot, sent)
        deltas.append(delta)
    return deltas


class TestCodec:
    def test_folding_every_prefix_reproduces_each_snapshot(self):
        _, snapshots = _snapshots()
        assert len(snapshots[-1]["witnesses"]) >= 3
        held = None
        for snapshot, delta in zip(snapshots, _stream(snapshots)):
            held = SnapshotDeltas.fold(held, delta)
            assert held == snapshot

    def test_folding_onto_a_resume_payload(self):
        _, snapshots = _snapshots()
        middle = len(snapshots) // 2
        resume = copy.deepcopy(snapshots[middle])
        assert resume["witnesses"], "resume point must hold witnesses"
        held = resume
        for snapshot, delta in zip(snapshots[middle + 1:],
                                   _stream(snapshots[middle + 1:], resume)):
            assert delta["base"] == len(held["witnesses"])
            held = SnapshotDeltas.fold(held, delta)
            assert held is resume          # folded in place
            assert held == snapshot

    def test_encode_leaves_the_engine_snapshot_whole(self):
        _, snapshots = _snapshots()
        before = copy.deepcopy(snapshots)
        _stream(snapshots)
        assert snapshots == before

    def test_base_mismatch_raises_and_keeps_the_held_witnesses(self):
        _, snapshots = _snapshots()
        deltas = _stream(snapshots)
        held = SnapshotDeltas.fold(None, deltas[0])
        for delta in deltas[1:]:
            if delta["witnesses"]:
                break
            held = SnapshotDeltas.fold(held, delta)
        kept = copy.deepcopy(held)
        skipped = dict(delta, base=delta["base"] + 1)
        with pytest.raises(CheckpointMismatch, match="delta starts at"):
            SnapshotDeltas.fold(held, skipped)
        assert held == kept


# -- pool-level: what actually crosses the pipe ------------------------


class _CountingDeltas(SnapshotDeltas):
    """Parent-side fold that tallies the witness dicts it receives."""

    shipped = 0

    @classmethod
    def fold(cls, held, delta):
        cls.shipped += len(delta["witnesses"])
        return SnapshotDeltas.fold(held, delta)


def _counted(payload, **kwargs):
    return worker.execute_item(payload, **kwargs)


_counted.checkpoint_codec = _CountingDeltas


class _SkippingDeltas(SnapshotDeltas):
    """Worker-side encoder that loses track of what was sent once some
    witnesses have gone out: the next delta's ``base`` is wrong."""

    @staticmethod
    def encode(snapshot, sent):
        delta, now = SnapshotDeltas.encode(snapshot, sent)
        if sent >= 3:
            delta["base"] = sent + 1
        return delta, now


def _skipping(payload, **kwargs):
    return worker.execute_item(payload, **kwargs)


_skipping.checkpoint_codec = _SkippingDeltas


class TestPipe:
    def test_shipped_witnesses_equal_the_final_count(self):
        _CountingDeltas.shipped = 0
        [outcome] = run_items(_counted, [_payload()], jobs=2)
        assert outcome.ok
        assert len(outcome.value.witnesses) >= 3
        assert _CountingDeltas.shipped == len(outcome.value.witnesses)

    def test_base_mismatch_fails_the_item_without_dropping_witnesses(self):
        [outcome] = run_items(_skipping, [_payload()], jobs=2, retries=2)
        assert not outcome.ok
        assert "checkpoint stream broken" in outcome.error
        assert outcome.attempts == 1       # a broken stream is not retried
        held = outcome.partial["witnesses"]
        assert len(held) >= 3
        _, snapshots = _snapshots()
        # Everything folded before the bad delta is still held, in order.
        assert held == snapshots[-1]["witnesses"][:len(held)]

    def test_permanent_failure_partial_carries_every_witness(self):
        _, snapshots = _snapshots()
        [at_fault] = [s for s in snapshots if s["cursor"] == FAULT_AT]
        assert len(at_fault["witnesses"]) >= 3
        [outcome] = run_items(
            worker.execute_item,
            [_payload(fault_spec=f"crash@engine.candidate#{FAULT_AT}")],
            jobs=2, retries=0, timeout=30)
        assert outcome.crashed and not outcome.ok
        assert outcome.partial == at_fault
        salvaged = worker.report_from_checkpoint(
            _payload(), outcome.partial, outcome.error)
        assert len(salvaged.witnesses) == len(at_fault["witnesses"])
        assert salvaged.timed_out and not salvaged.complete


def _functions(report):
    return [function_report_dict(f, stable=True) for f in report.functions]


class TestWitnessRichResume:
    """Kill a worker part-way through a witness-rich function: the retry
    resumes from the folded checkpoint (so the next fold starts at a
    nonzero ``base``) and the result is byte-identical to jobs=1."""

    @pytest.fixture(scope="class")
    def clean(self):
        _, snapshots = _snapshots()
        [at_fault] = [s for s in snapshots if s["cursor"] == FAULT_AT]
        assert len(at_fault["witnesses"]) >= 3
        session = ClouSession(jobs=1, cache=False)
        return session.analyze(AnalysisRequest.analyze(
            SOURCE, engine="pht", name=UNIT, functions=(FUNCTION,)))

    @pytest.mark.parametrize("action,extra", [
        ("crash", {}),
        ("hang", {"stall_timeout": 0.5}),
    ])
    def test_fault_resume_matches_serial(self, clean, action, extra,
                                         monkeypatch):
        monkeypatch.setattr(worker.execute_item, "checkpoint_codec",
                            _CountingDeltas)
        monkeypatch.setattr(_CountingDeltas, "shipped", 0)
        session = ClouSession(
            ClouConfig(fault_spec=f"{action}@engine.candidate#{FAULT_AT}"),
            jobs=2, cache=False, timeout=60, retries=2, **extra)
        faulted = session.analyze(AnalysisRequest.analyze(
            SOURCE, engine="pht", name=UNIT, functions=(FUNCTION,)))
        assert session.stats.resumed >= 1
        assert _functions(faulted) == _functions(clean)
        # The retry's deltas extend the resume payload: no witness
        # crossed the pipe twice, even across the kill.
        assert _CountingDeltas.shipped == \
            len(faulted.functions[0].witnesses)
