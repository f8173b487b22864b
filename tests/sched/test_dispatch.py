"""Memo-affine dispatch: the slot-selection rule and its effect.

An idle slot first takes a queued item whose affinity key it has
already run (so one function's ``pht`` and ``stl`` items share one
worker-side S-AEG), otherwise the queue head.  Affinity may reorder
execution but never the output.
"""

import json
import os
import time

from repro.bench.synthetic import openssl_like_source
from repro.clou import ClouConfig
from repro.clou.serialize import module_report_dict
from repro.sched import AnalysisRequest, ClouSession, run_items
from repro.sched.scheduler import _MAX_BYPASS, DispatchQueue, select_item


def _queue(keys, order=None):
    queue = DispatchQueue(list(keys))
    for index in (range(len(keys)) if order is None else order):
        queue.push(index)
    return queue


def _drain(queue, warm):
    picks = []
    while len(queue):
        index = select_item(queue, warm)
        queue.take(index)
        picks.append(index)
    return picks


class TestSelectionRule:
    def test_cold_slot_takes_the_head(self):
        queue = _queue(["f1", "f2", "f1"])
        assert select_item(queue, ()) == 0
        assert select_item(queue, ("zz",)) == 0

    def test_warm_key_is_preferred(self):
        queue = _queue(["f1", "f2", "f3", "f2"])
        assert select_item(queue, ("f2",)) == 1
        assert select_item(queue, ("f3",)) == 2

    def test_most_recent_warm_key_first(self):
        queue = _queue(["f0", "f1", "f2"])
        assert select_item(queue, ("f2", "f1")) == 2
        assert select_item(queue, ("f9", "f1")) == 1

    def test_keyless_items_are_fifo(self):
        assert _drain(_queue([None] * 4), ("f1",)) == [0, 1, 2, 3]

    def test_warm_picks_take_the_oldest_item_of_the_key(self):
        queue = _queue(["a", "b", "a", "b", "a"])
        assert _drain(queue, ("a",)) == [0, 2, 4, 1, 3]

    def test_requeued_item_goes_to_the_back_once(self):
        queue = _queue(["a", "b", "c"])
        queue.take(0)
        queue.push(0)                     # a retry
        assert len(queue) == 3
        assert _drain(queue, ()) == [1, 2, 0]

    def test_front_push_restores_the_head(self):
        queue = _queue(["a", "b"])
        queue.take(0)
        queue.push(0, front=True)         # send failed: not an attempt
        assert _drain(queue, ("b",)) == [1, 0]
        queue = _queue(["a", "b"])
        queue.take(0)
        queue.push(0, front=True)
        assert _drain(queue, ()) == [0, 1]

    def test_requeued_item_is_not_starved(self):
        """A requeued item at the head is passed over at most
        ``_MAX_BYPASS`` times by warm picks, however many warm items
        keep arriving behind it."""
        keys = ["cold"] + ["hot"] * (3 * _MAX_BYPASS)
        queue = _queue(keys, order=[0])
        queue.take(0)
        queue.push(0)                     # requeued after a crash
        for index in range(1, len(keys)):
            queue.push(index)
        picks = _drain(queue, ("hot",))
        assert picks.index(0) == _MAX_BYPASS

    def test_lookup_does_not_scan_the_queue(self):
        """Warm items queued behind a long cold prefix are found by key:
        draining stays linear (a scan per pick would be quadratic)."""
        size = 10000
        queue = _queue(["cold"] * size + ["hot"] * size)
        started = time.monotonic()
        picks = _drain(queue, ("hot",))
        assert time.monotonic() - started < 2.0
        assert sorted(picks) == list(range(2 * size))
        assert picks[:_MAX_BYPASS] == list(range(size, size + _MAX_BYPASS))


# -- the pool ------------------------------------------------------------


def _whoami(payload):
    time.sleep(0.2)
    return os.getpid()


_whoami.affinity_key = lambda payload: payload[0]


class TestPool:
    def test_same_key_items_share_a_worker(self):
        payloads = [("f1", "pht"), ("f2", "pht"), ("f1", "stl"),
                    ("f2", "stl")]
        pids = [outcome.value for outcome in
                run_items(_whoami, payloads, jobs=2)]
        assert pids[0] == pids[2] and pids[1] == pids[3]
        assert pids[0] != pids[1]

    def test_two_engine_multi_function_unit_matches_serial(self):
        source = openssl_like_source(n_functions=4, seed=5)
        config = ClouConfig(timeout_seconds=60.0)
        batch = [AnalysisRequest.analyze(source, engine=engine,
                                         name="unit.c", config=config)
                 for engine in ("pht", "stl")]

        def stable(jobs):
            results = ClouSession(jobs=jobs, cache=False).run(batch)
            return json.dumps([module_report_dict(result.report,
                                                  stable=True)
                               for result in results], sort_keys=True)

        assert stable(2) == stable(1)
