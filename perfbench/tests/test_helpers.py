"""Tests for the benchmark's own helpers: span self-time arithmetic,
the tail-percentile rule, open-loop latency accounting and
machine-speed scaling.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import threading
import time

import pytest

from perfbench import loadgen, metrics
from perfbench.tracing import Span, Tracer, covered, layer_totals, self_times


def span(sid, name, start, end, parent=None, request=None):
    made = Span(sid, name, start, parent, request)
    made.end = end
    return made


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- self time ------------------------------------------------------------


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered(0, 10, [(1, 3), (2, 5), (8, 12)]) == 6
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(11, 12), (-3, -1)]) == 0


def test_self_time_subtracts_children_but_not_grandchildren():
    spans = [span(1, "root", 0, 10), span(2, "child", 1, 5, parent=1),
             span(3, "grandchild", 2, 4, parent=2),
             span(4, "child", 6, 7, parent=1)]
    own = self_times(spans)
    assert own == {1: 5, 2: 2, 3: 2, 4: 1}


def test_overlapping_children_on_other_threads_count_once():
    spans = [span(1, "client", 0, 10), span(2, "server", 2, 6, parent=1),
             span(3, "server", 4, 8, parent=1)]
    assert self_times(spans)[1] == 4


def test_layer_self_time_never_exceeds_span_total():
    spans = [span(1, "a", 0, 4), span(2, "b", 1, 3, parent=1),
             span(3, "a", 1.5, 2.5, parent=2)]
    for entry in layer_totals(spans).values():
        assert 0 <= entry["self"] <= entry["total"]
    assert layer_totals(spans)["a"] == {"calls": 2, "total": 5.0,
                                        "self": 3.0}


def test_wrapped_calls_nest_and_carry_the_request():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.now += 2

    traced_inner = tracer.wrap(inner, "inner")

    def outer():
        clock.now += 1
        traced_inner()
        clock.now += 3

    tracer.adopt("req-7", None)
    tracer.wrap(outer, "outer")()
    totals = layer_totals(tracer.spans)
    assert totals["outer"]["total"] == 6 and totals["outer"]["self"] == 4
    assert totals["inner"]["self"] == 2
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].sid
    assert {s.request for s in tracer.spans} == {"req-7"}


def test_a_raising_call_is_recorded_as_a_failure():
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    wrapped = tracer.wrap(boom, "layer")
    try:
        wrapped()
    except ValueError:
        pass
    assert tracer.failures == {"layer": 1}
    assert [s.name for s in tracer.spans] == ["layer"]


def test_patches_are_undone():
    class Owner:
        def method(self):
            return 1

    tracer = Tracer()
    original = Owner.__dict__["method"]
    tracer.patch_method(Owner, "method",
                        tracer.wrap(original, "owner.method"))
    assert Owner().method() == 1 and len(tracer.spans) == 1
    tracer.restore()
    assert Owner.__dict__["method"] is original


# -- the tail percentile ---------------------------------------------------


def test_p90_needs_a_hundred_distinct_samples():
    assert metrics.supported_percentile(list(range(100))) == 90.0
    assert metrics.beyond(list(range(100)), 90) == 10
    assert metrics.supported_percentile(list(range(99))) == 75.0


def test_highest_supported_rung_grows_with_the_sample():
    assert metrics.supported_percentile(list(range(1000))) == 99.0
    assert metrics.supported_percentile(list(range(10000))) == 99.9
    assert metrics.supported_percentile(list(range(15))) is None


def test_ties_at_the_cut_are_not_beyond_it():
    assert metrics.supported_percentile([5.0] * 500) is None


def test_nearest_rank_percentile():
    assert metrics.percentile([3, 1, 2, 4], 50) == 2
    assert metrics.percentile([3, 1, 2, 4], 90) == 4
    assert metrics.percentile(list(range(1, 101)), 90) == 90


# -- open-loop latency accounting -------------------------------------------


def test_latency_runs_from_the_due_time():
    records = [(0.0, 0.0, 0.2), (0.1, 0.2, 0.5)]
    assert metrics.due_latencies(records) == [0.2, 0.4]


def test_waiting_for_a_busy_connection_is_not_generator_lateness():
    records = [(0.0, 0.0, 0.2), (0.1, 0.2, 0.5), (0.6, 0.65, 0.7)]
    free_at = [0.0, 0.2, 0.5]
    late = metrics.lateness(records, free_at)
    assert late[0] == 0 and late[1] == 0
    assert abs(late[2] - 0.05) < 1e-12


def test_a_stall_charges_every_request_queued_behind_it():
    plan = [loadgen.Planned(i, 0.01 * i, "read", "pht") for i in range(3)]
    done = threading.Event()

    def slow(planned):
        time.sleep(0.15 if planned.index == 0 else 0.0)
        if planned.index == 2:
            done.set()
        return planned.index

    records = loadgen.run(plan, [slow])
    assert done.is_set()
    assert [r.outcome for r in records] == [0, 1, 2]
    latencies = metrics.due_latencies([(r.due, r.sent, r.done)
                                       for r in records])
    assert latencies[1] >= 0.13 and latencies[2] >= 0.12
    late = metrics.lateness([(r.due, r.sent, r.done) for r in records],
                            [r.free for r in records])
    assert max(late) < 0.05


def test_a_failed_request_is_recorded_not_raised():
    plan = [loadgen.Planned(0, 0.0, "read", "pht")]

    def broken(planned):
        raise RuntimeError("daemon said no")

    [record] = loadgen.run(plan, [broken])
    assert record.error == "RuntimeError: daemon said no"
    assert record.done >= record.sent


def test_schedule_is_seeded_and_exact():
    plan = loadgen.schedule(3, rate=3.5, seconds=30, write_share=0.3,
                            functions=12)
    assert plan == loadgen.schedule(3, rate=3.5, seconds=30,
                                    write_share=0.3, functions=12)
    assert len(plan) == 105
    writes = [p for p in plan if p.kind == "write"]
    assert len(writes) == 32
    assert [p.edit for p in writes] == list(range(32))
    assert all(0 <= p.function < 12 for p in writes)
    assert [p.offset for p in plan] == sorted(p.offset for p in plan)
    assert all(0 <= p.offset < 30 for p in plan)
    assert plan != loadgen.schedule(4, rate=3.5, seconds=30,
                                    write_share=0.3, functions=12)


# -- machine-speed scaling ----------------------------------------------------


def test_an_interval_is_scaled_by_the_samples_on_either_side():
    clock = FakeClock()
    readings = iter([0.010, 0.030, 0.020])
    speed = metrics.Speed(clock=clock, kernel=lambda: next(readings))
    for now in (0.0, 10.0, 20.0):
        clock.now = now
        speed.sample()
    reference = metrics.REFERENCE_KERNEL_S
    assert speed.factor(1.0, 9.0) == pytest.approx(reference / 0.020)
    assert speed.scale(11.0, 19.0) == pytest.approx(8.0 * reference / 0.025)
    # A sample taken exactly at an end brackets the interval.
    assert speed.factor(10.0, 20.0) == pytest.approx(reference / 0.025)
    # Past the last sample, the nearest one stands in.
    assert speed.factor(25.0, 30.0) == pytest.approx(reference / 0.020)

