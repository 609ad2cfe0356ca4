"""Ordering, clamping, budget and recorder invariants of the event engine.

The engine is one ``(time, insertion-seq)`` heap (see docs/ENGINE.md).
These tests pin down what that order promises: equal-timestamp events run
in insertion (FIFO) order, including events a callback schedules at the
live timestamp; sub-epsilon past drift is clamped rather than fatal;
budgets compose across resumed ``run()`` calls; and attaching a flight
recorder, which turns request pooling off, leaves the PMU totals unchanged.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro import api
from repro.core import AppSpec, ProfileSpec
from repro.core.profiler import PathFinder
from repro.core.spec import TraceSpec
from repro.sim import Engine, Machine, SimulationBudgetExceeded
from repro.workloads import RandomAccess


# -- FIFO ordering -----------------------------------------------------------


def _record_order(times):
    """Schedule one tagged event per entry of ``times``; run; return tags."""
    engine = Engine()
    order = []
    for seq, time in enumerate(times):
        engine.at(time, lambda s=seq: order.append(s))
    engine.run()
    return order


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.sampled_from([0.0, 1.0, 1.0, 2.5, 2.5, 2.5, 7.0]),
        min_size=1,
        max_size=40,
    )
)
def test_equal_timestamp_events_keep_fifo_order(times):
    order = _record_order(times)
    # The order is exactly a stable sort by timestamp: FIFO within one
    # timestamp, timestamps ascending.
    expected = [i for i, _ in sorted(enumerate(times), key=lambda p: p[1])]
    assert order == expected


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 3.0, 3.0, 5.0]),
            st.integers(min_value=0, max_value=2),
        ),
        min_size=1,
        max_size=25,
    )
)
def test_mid_drain_same_time_appends_keep_fifo_order(plan):
    """Events that schedule more work at the *same* timestamp stay FIFO.

    A callback's arrivals at the live timestamp run after every event
    already queued at that time, in the order they were scheduled.
    """
    engine = Engine()
    order = []
    for tag, (time, extra) in enumerate(plan):
        def cb(t=time, n=extra, base=tag):
            order.append(("outer", base))
            for k in range(n):
                engine.at(
                    t, lambda b=base, kk=k: order.append(("inner", b, kk))
                )
        engine.at(time, cb)
    engine.run()

    # Expected: per timestamp, every outer event in plan order, then the
    # inner events they scheduled, in scheduling order.
    expected = []
    for time in sorted({t for t, _ in plan}):
        outers = [(tag, n) for tag, (t, n) in enumerate(plan) if t == time]
        expected += [("outer", tag) for tag, _ in outers]
        expected += [("inner", tag, k) for tag, n in outers for k in range(n)]
    assert order == expected


# -- past-drift clamping -----------------------------------------------------


def test_at_clamps_subepsilon_past_drift():
    engine = Engine()
    hit = []
    # 0.1 is not exactly representable: 1000 * 0.1 accumulates drift, the
    # classic way a stage chain lands a few ULPs before "now".
    def late():
        engine.at(engine.now - engine.now * 1e-13, lambda: hit.append(engine.now))

    engine.at(100.0, late)
    engine.run()
    assert hit and hit[0] == 100.0


def test_at_rejects_genuinely_past_times():
    engine = Engine()
    engine.at(50.0, lambda: None)
    engine.run()
    with pytest.raises(ValueError, match="in the past"):
        engine.at(25.0, lambda: None)


# -- budget composition ------------------------------------------------------


def _load(engine: Engine, n: int = 50) -> None:
    for i in range(n):
        engine.at(float(i), lambda: None)


def test_per_call_max_events_compose_across_resumed_runs():
    engine = Engine()
    _load(engine)
    with pytest.raises(SimulationBudgetExceeded) as e1:
        engine.run(max_events=3)
    assert e1.value.events_executed == 3
    assert engine.events_executed == 3
    with pytest.raises(SimulationBudgetExceeded) as e2:
        engine.run(max_events=3)
    # The second bounded run gets its own fresh allowance of 3.
    assert e2.value.events_executed == 3
    assert engine.events_executed == 6


def test_persistent_budget_spans_run_calls():
    engine = Engine()
    _load(engine)
    engine.set_event_budget(10)
    engine.run(until=4.5)  # executes events at t=0..4 -> 5 events
    assert engine.events_executed == 5
    assert engine.event_budget_remaining == 5
    with pytest.raises(SimulationBudgetExceeded) as exc:
        engine.run()
    assert exc.value.events_executed == 5  # five more, then the ceiling
    assert engine.events_executed == 10
    assert engine.event_budget_remaining == 0


def test_budget_exact_under_midbatch_stop():
    """Stopping inside a bucket must not lose or double-count events."""
    engine = Engine()
    ran = []
    for i in range(10):
        engine.at(1.0, lambda i=i: ran.append(i))
    engine.at(1.0, engine.stop)  # 11th event at the same timestamp? no: stop mid
    engine.run()
    # stop() aborts after the current event; everything before it ran.
    assert ran == list(range(10))
    assert engine.events_executed == 11
    assert engine.pending_events == 0


# -- recorder neutrality -----------------------------------------------------


def _profile(trace):
    workload = RandomAccess(
        "fp-rand",
        1 << 20,
        num_ops=1200,
        read_ratio=0.7,
        dependent=True,
        seed=13,
        vpn_base=1 << 23,
    )
    spec = ProfileSpec(
        apps=[AppSpec(workload=workload, core=0, membind=0)],
        epoch_cycles=20000.0,
        trace=trace,
    )
    return PathFinder(Machine(), spec).run()


def test_attaching_a_recorder_does_not_change_pmu_totals():
    """Request pooling is off under a recorder and on without one, so
    equal totals show pooling is counter-neutral."""
    traced = _profile(TraceSpec(sample_every=4))
    untraced = _profile(None)
    assert traced.trace is not None and untraced.trace is None
    assert traced.trace.requests_traced > 0
    assert api.counters(traced) == api.counters(untraced)
