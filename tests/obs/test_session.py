"""TraceSession / scope behaviour: recording, nesting, caps, kernel hooks.

Covers the recording half of ``repro.obs``: span lifecycle (explicit end,
context manager, event-callback riding, idempotence), the zero-event
``span_at`` path, counters and instants, the bounded buffer with its
``dropped`` accounting, run indexing across multiple simulators, and the
kernel's one active session (a nested activation records alone).
"""

import pytest

from repro.obs import TraceSession
from repro.sim import Channel, Resource, Simulator
from repro.sim import core as kernel
from repro.units import GBps, ns, us


def _spans(session):
    return [rec for rec in session.events if rec["ph"] == "X"]


def test_no_session_means_obs_is_none():
    sim = Simulator()
    assert sim._obs is None
    assert kernel._TRACE_SESSION is None


def test_span_records_begin_end_and_args():
    session = TraceSession(label="t")
    with session.activate():
        sim = Simulator()

        def proc():
            span = sim._obs.span("sim", "work", nbytes=64)
            yield sim.timeout(us(2.0))
            span.end()

        sim.process(proc())
        sim.run()
    (rec,) = _spans(session)
    assert rec["comp"] == "sim" and rec["name"] == "work"
    assert rec["ts"] == 0.0 and rec["dur"] == us(2.0)
    assert rec["args"] == {"nbytes": 64}
    assert rec["run"] == 0


def test_span_end_is_idempotent_and_context_manager_ends():
    session = TraceSession()
    with session.activate():
        sim = Simulator()

        def proc():
            with sim._obs.span("sim", "cm"):
                yield sim.timeout(ns(10.0))
            span = sim._obs.span("sim", "twice")
            yield sim.timeout(ns(5.0))
            span.end()
            span.end()  # no second record
            span.end_event(object())  # callback adapter, also a no-op now

        sim.process(proc())
        sim.run()
    assert [rec["name"] for rec in _spans(session)] == ["cm", "twice"]


def test_span_rides_completion_event_callback():
    session = TraceSession()
    with session.activate():
        sim = Simulator()
        done = sim.event()
        span = sim._obs.span("sim", "ride")
        done.callbacks.append(span.end_event)

        def proc():
            yield sim.timeout(us(1.0))
            done.succeed()

        sim.process(proc())
        sim.run()
    (rec,) = _spans(session)
    assert rec["name"] == "ride" and rec["dur"] == us(1.0)


def test_span_at_counter_instant_record_without_events():
    session = TraceSession()
    with session.activate():
        sim = Simulator()
        events_before = sim.events_processed
        sim._obs.span_at("pcie", "retro", 10.0, 25.0, nbytes=4)
        sim._obs.counter("sim", "q.depth", 3)
        sim._obs.instant("apenet", "drop", nbytes=128)
        assert sim.events_processed == events_before
    span, counter, instant = session.events
    assert span == {
        "ph": "X", "run": 0, "comp": "pcie", "name": "retro",
        "ts": 10.0, "dur": 15.0, "args": {"nbytes": 4},
    }
    assert counter["ph"] == "C" and counter["value"] == 3
    assert instant["ph"] == "i" and instant["args"] == {"nbytes": 128}


def test_named_channel_and_resource_emit_records():
    session = TraceSession()
    with session.activate():
        sim = Simulator()
        ch = Channel(sim, bandwidth=GBps(1.0), latency=ns(100.0), name="wire")
        res = Resource(sim, capacity=1, name="serv")

        def proc():
            yield ch.transfer(1024)
            yield res.acquire()
            yield sim.timeout(ns(50.0))
            res.release()

        sim.process(proc())
        sim.run()
    comps = {rec["comp"] for rec in session.events}
    assert comps == {"sim"}
    names = {rec["name"] for rec in session.events}
    assert "wire" in names
    assert {"serv.in_use", "serv.queue"} <= names


def test_max_events_cap_counts_drops():
    session = TraceSession(max_events=2)
    with session.activate():
        sim = Simulator()
        for i in range(5):
            sim._obs.counter("sim", "x", i)
    assert len(session.events) == 2
    assert session.dropped == 3
    assert session.payload()["dropped"] == 3


def test_run_index_increments_per_simulator():
    session = TraceSession()
    with session.activate():
        for _ in range(3):
            sim = Simulator()
            sim._obs.instant("sim", "born")
    assert session.runs == 3
    assert [rec["run"] for rec in session.events] == [0, 1, 2]


def test_nested_sessions_fan_out_spans_and_counters():
    """A nested activation records alone; the outer session resumes after."""
    outer = TraceSession(label="outer")
    inner = TraceSession(label="inner")
    with outer.activate():
        Simulator()._obs.instant("sim", "before")
        with inner.activate():
            assert kernel._TRACE_SESSION is inner
            sim = Simulator()

            def proc():
                span = sim._obs.span("sim", "inner", k=1)
                yield sim.timeout(ns(7.0))
                span.end()
                sim._obs.counter("sim", "c", 1)
                sim._obs.instant("sim", "i")
                sim._obs.span_at("sim", "retro", 0.0, 1.0)

            sim.process(proc())
            sim.run()
            assert [r["name"] for r in outer.events] == ["before"]
        assert kernel._TRACE_SESSION is outer
        Simulator()._obs.instant("sim", "after")
    assert kernel._TRACE_SESSION is None
    assert [(r["ph"], r["name"]) for r in inner.events] == [
        ("X", "inner"), ("C", "c"), ("i", "i"), ("X", "retro"),
    ]
    assert [r["name"] for r in outer.events] == ["before", "after"]
    assert (inner.runs, outer.runs) == (1, 2)


def test_components_and_span_count():
    session = TraceSession()
    with session.activate():
        sim = Simulator()
        sim._obs.span_at("pcie", "w", 0.0, 1.0)
        sim._obs.span_at("apenet", "tx", 0.0, 1.0)
        sim._obs.counter("gpu", "q", 1)
    assert session.components() == ["apenet", "gpu", "pcie"]
    assert session.span_count() == 2


def test_payload_shape_and_label_override():
    session = TraceSession(label="lbl")
    with session.activate():
        Simulator()
    payload = session.payload()
    assert payload["label"] == "lbl" and payload["runs"] == 1
    assert payload["events"] == [] and payload["dropped"] == 0
    assert session.payload(label="other")["label"] == "other"


def test_activation_is_exception_safe():
    session = TraceSession()
    with pytest.raises(RuntimeError):
        with session.activate():
            raise RuntimeError("boom")
    assert kernel._TRACE_SESSION is None
    assert Simulator()._obs is None
