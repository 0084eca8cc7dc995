"""Tests for the runtime DES sanitizer (repro.analysis.sanitizer)."""

import pytest

from repro.analysis import SanitizerError, collect_reports, reset_registry
from repro.sim import SimulationError, Simulator
from repro.sim.channel import Channel
from repro.sim.resources import Resource, Store
from repro.units import GBps, ns


@pytest.fixture(autouse=True)
def clean_registry():
    """Isolate the module-level sanitizer registry per test."""
    reset_registry()
    yield
    reset_registry()


def kinds(report):
    return [v.kind for v in report.violations]


# ---------------------------------------------------------------------------
# Enablement
# ---------------------------------------------------------------------------


def test_disabled_by_default():
    sim = Simulator()
    assert sim.sanitizer is None
    assert sim.sanitizer_report() is None


def test_env_var_enables(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert Simulator().sanitizer is not None
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert Simulator().sanitizer is None
    # Explicit argument beats the environment.
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert Simulator(sanitize=False).sanitizer is None


def test_registry_collects_every_sanitized_sim():
    Simulator(sanitize=True)
    Simulator(sanitize=True)
    Simulator()  # unsanitized: not registered
    reports = collect_reports()
    assert len(reports) == 2
    assert collect_reports() == []  # collection drains the registry


# ---------------------------------------------------------------------------
# Violation detection
# ---------------------------------------------------------------------------


def test_causality_violation_recorded():
    sim = Simulator(sanitize=True)
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)
    report = sim.sanitizer_report()
    assert kinds(report) == ["causality"]
    v = report.violations[0]
    assert v.details["scheduled_t"] == -1.0
    assert "behind clock" in v.message


def test_event_leak_detected():
    sim = Simulator(sanitize=True)
    sim.timeout(ns(10))  # scheduled, never drained
    report = sim.sanitizer_report()
    assert kinds(report) == ["event-leak"]
    assert report.pending_heap_events == 1


def test_clean_drained_run_is_ok():
    sim = Simulator(sanitize=True)

    def proc():
        yield sim.timeout(ns(10))

    sim.process(proc())
    sim.run()
    report = sim.sanitizer_report()
    assert report.ok
    assert report.events_processed == sim.events_processed
    assert report.pending_processes == 0


def test_resource_leak_detected():
    sim = Simulator(sanitize=True)
    res = Resource(sim, capacity=1, name="dma-engine")

    def leaker():
        yield res.acquire()
        yield sim.timeout(ns(5))
        # acquire never released

    sim.process(leaker())
    sim.run()
    report = sim.sanitizer_report()
    assert "resource-leak" in kinds(report)
    assert any(v.details.get("resource") == "dma-engine" for v in report.violations)


def test_blocked_putter_detected():
    sim = Simulator(sanitize=True)
    store = Store(sim, capacity=1, name="inject-queue")

    def producer():
        yield store.put("a")
        yield store.put("b")  # queue full, nobody consumes

    sim.process(producer())
    sim.run()
    report = sim.sanitizer_report()
    assert "blocked-putter" in kinds(report)
    assert "process-leak" in kinds(report)  # the stuck producer itself


def test_idle_consumer_daemon_not_flagged():
    """The card's service loops rest on ``.get()`` of an empty queue —
    the normal end state, never a leak."""
    sim = Simulator(sanitize=True)
    store = Store(sim, name="service-queue")

    def daemon():
        while True:
            yield store.get()

    def producer():
        yield store.put("pkt")
        yield sim.timeout(ns(1))

    sim.process(daemon())
    sim.process(producer())
    sim.run()
    report = sim.sanitizer_report()
    assert report.ok
    assert report.pending_processes == 1
    assert report.idle_consumers == 1


def test_channel_backlog_detected():
    sim = Simulator(sanitize=True)
    ch = Channel(sim, bandwidth=GBps(1.0), latency=ns(100.0), name="torus-x")
    ch.transfer(4096)  # serializer time reserved, never drained
    report = sim.sanitizer_report()
    assert "channel-backlog" in kinds(report)
    assert "event-leak" in kinds(report)


def test_abort_skips_end_state_checks():
    sim = Simulator(sanitize=True)

    def crasher():
        sim.timeout(ns(1000))  # stray event that would read as a leak
        yield sim.timeout(ns(1))
        raise RuntimeError("deliberate model failure")

    with pytest.raises(RuntimeError, match="deliberate"):
        sim.run_process(crasher())
    report = sim.sanitizer_report()
    assert report.aborted
    assert report.ok  # no leak noise from a crashed run


def test_finalize_is_idempotent():
    sim = Simulator(sanitize=True)
    sim.timeout(ns(10))
    first = sim.sanitizer_report()
    assert sim.sanitizer_report() is first
    assert len(first.violations) == 1


def test_report_render_mentions_counts():
    sim = Simulator(sanitize=True)
    sim.timeout(ns(10))
    text = sim.sanitizer_report().render()
    assert "1 violation(s)" in text
    assert "[event-leak]" in text


# ---------------------------------------------------------------------------
# Cross-process stats guard
# ---------------------------------------------------------------------------


class _Stats:
    def __init__(self):
        self.count = 0

    def bump(self):
        self.count += 1


def test_guard_stats_same_process_passes_through():
    sim = Simulator(sanitize=True)
    guarded = sim.sanitizer.guard_stats(_Stats())
    guarded.count = 3
    guarded.bump()
    assert guarded.count == 4


def test_guard_stats_cross_process_write_raises():
    sim = Simulator(sanitize=True)
    other_pid = sim.sanitizer.origin_pid + 1
    guarded = sim.sanitizer.guard_stats(_Stats(), getpid=lambda: other_pid)
    with pytest.raises(SanitizerError, match="cross-process"):
        guarded.count = 3
    with pytest.raises(SanitizerError, match="cross-process"):
        guarded.bump()
    report = sim.sanitizer_report()
    assert kinds(report).count("stats-cross-process") == 2


# ---------------------------------------------------------------------------
# Bit-identity: sanitized == unsanitized
# ---------------------------------------------------------------------------


def kernel_workload(sim: Simulator, n_procs: int, n_steps: int) -> None:
    """A representative mix of timeouts, event waits, and channel traffic.

    Deterministic: delays derive only from loop indices.  Mostly Timeouts
    (firmware costs, link serialization) with a sprinkling of triggered
    Events (completion notifications) and Channel transfers.
    """
    ch = Channel(sim, bandwidth=GBps(4.0), latency=ns(120.0), name="selftest-link")
    rendezvous = [sim.event() for _ in range(n_procs // 4 or 1)]

    def worker(i):
        for k in range(n_steps):
            yield sim.timeout((i % 13) + 0.5 * (k % 7))
            # Fire-and-forget notification nobody joins on (posted-write
            # completions, flushed packets): pure kernel dispatch.
            sim.timeout(0.25 * (k % 5))
            if k % 16 == 0:
                yield ch.transfer(512 + 64 * (i % 8))
        ev = rendezvous[i % len(rendezvous)]
        if not ev.triggered:
            ev.succeed(i)

    def waiter(j):
        yield rendezvous[j]

    for j in range(len(rendezvous)):
        sim.process(waiter(j))
    for i in range(n_procs):
        sim.process(worker(i))


def test_sanitized_run_is_bit_identical():
    """Observation-only: same clock, same event count, with or without."""

    def run(sanitize):
        sim = Simulator(sanitize=sanitize)
        kernel_workload(sim, n_procs=16, n_steps=20)
        sim.run()
        return sim.now, sim.events_processed

    assert run(False) == run(True)
    reset_registry()
