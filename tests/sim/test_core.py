"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Channel, SimulationError, Simulator


def test_timeout_advances_clock():
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(10)
        log.append(sim.now)
        yield sim.timeout(5.5)
        log.append(sim.now)

    sim.process(proc())
    sim.run()
    assert log == [10.0, 15.5]


def test_timeout_value_passthrough():
    sim = Simulator()

    def proc():
        got = yield sim.timeout(3, value="payload")
        return got

    assert sim.run_process(proc()) == "payload"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_negative_timeout_message_explains_the_hazard():
    sim = Simulator()
    with pytest.raises(SimulationError, match="schedule into the past"):
        sim.timeout(-0.001)


def test_negative_push_delay_rejected():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError, match="negative delay"):
        sim._push(ev, -1)


def test_non_finite_timeout_rejected():
    """Regression: NaN compares false against every bound, so it sailed
    through the old `delay < 0` guard and corrupted event-heap ordering."""
    import math

    sim = Simulator()
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(SimulationError):
            sim.timeout(bad)
        ev = sim.event()
        with pytest.raises(SimulationError):
            sim._push(ev, bad)


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    ev = sim.event()
    log = []

    def waiter():
        val = yield ev
        log.append((sim.now, val))

    def trigger():
        yield sim.timeout(7)
        ev.succeed(42)

    sim.process(waiter())
    sim.process(trigger())
    sim.run()
    assert log == [(7.0, 42)]


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    def trigger():
        yield sim.timeout(1)
        ev.fail(ValueError("boom"))

    sim.process(waiter())
    sim.process(trigger())
    sim.run()
    assert caught == ["boom"]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("x"))


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_yield_on_already_processed_event_resumes_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("done")
    sim.run()  # process the event with no waiters
    log = []

    def late():
        val = yield ev
        log.append((sim.now, val))

    sim.process(late())
    sim.run()
    assert log == [(0.0, "done")]


def test_process_join_returns_value():
    sim = Simulator()

    def child():
        yield sim.timeout(4)
        return "result"

    def parent():
        proc = sim.process(child())
        val = yield proc
        return (sim.now, val)

    assert sim.run_process(parent()) == (4.0, "result")


def test_process_crash_propagates_to_joiner():
    sim = Simulator()

    def child():
        yield sim.timeout(1)
        raise RuntimeError("child died")

    def parent():
        try:
            yield sim.process(child())
        except RuntimeError as exc:
            return f"caught: {exc}"

    assert sim.run_process(parent()) == "caught: child died"


def test_unjoined_process_crash_surfaces():
    sim = Simulator()

    def child():
        yield sim.timeout(1)
        raise RuntimeError("nobody watching")

    sim.process(child())
    with pytest.raises(RuntimeError, match="nobody watching"):
        sim.run()


def test_deterministic_tie_break_is_schedule_order():
    sim = Simulator()
    order = []

    def make(tag):
        def proc():
            yield sim.timeout(5)
            order.append(tag)

        return proc

    for tag in "abcde":
        sim.process(make(tag)())
    sim.run()
    assert order == list("abcde")


def test_all_of_waits_for_everything():
    sim = Simulator()

    def proc():
        t1 = sim.timeout(3, value="a")
        t2 = sim.timeout(9, value="b")
        results = yield sim.all_of([t1, t2])
        return (sim.now, sorted(results.values()))

    assert sim.run_process(proc()) == (9.0, ["a", "b"])


def test_any_of_fires_on_first():
    sim = Simulator()

    def proc():
        t1 = sim.timeout(3, value="fast")
        t2 = sim.timeout(9, value="slow")
        results = yield sim.any_of([t1, t2])
        return (sim.now, list(results.values()))

    assert sim.run_process(proc()) == (3.0, ["fast"])


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def proc():
        yield sim.all_of([])
        return sim.now

    assert sim.run_process(proc()) == 0.0


def test_run_until_stops_clock_exactly():
    sim = Simulator()

    def proc():
        yield sim.timeout(100)

    sim.process(proc())
    sim.run(until=40)
    assert sim.now == 40.0
    sim.run()
    assert sim.now == 100.0


def test_run_until_past_rejected():
    sim = Simulator()

    def proc():
        yield sim.timeout(100)

    sim.process(proc())
    sim.run(until=50)
    with pytest.raises(SimulationError):
        sim.run(until=10)


def test_yield_non_event_rejected():
    sim = Simulator()

    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(SimulationError, match="expected an Event"):
        sim.run()


def test_cross_simulator_event_rejected():
    sim1 = Simulator()
    sim2 = Simulator()
    foreign = sim2.event()

    def proc():
        yield foreign

    sim1.process(proc())
    foreign.succeed()
    with pytest.raises(SimulationError, match="different Simulator"):
        sim1.run()


def test_run_process_detects_deadlock():
    sim = Simulator()
    ev = sim.event()  # never triggered

    def stuck():
        yield ev

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(stuck())


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(12)
    assert sim.peek() == 12.0


def test_nested_processes_chain():
    sim = Simulator()

    def level3():
        yield sim.timeout(1)
        return 3

    def level2():
        v = yield sim.process(level3())
        yield sim.timeout(1)
        return v + 10

    def level1():
        v = yield sim.process(level2())
        return v + 100

    assert sim.run_process(level1()) == 113
    assert sim.now == 2.0


def test_many_concurrent_processes():
    sim = Simulator()
    done = []

    def proc(i):
        yield sim.timeout(i % 17)
        done.append(i)

    for i in range(500):
        sim.process(proc(i))
    sim.run()
    assert sorted(done) == list(range(500))
    # Within one timestamp, schedule order is preserved.
    zero_delay = [i for i in done if i % 17 == 0]
    assert zero_delay == sorted(zero_delay)


@pytest.mark.parametrize("bad", [-1.0, -1e-12, float("nan"), float("inf")])
def test_bad_delays_rejected(bad):
    sim = Simulator()
    with pytest.raises(SimulationError, match="delay"):
        sim.timeout(bad)
    # The guard must fire before anything is scheduled.
    assert sim.pending_count() == 0


# ---------------------------------------------------------------------------
# Run/resume and timer cancellation keep the event stream intact
# ---------------------------------------------------------------------------


def _fingerprint(sim):
    return (sim.now, sim.events_processed, sim._seq)


def _mixed_workload(sim, n=40, rounds=12):
    ch = Channel(sim, bandwidth=4.0, latency=120.0)

    def worker(i):
        for k in range(rounds):
            yield sim.timeout((i % 7) + 0.5 * (k % 3))
            sim.timeout(0.25 * (k % 5))  # fire-and-forget
            if k % 4 == 0:
                yield ch.transfer(256 + 32 * (i % 4))

    for i in range(n):
        sim.process(worker(i))


def test_bounded_run_then_run_keeps_fingerprint():
    whole = Simulator()
    _mixed_workload(whole)
    whole.run()

    split = Simulator()
    _mixed_workload(split)
    split.run(until=300.0)
    assert split.now == 300.0 and split.pending_count() > 0
    split.run()
    assert _fingerprint(split) == _fingerprint(whole)


def test_cancel_is_idempotent():
    sim = Simulator()
    tm = sim.timeout(4.0, value="x")
    assert tm.cancel() is True
    assert tm.cancelled
    assert tm.cancel() is False
    assert tm.cancelled


def test_cancel_waited_on_timeout_raises():
    sim = Simulator()
    captured = {}

    def proc():
        tm = sim.timeout(5.0)
        captured["tm"] = tm
        yield tm

    sim.process(proc())
    sim.run(until=1.0)
    with pytest.raises(SimulationError, match="waiting on"):
        captured["tm"].cancel()
    sim.run()
    assert sim.now == 5.0


def test_cancel_fire_and_forget_keeps_event_count():
    """A cancelled timer still pops, as a no-op: the event count (and every
    downstream seq) is unchanged and its callbacks never run."""
    fired = []

    def run(do_cancel):
        sim = Simulator()

        def proc():
            tm = sim.timeout(4.0, value="x")
            tm.callbacks.append(fired.append)
            if do_cancel:
                assert tm.cancel() is True
            yield sim.timeout(10.0)

        sim.process(proc())
        sim.run()
        return _fingerprint(sim)

    cancelled = run(True)
    assert fired == []
    assert cancelled == run(False)
    assert len(fired) == 1


def test_cancel_after_fire_is_a_noop():
    """A retransmission layer cancelling timers it kept past their deadline
    gets False back and leaves the event stream untouched."""
    sim = Simulator()
    timers = []

    def retrier():
        for k in range(20):
            tm = sim.timeout(1.0 + 0.125 * (k % 8))
            timers.append(tm)
            yield tm

    sim.process(retrier())
    sim.run()
    before = _fingerprint(sim)
    assert [tm.cancel() for tm in timers] == [False] * len(timers)
    assert not any(tm.cancelled for tm in timers)
    assert _fingerprint(sim) == before
