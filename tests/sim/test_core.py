"""Unit tests for the discrete-event simulation kernel."""

import math

import pytest

from repro.cuda.stream import CudaStream
from repro.sim import Chain, SimulationError, Simulator


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


def test_non_finite_timeout_rejected():
    """Regression: NaN compares false against every bound, so it sailed
    through the old `delay < 0` guard and corrupted event-heap ordering."""
    import math

    sim = Simulator()
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(SimulationError):
            sim.timeout(bad)


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


def test_unjoined_process_is_processed_as_it_returns():
    """With nothing joined, a returning process takes its value at once
    and queues no completion: an observer later in the same instant
    already sees it done."""
    sim = Simulator()
    seen = []

    def child():
        yield sim.timeout(3)
        return "v"

    proc = sim.process(child())

    def observer():
        yield sim.timeout(3)  # pops right after the child's timeout
        seen.append((sim.now, proc.processed, proc.value))

    sim.process(observer())
    sim.run()
    assert seen == [(3.0, True, "v")]
    assert not proc.is_alive
    # Two start wakes and two timeouts; no completion event.
    assert sim.events_processed == 4


def test_late_joiner_of_a_returned_process_resumes_at_that_instant():
    sim = Simulator()

    def child():
        yield sim.timeout(4)
        return "result"

    proc = sim.process(child())

    def joiner():
        yield sim.timeout(4)  # pops after the child has returned
        val = yield proc
        return (sim.now, val)

    assert sim.run_process(joiner()) == (4.0, "result")


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


def test_failed_event_nobody_waits_on_surfaces():
    """Any failed event that pops with no callbacks is re-raised by run(),
    not only a crashed Process."""
    sim = Simulator()
    sim.event().fail(ValueError("nobody reads this"))
    with pytest.raises(ValueError, match="nobody reads this"):
        sim.run()


def test_failed_stream_item_nobody_waits_on_surfaces():
    # The stream worker fails the item's done event; nobody yields it.
    sim = Simulator()

    def thunk():
        raise ValueError("bad work item")

    CudaStream(sim).enqueue(thunk)
    with pytest.raises(ValueError, match="bad work item"):
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
    assert sim.pending_entries() == []



def test_run_process_drains_the_queue():
    """The watched process returning does not end the run: everything the
    model still has scheduled fires, as it would under run()."""
    sim = Simulator()
    fired = []

    def background():
        yield sim.timeout(50)
        fired.append(sim.now)

    def watched():
        yield sim.timeout(10)
        return sim.now

    sim.process(background())
    assert sim.run_process(watched()) == 10.0
    assert fired == [50.0]
    assert sim.now == 50.0
    assert sim.pending_entries() == []


def test_run_is_not_reentrant():
    """Neither entry point may start a second loop inside a running one,
    and a rejected ``run_process`` leaves its generator unscheduled."""
    sim = Simulator()
    errors = []
    inner_ran = []

    def inner():
        inner_ran.append(sim.now)
        yield sim.timeout(1)

    def outer():
        yield sim.timeout(1)
        for nested in (sim.run, lambda: sim.run_process(inner())):
            try:
                nested()
            except SimulationError as exc:
                errors.append(str(exc))

    sim.process(outer())
    sim.run()
    assert errors == ["run() is not reentrant"] * 2
    assert inner_ran == []


class _Toy(Chain):
    """A chain with no model behind it: each stage logs ``(now, "c")``,
    then waits the next of *waits*, or raises it when it is an exception."""

    __slots__ = ("waits", "log")

    def __init__(self, sim, waits, log):
        self.waits = list(waits)
        self.log = log
        super().__init__(sim, _Toy._stage)

    def _stage(self):
        self.log.append((self.sim.now, "c"))
        if not self.waits:
            return None
        wait = self.waits.pop(0)
        if isinstance(wait, BaseException):
            raise wait
        return wait


def test_chain_waits_interleave_with_timeouts_in_schedule_order():
    """A chain's start takes the slot of a Process's init event and each
    wait the slot of a Timeout: at equal times everything pops in schedule
    order, and each wait is one event."""
    sim = Simulator()
    log = []

    def proc(tag):
        yield sim.timeout(5)
        log.append((sim.now, tag))
        yield sim.timeout(5)
        log.append((sim.now, tag))

    sim.process(proc("p"))
    _Toy(sim, [5, 5], log)
    sim.process(proc("q"))
    sim.run()
    assert log == [
        (0.0, "c"),
        (5.0, "p"),
        (5.0, "c"),
        (5.0, "q"),
        (10.0, "p"),
        (10.0, "c"),
        (10.0, "q"),
    ]
    # Each process: init and two timeouts; the chain: start and two waits.
    assert sim.events_processed == 9


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_chain_bad_delay_fails_at_that_instant(bad):
    sim = Simulator(sanitize=True)
    log = []
    _Toy(sim, [3.0, bad, 1.0], log)
    with pytest.raises(SimulationError, match="timeout delay"):
        sim.run()
    assert sim.now == 3.0
    assert log == [(0.0, "c"), (3.0, "c")]
    assert [v.kind for v in sim.sanitizer.violations] == ["causality"]
    assert sim.sanitizer.aborted


def test_chain_crash_surfaces_after_the_rest_of_its_instant():
    """A raising stage ends the chain and fails an event at that instant:
    entries already queued for the instant run before run() re-raises."""
    sim = Simulator()
    log = []
    _Toy(sim, [3.0, RuntimeError("stage failed")], log)

    def later():
        yield sim.timeout(3.0)
        log.append((sim.now, "p"))

    sim.process(later())
    with pytest.raises(RuntimeError, match="stage failed"):
        sim.run()
    assert log == [(0.0, "c"), (3.0, "c"), (3.0, "p")]
    assert sim.now == 3.0
    assert sim.pending_entries() == []


def test_queued_chain_is_a_pending_entry_with_a_waiter():
    sim = Simulator(sanitize=True)
    chain = _Toy(sim, [], [])
    assert sim.pending_entries() == [(0.0, 1, chain)]
    leaks = [v for v in sim.sanitizer_report().violations if v.kind == "event-leak"]
    assert [v.details for v in leaks] == [{"count": 1, "with_waiters": 1}]
