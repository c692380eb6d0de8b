"""Unit tests for the discrete-event kernel."""

import pytest

from repro.simnet.engine import (
    DeadlockError,
    Event,
    Simulator,
    SimulationError,
)


def test_timeout_ordering():
    sim = Simulator()
    log = []

    def proc(name, delay):
        yield sim.timeout(delay)
        log.append((sim.now, name))

    sim.spawn(proc("late", 3.0))
    sim.spawn(proc("early", 1.0))
    sim.spawn(proc("mid", 2.0))
    sim.run()
    assert log == [(1.0, "early"), (2.0, "mid"), (3.0, "late")]


def test_fifo_at_equal_times():
    sim = Simulator()
    log = []

    def proc(name):
        yield sim.timeout(1.0)
        log.append(name)

    for name in "abcde":
        sim.spawn(proc(name))
    sim.run()
    assert log == list("abcde")


def test_zero_delay_timeout_runs_at_current_time():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(0.0)
        seen.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert seen == [0.0]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_nan_timeout_rejected():
    # NaN passes a `delay < 0` check, and a NaN timeout would resume its
    # process before every other one, at sim.now == nan.
    sim = Simulator()
    woke = []

    def proc(delay):
        yield sim.timeout(delay)
        woke.append(delay)

    for delay in (1.0, 2.0):
        sim.spawn(proc(delay))
    with pytest.raises(ValueError):
        sim.timeout(float("nan"))
    sim.run()
    assert woke == [1.0, 2.0]
    assert sim.now == 2.0


def test_process_return_value_propagates():
    sim = Simulator()
    result = {}

    def child():
        yield sim.timeout(1.0)
        return 42

    def parent():
        value = yield sim.spawn(child())
        result["v"] = value

    sim.spawn(parent())
    sim.run()
    assert result["v"] == 42


def test_event_succeed_wakes_waiter_with_value():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        value = yield ev
        got.append((sim.now, value))

    def trigger():
        yield sim.timeout(2.5)
        ev.succeed("payload")

    sim.spawn(waiter())
    sim.spawn(trigger())
    sim.run()
    assert got == [(2.5, "payload")]


def test_event_fail_throws_into_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    def trigger():
        yield sim.timeout(1.0)
        ev.fail(ValueError("boom"))

    sim.spawn(waiter())
    sim.spawn(trigger())
    sim.run()
    assert caught == ["boom"]


def test_event_double_trigger_is_error():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_fail_requires_exception_instance():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_multiple_waiters_on_one_event():
    sim = Simulator()
    ev = sim.event()
    woken = []

    def waiter(i):
        v = yield ev
        woken.append((i, v))

    for i in range(3):
        sim.spawn(waiter(i))

    def trigger():
        yield sim.timeout(1.0)
        ev.succeed("x")

    sim.spawn(trigger())
    sim.run()
    assert woken == [(0, "x"), (1, "x"), (2, "x")]


def test_wait_on_already_triggered_event():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(7)
    got = []

    def waiter():
        v = yield ev
        got.append(v)

    sim.spawn(waiter())
    sim.run()
    assert got == [7]


def test_deadlock_detection():
    sim = Simulator()

    def stuck():
        yield sim.event()  # never triggered

    sim.spawn(stuck())
    with pytest.raises(DeadlockError):
        sim.run()


def test_deadlock_detection_can_be_disabled():
    sim = Simulator()

    def stuck():
        yield sim.event()

    sim.spawn(stuck())
    sim.run(detect_deadlock=False)  # must not raise


def test_run_until_stops_the_clock():
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(10.0)
        fired.append(sim.now)

    sim.spawn(proc())
    sim.run(until=5.0, detect_deadlock=False)
    assert sim.now == 5.0
    assert fired == []
    sim.run()
    assert fired == [10.0]


def test_run_until_before_now_rejected():
    """The clock never moves backwards: once it reads 12.0, running until
    5.0 is an error and leaves the clock and the queue alone."""
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(12.0)
        yield sim.timeout(3.0)
        fired.append(sim.now)

    sim.spawn(proc())
    sim.run(until=12.0, detect_deadlock=False)
    assert sim.now == 12.0
    with pytest.raises(ValueError):
        sim.run(until=5.0)
    assert sim.now == 12.0
    sim.run()
    assert fired == [15.0]


def test_run_until_nan_rejected():
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(1.0)
        fired.append(sim.now)

    sim.spawn(proc())
    with pytest.raises(ValueError):
        sim.run(until=float("nan"))
    assert (sim.now, fired) == (0.0, [])
    sim.run()
    assert fired == [1.0]


def test_wait_on_fired_event_resumes_behind_queued_entries():
    """A process that yields an event which has already fired resumes in
    a fresh entry at the current time, behind the entries already
    scheduled for that instant."""
    sim = Simulator()
    fired = sim.event()
    fired.succeed("v")
    log = []

    def waiter():
        yield sim.timeout(1.0)
        value = yield fired
        log.append(("waiter", sim.now, value))

    def other():
        yield sim.timeout(1.0)
        log.append(("other", sim.now))

    sim.spawn(waiter())
    sim.spawn(other())
    sim.run()
    assert log == [("other", 1.0), ("waiter", 1.0, "v")]
    # Two starts, two timeouts and the fresh entry: one each.
    assert sim._seq == 5


def test_add_callback_on_fired_event_runs_in_a_fresh_entry():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("v")
    log = []
    sim.timeout(0.0).add_callback(lambda e: log.append("queued first"))
    ev.add_callback(lambda e: log.append(("late", e.value)))
    assert log == []
    sim.run()
    assert log == ["queued first", ("late", "v")]


def test_process_requires_generator():
    sim = Simulator()

    def not_a_generator():
        return 5

    with pytest.raises(TypeError):
        sim.spawn(not_a_generator())


def test_yielding_non_event_is_error():
    sim = Simulator()

    def bad():
        yield 42

    sim.spawn(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_schedule_in_past_rejected():
    sim = Simulator()

    def proc():
        yield sim.timeout(5.0)
        with pytest.raises(SimulationError):
            sim._schedule(1.0, sim.event(), None)

    sim.spawn(proc())
    sim.run()


def test_schedule_at_nan_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim._schedule(float("nan"), sim.event(), None)
    assert sim.peek() == float("inf")


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(4.0)
    assert sim.peek() == 0.0 or sim.peek() == 4.0  # timeout schedules at 4.0
    # A fresh simulator with only that timeout:
    sim2 = Simulator()
    sim2.timeout(4.0)
    assert sim2.peek() == 4.0


def test_chain_of_processes_waiting_on_each_other():
    sim = Simulator()
    order = []

    def stage(name, prev):
        if prev is not None:
            yield prev
        yield sim.timeout(1.0)
        order.append((sim.now, name))
        return name

    p1 = sim.spawn(stage("first", None))
    p2 = sim.spawn(stage("second", p1))
    sim.spawn(stage("third", p2))
    sim.run()
    assert order == [(1.0, "first"), (2.0, "second"), (3.0, "third")]


def test_nested_event_trigger_from_callback_keeps_fifo():
    """An event callback that triggers another event must not starve or
    reorder the first event's remaining callbacks."""
    sim = Simulator()
    log = []
    ev1 = sim.event()
    ev2 = sim.event()
    ev1.add_callback(lambda e: log.append("a"))
    ev1.add_callback(lambda e: ev2.succeed())
    ev1.add_callback(lambda e: log.append("b"))
    ev2.add_callback(lambda e: log.append("c"))

    def trigger():
        yield sim.timeout(1.0)
        ev1.succeed()

    sim.spawn(trigger())
    sim.run()
    assert log == ["a", "b", "c"]


def test_child_process_exception_propagates_to_waiter():
    sim = Simulator()
    caught = []

    def child():
        yield sim.timeout(1.0)
        raise RuntimeError("child died")

    def parent():
        try:
            yield sim.spawn(child())
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.spawn(parent())
    sim.run()
    assert caught == ["child died"]


def test_unwaited_process_exception_surfaces_at_run():
    sim = Simulator()

    def lonely():
        yield sim.timeout(1.0)
        raise RuntimeError("nobody is listening")

    sim.spawn(lonely())
    with pytest.raises(RuntimeError, match="nobody is listening"):
        sim.run()
