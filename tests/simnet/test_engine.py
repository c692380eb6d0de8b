"""Unit tests for the discrete-event kernel."""

import pytest

from repro.simnet.engine import (
    AllOf,
    AnyOf,
    DeadlockError,
    Event,
    Interrupt,
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


def test_any_of_fires_on_first():
    sim = Simulator()
    t1 = sim.timeout(1.0, "one")
    t2 = sim.timeout(2.0, "two")
    got = []

    def waiter():
        values = yield sim.any_of([t1, t2])
        got.append((sim.now, values))

    sim.spawn(waiter())
    sim.run()
    assert got[0][0] == 1.0
    assert got[0][1] == {t1: "one"}


def test_all_of_waits_for_every_event():
    sim = Simulator()
    t1 = sim.timeout(1.0, "one")
    t2 = sim.timeout(3.0, "two")
    got = []

    def waiter():
        values = yield sim.all_of([t1, t2])
        got.append((sim.now, values))

    sim.spawn(waiter())
    sim.run()
    assert got == [(3.0, {t1: "one", t2: "two"})]


def test_all_of_empty_triggers_immediately():
    sim = Simulator()
    got = []

    def waiter():
        yield sim.all_of([])
        got.append(sim.now)

    sim.spawn(waiter())
    sim.run()
    assert got == [0.0]


def test_any_of_empty_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        AnyOf(sim, [])


def test_condition_with_non_event_rejected():
    sim = Simulator()
    with pytest.raises(TypeError):
        AllOf(sim, [object()])


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


def test_interrupt_is_catchable():
    sim = Simulator()
    log = []

    def victim():
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))
        yield sim.timeout(1.0)
        log.append(("done", sim.now))

    proc = sim.spawn(victim())

    def attacker():
        yield sim.timeout(2.0)
        proc.interrupt(cause="why")

    sim.spawn(attacker())
    sim.run()
    assert log == [("interrupted", 2.0, "why"), ("done", 3.0)]


def test_unhandled_interrupt_is_an_error():
    sim = Simulator()

    def victim():
        yield sim.timeout(100.0)

    proc = sim.spawn(victim())

    def attacker():
        yield sim.timeout(1.0)
        proc.interrupt()

    sim.spawn(attacker())
    with pytest.raises(SimulationError):
        sim.run()


def test_interrupt_finished_process_is_error():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    proc = sim.spawn(quick())
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


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


def test_call_at_runs_callable():
    sim = Simulator()
    calls = []
    sim.call_at(3.0, calls.append, "hello")
    sim.run()
    assert calls == ["hello"]
    assert sim.now == 3.0


def test_call_at_in_past_rejected():
    sim = Simulator()

    def proc():
        yield sim.timeout(5.0)
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)

    sim.spawn(proc())
    sim.run()


def test_call_at_nan_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_at(float("nan"), lambda: None)
    assert sim.peek() == float("inf")


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


def test_failed_child_fails_all_of_waiter():
    sim = Simulator()
    caught = []

    def child_ok():
        yield sim.timeout(2.0)

    def child_bad():
        yield sim.timeout(1.0)
        raise ValueError("bad child")

    def parent():
        try:
            yield sim.all_of([sim.spawn(child_ok()), sim.spawn(child_bad())])
        except ValueError as exc:
            caught.append(str(exc))
        # Let the surviving child finish so the run drains cleanly.
        yield sim.timeout(5.0)

    sim.spawn(parent())
    sim.run()
    assert caught == ["bad child"]
