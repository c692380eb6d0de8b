"""Discrete-event simulation engine.

This module implements the event-driven kernel that underpins the cluster
network simulator (:mod:`repro.simnet`) and the simulated MPI runtime
(:mod:`repro.smpi`).  It provides a small but complete process-oriented
discrete-event framework in the style of SimPy:

* a :class:`Simulator` owning a time-ordered event queue,
* :class:`Event` objects that processes can wait on,
* :class:`Timeout` events that fire after a simulated delay,
* :class:`Process` objects wrapping Python generators -- a process *yields*
  events and is resumed when they trigger.

The engine is deterministic: events scheduled for the same simulated time
are processed in schedule order (FIFO), so a simulation driven by seeded
random streams is exactly reproducible.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def proc(sim, name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.spawn(proc(sim, "a", 2.0))
>>> _ = sim.spawn(proc(sim, "b", 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

import heapq
from collections.abc import Generator
from typing import Any, Callable

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "SimulationError",
    "DeadlockError",
]


class SimulationError(RuntimeError):
    """Base class for errors raised by the simulation kernel."""


class DeadlockError(SimulationError):
    """Raised by :meth:`Simulator.run` when live processes remain but no
    events are scheduled -- i.e. every process is waiting on an event that
    can never trigger."""


class Event:
    """A one-shot occurrence that processes can wait for.

    An event starts *pending*; calling :meth:`succeed` (or :meth:`fail`)
    *triggers* it, delivering ``value`` to every waiting process and every
    registered callback.  Triggering twice is an error: events model
    occurrences, not channels.
    """

    __slots__ = ("sim", "_value", "_ok", "_triggered", "_callbacks", "name", "_defused")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._callbacks: list[Callable[["Event"], None]] = []
        # Set when a waiter consumes this event's failure; an un-defused
        # failed Process is re-raised by the kernel (fail-fast).
        self._defused = False

    # -- introspection ----------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """True if the event succeeded (meaningless before triggering)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value delivered by :meth:`succeed`, or the exception from
        :meth:`fail`."""
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, waking all waiters with *value*."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.sim._dispatch(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed; waiters receive *exc* as a throw."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exc
        self.sim._dispatch(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register *fn* to run when the event triggers.

        If the event already triggered, *fn* runs at the next dispatch
        opportunity (immediately from the kernel's perspective).
        """
        if self._triggered:
            # Already fired: schedule callback at current time to preserve
            # the invariant that callbacks never run synchronously inside
            # the caller's frame.
            self.sim.call_at(self.sim.now, fn, self)
        else:
            self._callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {self.name!r} {state}>"


class Timeout(Event):
    """An event that triggers automatically after ``delay`` simulated
    seconds.  Created via :meth:`Simulator.timeout`."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not delay >= 0:  # NaN fails too
            raise ValueError(f"timeout delay must be non-negative, got {delay}")
        super().__init__(sim, name="timeout")
        self.delay = delay
        sim._schedule(sim._now + delay, self, value)


class Process(Event):
    """A simulated process: a generator driven by the event kernel.

    The wrapped generator yields :class:`Event` objects.  When a yielded
    event triggers, the process resumes with the event's value (or has the
    failure exception thrown into it).  A Process is itself an Event that
    triggers when the generator finishes, carrying the generator's return
    value -- so processes can wait on each other.
    """

    __slots__ = ("gen", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        if not isinstance(gen, Generator):
            raise TypeError(
                f"Process requires a generator, got {type(gen).__name__}; "
                "did you forget to call the process function?"
            )
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self.gen = gen
        self._waiting_on: Event | None = None
        # Kick off the process at the current simulated time.
        boot = Event(sim, name="boot")
        boot.add_callback(self._resume)
        self._waiting_on = boot
        sim._schedule(sim.now, boot, None)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    # -- kernel internals --------------------------------------------------
    def _resume(self, ev: Event) -> None:
        if self._triggered:  # already finished; ignore
            return
        if ev is not self._waiting_on:
            # A stale event (one this process no longer waits on) fired; drop it.
            return
        self._waiting_on = None
        try:
            if ev._ok:
                nxt = self.gen.send(ev._value)
            else:
                ev._defused = True  # this process consumes the failure
                nxt = self.gen.throw(ev._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Exception as exc:
            # The process died with an error: fail the process event so any
            # process waiting on it has the exception thrown at its yield
            # point.  If nobody is waiting the kernel re-raises (fail-fast).
            self.fail(exc)
            return
        if not isinstance(nxt, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {nxt!r}; processes must "
                "yield Event instances"
            )
        if nxt.sim is not self.sim:
            raise SimulationError("event belongs to a different Simulator")
        self._waiting_on = nxt
        nxt.add_callback(self._resume)


class Simulator:
    """The discrete-event kernel: a clock plus a time-ordered event queue.

    All simulated entities (network resources, MPI processes, benchmark
    drivers) share one Simulator.  Time is a float in **seconds**; the
    kernel imposes no unit, but the whole of :mod:`repro` uses seconds.
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._queue: list[tuple[float, int, Event, Any]] = []
        self._seq = 0  # tie-breaker preserving FIFO order at equal times
        self._live_processes = 0
        self._dispatching: list[Event] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event factories ---------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a new :class:`Process` running *gen* at the current time."""
        proc = Process(self, gen, name=name)
        self._live_processes += 1
        proc.add_callback(self._process_done)
        return proc

    def call_at(self, when: float, fn: Callable, *args: Any) -> None:
        """Schedule plain callable *fn(*args)* at absolute time *when*."""
        if not when >= self._now:  # NaN fails too
            raise SimulationError(
                f"cannot schedule at {when} before current time {self._now}"
            )
        ev = Event(self, name="call_at")
        ev._callbacks.append(lambda _ev: fn(*args))
        self._schedule(when, ev, None)

    # -- kernel internals ----------------------------------------------------
    def _process_done(self, ev: Event) -> None:
        self._live_processes -= 1

    def _schedule(self, when: float, ev: Event, value: Any) -> None:
        """Arrange for *ev* to trigger at absolute time *when*."""
        if not when >= self._now:  # NaN fails too
            raise SimulationError(
                f"cannot schedule at {when} before current time {self._now}"
            )
        heapq.heappush(self._queue, (when, self._seq, ev, value))
        self._seq += 1

    def _dispatch(self, ev: Event) -> None:
        """Run the callbacks of an event that has just triggered."""
        dispatching = self._dispatching
        dispatching.append(ev)
        if len(dispatching) > 1:
            # Re-entrant trigger (a callback triggered another event):
            # queue it behind the current dispatch to keep FIFO semantics.
            return
        while dispatching:
            current = dispatching[0]
            callbacks, current._callbacks = current._callbacks, []
            for fn in callbacks:
                fn(current)
            if (
                not current._ok
                and not current._defused
                and isinstance(current, Process)
            ):
                # A process failed and nothing consumed the failure:
                # surface the error instead of swallowing it.
                dispatching.clear()
                raise current._value
            dispatching.pop(0)

    # -- main loop -----------------------------------------------------------
    def step(self) -> None:
        """Advance to and process the next scheduled event."""
        when, _seq, ev, value = heapq.heappop(self._queue)
        self._now = when
        if ev._triggered:
            # triggered by hand since it was scheduled -- drop silently.
            return
        ev.succeed(value)

    def run(self, until: float | None = None, detect_deadlock: bool = True) -> None:
        """Run until the queue drains or simulated time reaches *until*.

        Raises :class:`DeadlockError` if the queue drains while spawned
        processes are still alive (they are all waiting on events that can
        no longer trigger) and *detect_deadlock* is true.
        """
        while self._queue:
            when = self._queue[0][0]
            if until is not None and when > until:
                self._now = until
                return
            self.step()
        if until is not None:
            self._now = until
        if detect_deadlock and self._live_processes > 0:
            raise DeadlockError(
                f"{self._live_processes} process(es) blocked with no pending events"
            )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")
