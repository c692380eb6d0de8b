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

The engine is deterministic: entries scheduled for the same simulated time
are processed in schedule order (FIFO), so a simulation driven by seeded
random streams is exactly reproducible.

The queue holds ``(time, seq, target, value)`` entries.  An :class:`Event`
target is triggered with *value* (a timeout, or a completion scheduled by
the transport layer).  Any other target is a plain call, ``target(value)``:
a process start, and a wait on an event that has already fired, each take
one such entry at the current time, so the process resumes behind every
entry already scheduled for that instant.  :meth:`Simulator.run` pops and
triggers entries inline; an event triggered while callbacks run is queued
and dispatched after them, in trigger order.

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

from collections import deque
from collections.abc import Generator
from heapq import heappop, heappush
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
        self._value = value
        # With nobody waiting there is nothing to dispatch; a later waiter
        # finds the event triggered and resumes through its own entry.
        if self._callbacks:
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

        If the event already triggered, *fn* runs in a fresh entry at the
        current time: callbacks never run synchronously inside the
        caller's frame.
        """
        if self._triggered:
            self.sim._call_now(fn, self)
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
        # Every field is set here rather than through Event.__init__: the
        # kernel creates one timeout per delay, the commonest entry.
        self.sim = sim
        self.name = "timeout"
        self._value = None
        self._ok = True
        self._triggered = False
        self._callbacks = []
        self._defused = False
        self.delay = delay
        heappush(sim._queue, (sim._now + delay, sim._seq, self, value))
        sim._seq += 1


class _Start:
    """What a process resumes with when it starts: a fired event's
    ``_ok``/``_value`` pair, with value ``None``."""

    __slots__ = ()
    _ok = True
    _value = None


_START = _Start()


class Process(Event):
    """A simulated process: a generator driven by the event kernel.

    The wrapped generator yields :class:`Event` objects.  When a yielded
    event triggers, the process resumes with the event's value (or has the
    failure exception thrown into it).  A Process is itself an Event that
    triggers when the generator finishes, carrying the generator's return
    value -- so processes can wait on each other.
    """

    __slots__ = ("gen", "_wake")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        if not isinstance(gen, Generator):
            raise TypeError(
                f"Process requires a generator, got {type(gen).__name__}; "
                "did you forget to call the process function?"
            )
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self.gen = gen
        #: the one bound method every wait of this process registers
        self._wake = self._resume
        sim._live_processes += 1
        # Kick off the process at the current simulated time.
        sim._call_now(self._wake, _START)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    # -- kernel internals --------------------------------------------------
    def _resume(self, ev: Event) -> None:
        try:
            if ev._ok:
                nxt = self.gen.send(ev._value)
            else:
                ev._defused = True  # this process consumes the failure
                nxt = self.gen.throw(ev._value)
        except StopIteration as stop:
            self.sim._live_processes -= 1
            self.succeed(stop.value)
            return
        except Exception as exc:
            # The process died with an error: fail the process event so any
            # process waiting on it has the exception thrown at its yield
            # point.  If nobody is waiting the kernel re-raises (fail-fast).
            self.sim._live_processes -= 1
            self.fail(exc)
            return
        if not isinstance(nxt, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {nxt!r}; processes must "
                "yield Event instances"
            )
        sim = self.sim
        if nxt.sim is not sim:
            raise SimulationError("event belongs to a different Simulator")
        if nxt._triggered:
            # Already fired: resume behind everything scheduled so far.
            heappush(sim._queue, (sim._now, sim._seq, self._wake, nxt))
            sim._seq += 1
        else:
            nxt._callbacks.append(self._wake)


class Simulator:
    """The discrete-event kernel: a clock plus a time-ordered event queue.

    All simulated entities (network resources, MPI processes, benchmark
    drivers) share one Simulator.  Time is a float in **seconds**; the
    kernel imposes no unit, but the whole of :mod:`repro` uses seconds.
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._queue: list[tuple[float, int, Any, Any]] = []
        self._seq = 0  # tie-breaker preserving FIFO order at equal times
        self._live_processes = 0
        #: events triggered while callbacks run, dispatched after them
        self._pending: deque[Event] = deque()
        self._busy = False  # True while callbacks run

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
        return Process(self, gen, name=name)

    # -- kernel internals ----------------------------------------------------
    def _call_now(self, fn: Callable[[Any], None], arg: Any) -> None:
        """Arrange for ``fn(arg)`` to run at the current time, behind every
        entry already scheduled for it."""
        heappush(self._queue, (self._now, self._seq, fn, arg))
        self._seq += 1

    def _schedule(self, when: float, ev: Event, value: Any) -> None:
        """Arrange for *ev* to trigger at absolute time *when*."""
        if not when >= self._now:  # NaN fails too
            raise SimulationError(
                f"cannot schedule at {when} before current time {self._now}"
            )
        heappush(self._queue, (when, self._seq, ev, value))
        self._seq += 1

    def _dispatch(self, ev: Event) -> None:
        """Run the callbacks of an event that has just triggered."""
        self._pending.append(ev)
        if self._busy:
            # Re-entrant trigger (a callback triggered another event):
            # queue it behind the current dispatch to keep FIFO semantics.
            return
        self._busy = True
        try:
            self._drain()
        finally:
            self._busy = False

    def _drain(self) -> None:
        """Dispatch queued events, and any they trigger, in trigger order."""
        pending = self._pending
        while pending:
            current = pending.popleft()
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
                pending.clear()
                raise current._value

    # -- main loop -----------------------------------------------------------
    def run(self, until: float | None = None, detect_deadlock: bool = True) -> None:
        """Run until the queue drains or simulated time reaches *until*.

        Raises :class:`ValueError` if *until* is NaN or before the current
        time, and :class:`DeadlockError` if the queue drains while spawned
        processes are still alive (they are all waiting on events that can
        no longer trigger) and *detect_deadlock* is true.
        """
        if until is not None and not until >= self._now:  # NaN fails too
            raise ValueError(
                f"run(until={until}) must not precede the current time {self._now}"
            )
        limit = float("inf") if until is None else until
        queue = self._queue
        pending = self._pending
        self._busy = True
        try:
            while queue:
                if queue[0][0] > limit:
                    self._now = limit
                    return
                when, _seq, target, value = heappop(queue)
                self._now = when
                if isinstance(target, Event):
                    if target._triggered:
                        # triggered by hand since it was scheduled -- drop.
                        continue
                    target._triggered = True
                    target._value = value
                    for fn in target._callbacks:
                        fn(target)
                else:
                    target(value)
                if pending:
                    self._drain()
        except BaseException:
            pending.clear()
            raise
        finally:
            self._busy = False
        if until is not None:
            self._now = until
        if detect_deadlock and self._live_processes > 0:
            raise DeadlockError(
                f"{self._live_processes} process(es) blocked with no pending events"
            )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")
