"""Overload signals: queue shedding, deadlines and the circuit breaker.

A serving layer over a CPU-bound engine must bound its queue or latency
grows without limit under overload.  The evaluation queue
(:class:`~repro.service.batcher.MicroBatcher`) holds at most ``limit``
entries, one per content key queued or evaluating; a new key beyond
that is *shed* immediately with :class:`QueueFull` (HTTP 429 and a
``Retry-After`` hint), which keeps time-to-decision constant under
overload instead of letting every client time out.  Cache hits and
requests that join an entry already queued take no slot -- only work
that will actually reach the engine is counted.

Deadlines are enforced at the handler: a request that cannot be answered
within its (per-request or server-default) deadline gets HTTP 504.  The
underlying evaluation is *not* cancelled -- its entry belongs to the
queue, so its result still lands in the cache, turning a timed-out
request into a warm entry for the next attempt.
"""

from __future__ import annotations

import time as _time
from typing import Callable

from .metrics import ServiceMetrics

__all__ = ["BreakerOpen", "CircuitBreaker", "QueueFull"]


class QueueFull(RuntimeError):
    """The evaluation queue is at capacity; shed with 429 + Retry-After."""

    def __init__(self, limit: int, retry_after: float = 1.0):
        super().__init__(f"job queue full ({limit} in flight)")
        self.limit = limit
        self.retry_after = retry_after


class BreakerOpen(RuntimeError):
    """The circuit breaker is open; shed with 503 + Retry-After."""

    def __init__(self, retry_after: float):
        super().__init__("circuit breaker open (engine failing)")
        self.retry_after = retry_after


class CircuitBreaker:
    """Trip open after consecutive engine failures; recover via a probe.

    Closed (normal) -> *threshold* consecutive infrastructure failures
    open the breaker -> engine-bound requests are shed instantly with
    503 + Retry-After for *cooldown* seconds -> half-open: exactly one
    probe request is let through; its success closes the breaker, its
    failure re-opens a full cooldown.  Request-shaped failures (bad
    request, model deadlock) never count -- the breaker watches engine
    *health*, not input quality -- and a probe ending in one of them
    releases the probe slot (:meth:`release_probe`) so the next request
    probes instead of being shed forever.  Used from the event-loop
    thread only.
    """

    def __init__(
        self,
        threshold: int = 5,
        cooldown: float = 5.0,
        metrics: ServiceMetrics | None = None,
        clock: Callable[[], float] = _time.monotonic,
    ):
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        if cooldown <= 0:
            raise ValueError("breaker cooldown must be > 0")
        self.threshold = threshold
        self.cooldown = cooldown
        self._metrics = metrics
        self._clock = clock
        self._failures = 0
        self._opened_at: float | None = None
        self._probing = False

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at >= self.cooldown:
            return "half-open"
        return "open"

    @property
    def retry_after(self) -> float:
        """Seconds until the next probe is allowed (0 when closed)."""
        if self._opened_at is None:
            return 0.0
        return max(0.0, self.cooldown - (self._clock() - self._opened_at))

    def allow(self) -> bool:
        """Whether one more engine-bound request may proceed now."""
        if self._opened_at is None:
            return True
        if self._clock() - self._opened_at < self.cooldown or self._probing:
            if self._metrics is not None:
                self._metrics.inc("repro_breaker_rejected_total")
            return False
        self._probing = True  # half-open: a single probe goes through
        return True

    def release_probe(self) -> None:
        """Give back a half-open probe slot without recording an outcome.

        A probe request can end in a way that says nothing about engine
        health (shed by admission, model deadlock, bad request,
        cancellation).  Those paths must still free the probe slot --
        otherwise ``allow()`` keeps returning ``False`` forever and the
        breaker wedges open until restart.  No-op when not probing.
        """
        self._probing = False

    def record_success(self) -> None:
        self._failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        probing, self._probing = self._probing, False
        if self._opened_at is not None:
            if probing:  # the half-open probe failed: re-open in full
                self._opened_at = self._clock()
                self._trip()
            return
        self._failures += 1
        if self._failures >= self.threshold:
            self._opened_at = self._clock()
            self._trip()

    def _trip(self) -> None:
        if self._metrics is not None:
            self._metrics.inc("repro_breaker_open_total")
