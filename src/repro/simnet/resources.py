"""Bandwidth resources: the shared bit-pipes where contention happens.

Every potentially-congested element of the cluster -- a node's NIC transmit
side, its receive side, and each inter-switch stacking link -- is modelled
as a :class:`BandwidthResource`: a FIFO pipe that serialises transfers at a
fixed byte rate.  A transfer that arrives while the pipe is busy queues
behind the in-flight bytes; the queueing delay it experiences *is* the
contention the paper measures.

The model is message-granular (one reservation per message crossing the
resource) rather than packet-granular; per-frame costs are folded into the
wire-byte count by :class:`repro.simnet.topology.TcpModel`.  A reservation
is pure arithmetic that returns its drain time, so the transport layer
schedules one completion event per transmission attempt, however many
pipes the path crosses.  That keeps pure-Python simulation of
hundred-process benchmarks affordable while preserving the queueing
behaviour that produces the paper's distributions.
"""

from __future__ import annotations

from .engine import Simulator

__all__ = ["BandwidthResource", "ResourceStats"]


class ResourceStats:
    """Running statistics of one resource, for saturation analysis."""

    __slots__ = ("messages", "bytes", "busy_time", "max_backlog", "queued_messages")

    def __init__(self) -> None:
        self.messages = 0
        self.bytes = 0
        self.busy_time = 0.0
        self.max_backlog = 0.0
        self.queued_messages = 0  # arrivals that found the pipe busy

    def as_dict(self) -> dict:
        return {
            "messages": self.messages,
            "bytes": self.bytes,
            "busy_time": self.busy_time,
            "max_backlog": self.max_backlog,
            "queued_messages": self.queued_messages,
        }


class BandwidthResource:
    """A FIFO pipe with a fixed drain rate in bytes/second.

    Transfers are non-preemptive and served in arrival order.  The key
    quantity is :attr:`backlog`: how long a byte arriving *now* would wait
    before the pipe starts serving it.  The transport layer uses backlog
    both for contention jitter and for the TCP loss probability.
    """

    __slots__ = ("sim", "name", "rate", "_available_at", "stats")

    def __init__(self, sim: Simulator, rate: float, name: str = "pipe"):
        if rate <= 0:
            raise ValueError(f"resource rate must be positive, got {rate}")
        self.sim = sim
        self.name = name
        self.rate = rate
        self._available_at = 0.0
        self.stats = ResourceStats()

    @property
    def backlog(self) -> float:
        """Seconds of already-committed work queued ahead of a new arrival."""
        return max(0.0, self._available_at - self.sim._now)

    def service_time(self, nbytes: int) -> float:
        """Pure serialisation time of *nbytes* through this pipe."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return nbytes / self.rate

    def transmit(self, nbytes: int, service_scale: float = 1.0) -> float:
        """Reserve the pipe for *nbytes*; returns the simulated time at
        which the last byte has drained.

        *service_scale* multiplies the nominal serialisation time; the
        transport layer uses it to apply contention jitter so that the
        slowdown occupies the pipe (and is therefore seen by *later*
        messages too), rather than being a private delay.
        """
        if service_scale <= 0:
            raise ValueError("service_scale must be positive")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        now = self.sim._now
        backlog = max(0.0, self._available_at - now)
        start = now + backlog
        service = nbytes / self.rate * service_scale
        finish = start + service

        st = self.stats
        st.messages += 1
        st.bytes += nbytes
        st.busy_time += service
        if backlog > 0.0:
            st.queued_messages += 1
            if backlog > st.max_backlog:
                st.max_backlog = backlog

        self._available_at = finish
        return finish

    def utilisation(self, elapsed: float | None = None) -> float:
        """Fraction of time the pipe has been busy since t=0 (or over a
        caller-supplied *elapsed* horizon)."""
        horizon = self.sim.now if elapsed is None else elapsed
        if horizon <= 0:
            return 0.0
        return min(1.0, self.stats.busy_time / horizon)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BandwidthResource {self.name!r} rate={self.rate:.3g}B/s "
            f"backlog={self.backlog:.3g}s>"
        )
