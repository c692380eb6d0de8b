"""The simulated MPI job launcher (``mpiexec`` for the virtual cluster).

:class:`MpiRun` wires together a :class:`~repro.simnet.engine.Simulator`,
a :class:`~repro.simnet.transport.Network`, per-node clocks and per-rank
mailboxes, then runs one generator *program* per rank::

    def program(comm):
        yield from comm.barrier()
        return comm.rank

    result = run_program(perseus(16), program, nprocs=32, ppn=2, seed=1)
    result.returns   # per-rank return values
    result.elapsed   # simulated wall-clock of the slowest rank

Rank placement is *block* order: rank r runs on node ``r // ppn``, so
ranks 0 and 1 share node 0 when ppn=2 -- matching how MPICH machinefiles
were written for Perseus, and making the MPIBench pairing (rank i with
rank i + P/2) talk between distinct nodes.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, field
from typing import Any, Callable

from ..simnet.clock import ClockManager
from ..simnet.engine import DeadlockError, Simulator
from ..simnet.monitor import NetworkMonitor
from ..simnet.rng import RngRegistry
from ..simnet.topology import ClusterSpec
from ..simnet.transport import Network
from .comm import Comm
from .matching import Envelope, EnvelopeKind, Mailbox
from .status import CommAbort, MpiError

__all__ = ["MpiRun", "RunResult", "MpiDeadlock", "run_program"]


class MpiDeadlock(MpiError):
    """The simulated job deadlocked: some ranks blocked forever.

    Carries the list of blocked ranks and their mailbox state for
    diagnosis -- the same information PEVPM surfaces when it detects
    deadlock in a *model* (Section 5 of the paper).
    """

    def __init__(self, blocked: list[int], detail: str = ""):
        msg = f"MPI job deadlocked; blocked ranks: {blocked}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.blocked = blocked


@dataclass
class RunResult:
    """Outcome of a simulated MPI job."""

    returns: list[Any]  #: per-rank program return values
    finish_times: list[float]  #: per-rank true completion times (s)
    elapsed: float  #: completion time of the slowest rank (s)
    nprocs: int
    ppn: int
    spec: ClusterSpec
    monitor: NetworkMonitor = field(repr=False, default=None)
    #: per-rank PMPI-style counters (see :class:`repro.smpi.comm.CommStats`)
    comm_stats: list[dict] = field(repr=False, default_factory=list)

    @property
    def makespan(self) -> float:
        """Alias for :attr:`elapsed` (time to the last rank's finish)."""
        return self.elapsed


class MpiRun:
    """One simulated MPI job on a cluster."""

    def __init__(
        self,
        spec: ClusterSpec,
        nprocs: int,
        ppn: int = 1,
        seed: int = 0,
        perfect_clocks: bool = False,
    ):
        if ppn < 1 or ppn > spec.processors_per_node:
            raise ValueError(
                f"ppn={ppn} invalid for nodes with "
                f"{spec.processors_per_node} processors"
            )
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        nodes_needed = -(-nprocs // ppn)
        if nodes_needed > spec.n_nodes:
            raise ValueError(
                f"{nprocs} ranks at {ppn}/node need {nodes_needed} nodes; "
                f"cluster has {spec.n_nodes}"
            )
        self.spec = spec
        self.nprocs = nprocs
        self.ppn = ppn
        self.sim = Simulator()
        self.rngs = RngRegistry(seed)
        self.network = Network(self.sim, spec, self.rngs)
        self.clocks = ClockManager(spec.n_nodes, self.rngs, perfect=perfect_clocks)
        self._mailboxes = [Mailbox(r) for r in range(nprocs)]
        # Per-(src, dst) FIFO state: next sequence number to assign at
        # injection, next sequence number allowed to deliver, and events
        # for transfers waiting on a predecessor.
        self._send_seq: dict[tuple[int, int], int] = {}
        self._deliver_seq: dict[tuple[int, int], int] = {}
        self._fifo_waiters: dict[tuple[tuple[int, int], int], Any] = {}
        self.comms = [Comm(self, r) for r in range(nprocs)]

    # -- placement / plumbing ------------------------------------------------------
    def node_of(self, rank: int) -> int:
        """Cluster node hosting *rank* (block placement)."""
        if not 0 <= rank < self.nprocs:
            raise ValueError(f"rank {rank} outside job of {self.nprocs}")
        return rank // self.ppn

    def mailbox(self, rank: int) -> Mailbox:
        return self._mailboxes[rank]

    def deliver(self, dest_rank: int, env: Envelope) -> None:
        """Hand an arrived envelope to *dest_rank*'s matcher, completing a
        posted receive or starting the rendezvous reply as appropriate."""
        posted = self._mailboxes[dest_rank].deliver(env)
        if posted is None:
            return
        if env.kind is EnvelopeKind.RTS:
            env.on_match(posted)
        else:
            posted.event.succeed(env)

    def pair_seq(self, src_rank: int, dst_rank: int) -> int:
        """Assign the next in-order sequence number for a (src, dst)
        transfer.  Must be called at *injection* time (in MPI call order)."""
        key = (src_rank, dst_rank)
        seq = self._send_seq.get(key, 0)
        self._send_seq[key] = seq + 1
        return seq

    def pair_fifo(self, src_rank: int, dst_rank: int, seq: int):
        """Generator: gate a completed transfer until every earlier
        transfer of the same rank pair has delivered.

        Models the single TCP stream per pair: even if the fabric finishes
        a later message first (jitter), delivery order matches send order.
        """
        key = (src_rank, dst_rank)
        if self._deliver_seq.get(key, 0) < seq:
            event = self.sim.event(name="fifo")
            self._fifo_waiters[(key, seq)] = event
            yield event
        self._deliver_seq[key] = seq + 1
        successor = self._fifo_waiters.pop((key, seq + 1), None)
        if successor is not None:
            successor.succeed(None)
        return None

    def spawn_system(self, gen: Generator, name: str = "system"):
        """Spawn an internal (non-rank) process, e.g. a message transfer."""
        return self.sim.spawn(gen, name=name)

    # -- running -----------------------------------------------------------------------
    def run(
        self,
        program: Callable[..., Generator],
        args: tuple = (),
        max_time: float | None = None,
    ) -> RunResult:
        """Execute *program(comm, *args)* on every rank to completion.

        Raises :class:`MpiDeadlock` if ranks block forever, or propagates
        the first rank exception (as on a real cluster, where it would
        abort the job).
        """
        returns: list[Any] = [None] * self.nprocs
        finish: list[float] = [float("nan")] * self.nprocs

        def wrap(rank: int):
            comm = self.comms[rank]
            value = yield from program(comm, *args)
            returns[rank] = value
            finish[rank] = self.sim.now
            return value

        procs = [
            self.sim.spawn(wrap(r), name=f"rank{r}") for r in range(self.nprocs)
        ]
        try:
            self.sim.run(until=max_time)
        except DeadlockError:
            blocked = [r for r, p in enumerate(procs) if p.is_alive]
            detail = self._deadlock_detail(blocked)
            raise MpiDeadlock(blocked, detail) from None

        unfinished = [r for r, p in enumerate(procs) if p.is_alive]
        if unfinished:
            raise CommAbort(
                f"ranks {unfinished} still running at max_time={max_time}"
            )
        comm_stats = [c.stats.as_dict() for c in self.comms]
        return RunResult(
            returns=returns,
            finish_times=finish,
            elapsed=max(finish),
            nprocs=self.nprocs,
            ppn=self.ppn,
            spec=self.spec,
            monitor=NetworkMonitor(self.network),
            comm_stats=comm_stats,
        )

    def _deadlock_detail(self, blocked: list[int]) -> str:
        parts = []
        for r in blocked[:8]:
            box = self._mailboxes[r]
            pend = [(p.source, p.tag) for p in box.posted]
            unexp = [(e.source, e.tag, e.size) for e in box.unexpected]
            parts.append(f"rank {r}: posted={pend} unexpected={unexp}")
        return "; ".join(parts)


def run_program(
    spec: ClusterSpec,
    program: Callable[..., Generator],
    nprocs: int,
    ppn: int = 1,
    seed: int = 0,
    perfect_clocks: bool = False,
    args: tuple = (),
    max_time: float | None = None,
) -> RunResult:
    """Convenience wrapper: build an :class:`MpiRun` and run *program*."""
    job = MpiRun(spec, nprocs=nprocs, ppn=ppn, seed=seed, perfect_clocks=perfect_clocks)
    return job.run(program, args=args, max_time=max_time)
