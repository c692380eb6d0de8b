"""The Performance Evaluating Virtual Parallel Machine.

This is the paper's core algorithm (Section 5): an execution-driven
simulation that evolves a message-passing program in *virtual time* by
alternating two phases:

* **sweep** -- simulate every runnable process forward until it reaches a
  *decision point* (a receive whose completion depends on dynamic
  information) or terminates.  Serial segments advance the process's
  virtual clock; sends charge the sender its local send cost and add the
  message's metadata to the contention scoreboard.

* **match** -- for every process blocked at a receive, determine the
  arrival time of the candidate message by Monte Carlo sampling from the
  timing model, conditioned on the message size and the *current
  scoreboard population* (the contention level); complete the receive at
  ``max(post time, arrival)``, remove the message from the scoreboard and
  make the process runnable again.

The match is event-driven, as a transition of MP net (PAPERS.md) fires
only once a matching message enables it: a blocked process joins a
*ready list* when it blocks with a message its receive accepts already
on the scoreboard, or when a later send adds one.  Each match serves
that list in ``(block time, procnum)`` order; a process not on it has
no candidate, so it would neither draw nor complete.  A fixed-source
receive takes its pair's FIFO head.  A wildcard draws the arrival of
each source's head not drawn before, in (departure time, msg id)
order, onto a per-destination heap of drawn candidates, and takes the
earliest ``(arrival, msg id)``.

Evaluation "operates as a series of interleaved sweep/match phases until
no more decision points are encountered".  If a match phase cannot
unblock anything while processes remain, the program is deadlocked -- the
paper notes PEVPM "can also automatically discover program deadlock" --
and the machine raises :class:`ModelDeadlock` with the blocked state.

This module holds the *per-run* engine: one Monte Carlo run per
evaluation.  :mod:`repro.pevpm.vector` implements the batched variant,
which advances all runs of a Monte Carlo batch through one sweep/match
pass with per-run clocks as ``(R,)`` vectors; both share this module's
:class:`ProcContext` operation vocabulary and :class:`MachineResult`.

Model programs are generators over primitive operations, produced either
by interpreting directive IR (:mod:`repro.pevpm.interpreter`) or written
directly against the :class:`ProcContext` API (the "driver program" form
the paper hand-translated its directives into)::

    def program(ctx):
        for _ in range(1000):
            if ctx.procnum > 0:
                yield ctx.send(ctx.procnum - 1, 1024)
                yield ctx.recv(ctx.procnum - 1)
            ...
            yield ctx.serial(3.24e-3 / ctx.numprocs)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from time import perf_counter as _perf_counter
from typing import Any, Callable, Generator

import numpy as np

from typing import NamedTuple

from .scoreboard import Scoreboard, ScoreboardEntry, _fifo_key
from .timing import TimingModel
from .trace import TraceRecorder

__all__ = [
    "ANY_SOURCE",
    "MatchInfo",
    "ModelDeadlock",
    "ProcContext",
    "MachineResult",
    "VirtualMachine",
]


class MatchInfo(NamedTuple):
    """Delivered to a model program when its receive completes:
    ``info = yield ctx.recv(...)``.  Irregular programs (the task farm)
    use it to react to whichever message matched."""

    src: int
    size: int
    payload: object = None

ANY_SOURCE = -1


def validate_machine_config(nprocs: int, ppn: int, nic_serialisation: str) -> None:
    """Shared constructor validation for the scalar and batched machines."""
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    if ppn < 1:
        raise ValueError("ppn must be >= 1")
    if nic_serialisation not in ("off", "tx", "txrx"):
        raise ValueError("nic_serialisation must be 'off', 'tx' or 'txrx'")


class ModelDeadlock(RuntimeError):
    """The modelled program deadlocked.

    Carries which processes were blocked, on what, and the orphaned
    messages still on the scoreboard.  When the deadlock is discovered
    at compile time, *sites* additionally names the directive (op)
    index each blocked rank stalled at in its schedule, so the message
    points straight at the offending receive.
    """

    def __init__(
        self,
        blocked: dict[int, int],
        orphans: list[ScoreboardEntry],
        sites: dict[int, int] | None = None,
    ):
        sites = sites or {}
        detail = ", ".join(
            f"proc {p} waiting on "
            + ("ANY" if src == ANY_SOURCE else f"proc {src}")
            + (f" at op {sites[p]}" if p in sites else "")
            for p, src in sorted(blocked.items())
        )
        super().__init__(
            f"model deadlock: {detail}; {len(orphans)} message(s) in flight"
        )
        self.blocked = blocked
        self.orphans = orphans
        #: per-proc op index of the blocking receive (compile-time only)
        self.sites = sites


class ProcContext:
    """Per-process API handed to model programs.

    The yielded values are plain tuples (kept cheap: a Jacobi model emits
    hundreds of thousands of them); programs should build them through
    these helpers rather than by hand.
    """

    __slots__ = ("procnum", "numprocs", "params")

    def __init__(self, procnum: int, numprocs: int, params: dict | None = None):
        self.procnum = procnum
        self.numprocs = numprocs
        self.params = params or {}

    def serial(self, seconds: float, label: str = "serial"):
        """A serial computation segment of *seconds* virtual time."""
        if not 0 <= seconds < math.inf:
            raise ValueError(
                f"serial time must be finite and non-negative, got {seconds}"
            )
        return ("serial", seconds, label)

    def send(self, dst: int, size: int, label: str = "send", payload=None):
        """Send *size* bytes to process *dst* (MPI_Send/MPI_Isend; both are
        modelled by the sender's measured local occupancy).

        *payload* rides along to the matching receive's
        :class:`MatchInfo` -- it carries model-level information (e.g. a
        task cost), not simulated bytes; *size* alone determines timing.
        """
        if not 0 <= dst < self.numprocs:
            raise ValueError(f"send destination {dst} out of range")
        if dst == self.procnum:
            raise ValueError("model processes do not send to themselves")
        if size < 0:
            raise ValueError("message size must be non-negative")
        return ("send", dst, size, label, payload)

    def recv(self, src: int = ANY_SOURCE, label: str = "recv"):
        """Receive from *src* (or any process).  This is a decision point."""
        if src != ANY_SOURCE and not 0 <= src < self.numprocs:
            raise ValueError(f"recv source {src} out of range")
        return ("recv", src, label)


@dataclass
class _Proc:
    ctx: ProcContext
    gen: Generator
    vtime: float = 0.0
    resume_value: Any = None  #: delivered to the generator at next resume
    blocked_src: int | None = None  #: None = runnable; else recv source pattern
    blocked_label: str = ""
    block_start: float = 0.0
    ready: bool = False  #: blocked with a matching message outstanding
    done: bool = False
    # accounting
    compute_time: float = 0.0
    send_time: float = 0.0
    recv_wait_time: float = 0.0


def _block_order(proc: _Proc) -> tuple[float, int]:
    return (proc.block_start, proc.ctx.procnum)


@dataclass
class MachineResult:
    """Outcome of one virtual-machine evaluation (one Monte Carlo run)."""

    elapsed: float  #: virtual completion time of the slowest process
    finish_times: list[float]
    compute_time: list[float]
    send_time: list[float]
    recv_wait_time: list[float]
    messages: int  #: total messages modelled
    peak_contention: int  #: scoreboard high-water mark
    sweeps: int  #: number of sweep/match rounds
    orphans: list[ScoreboardEntry] = field(default_factory=list)
    trace: Any = None  #: TraceRecorder when tracing was enabled

    @property
    def nprocs(self) -> int:
        return len(self.finish_times)

    def efficiency(self) -> list[float]:
        """Per-process fraction of time spent computing (vs. waiting)."""
        out = []
        for i, finish in enumerate(self.finish_times):
            out.append(self.compute_time[i] / finish if finish > 0 else 1.0)
        return out


class VirtualMachine:
    """Evaluate a model program on a virtual machine of *nprocs* processes.

    *seed* may be an integer or a :class:`numpy.random.SeedSequence`
    (the prediction engine hands each Monte Carlo run its own spawned
    child stream so serial and parallel evaluation draw identically).
    """

    def __init__(
        self,
        nprocs: int,
        timing: TimingModel,
        seed: int | np.random.SeedSequence = 0,
        params: dict | None = None,
        trace: bool = False,
        max_sweeps: int = 10_000_000,
        nic_serialisation: str = "tx",
        ppn: int = 1,
        profiler=None,
    ):
        validate_machine_config(nprocs, ppn, nic_serialisation)
        self.nprocs = nprocs
        self.timing = timing
        self.params = params or {}
        self.rng = np.random.default_rng(seed)
        self.trace = TraceRecorder() if trace else None
        #: optional :class:`repro.obs.PhaseProfiler` accumulating host
        #: seconds into sweep/match/sample buckets.  Wall-clock
        #: observation only -- profiling never touches the seeded RNG,
        #: so a profiled run stays bit-identical to an unprofiled one.
        self.profiler = profiler
        self.max_sweeps = max_sweeps
        #: how much per-NIC occupancy the VPM tracks: 'tx' (default)
        #: serialises back-to-back sends from one process; 'txrx' also
        #: serialises arrivals at one receiver; 'off' disables both (an
        #: ablation knob -- see benchmarks/bench_ablation_nic.py).
        self.nic_serialisation = nic_serialisation
        #: processes per node, for intra- vs inter-node message handling
        #: (block placement, matching the MPI runtime's).
        self.ppn = ppn

    # -- the sweep/match algorithm ------------------------------------------------
    def run(self, program: Callable[[ProcContext], Generator]) -> MachineResult:
        # A CompiledProgram runs its generator form: static programs run
        # on the batched engine, so this one only needs the reference.
        from .compile import CompiledProgram  # function-level: avoids cycle

        if isinstance(program, CompiledProgram):
            if program.nprocs != self.nprocs:
                raise ValueError(
                    f"program compiled for {program.nprocs} processes, "
                    f"machine has {self.nprocs}"
                )
            program = program.fallback
        self.timing.reset()
        scoreboard = Scoreboard()
        arrivals: dict[int, float] = {}  # sampled arrival per message id
        last_arrival: dict[tuple[int, int], float] = {}  # pair FIFO on arrivals
        # Per-process NIC occupancy, the "messages currently being passed
        # through the network" state the paper says the VPM keeps track of:
        # a sender's next message cannot enter the wire before the previous
        # one has drained, and arrivals at one receiver serialise likewise.
        tx_free: dict[int, float] = {}
        rx_free: dict[int, float] = {}
        procs: list[_Proc] = []
        for p in range(self.nprocs):
            ctx = ProcContext(p, self.nprocs, self.params)
            procs.append(_Proc(ctx=ctx, gen=program(ctx)))
        #: blocked processes with a message their receive accepts
        ready: list[_Proc] = []
        #: per destination, a heap of (arrival, msg id, entry) of the
        #: wildcard candidates drawn so far; *queued* holds their ids
        drawn: list[list] = [[] for _ in procs]
        queued: set[int] = set()

        rng = self.rng
        timing = self.timing
        trace = self.trace
        prof = self.profiler
        ppn = self.ppn
        nic = self.nic_serialisation
        sweeps = 0

        def sweep(proc: _Proc) -> None:
            """Advance one process to its next decision point."""
            while True:
                try:
                    op = proc.gen.send(proc.resume_value)
                except StopIteration:
                    proc.done = True
                    return
                finally:
                    proc.resume_value = None
                kind = op[0]
                if kind == "serial":
                    _k, seconds, label = op
                    proc.vtime += seconds
                    proc.compute_time += seconds
                    if trace is not None:
                        trace.record(proc.ctx.procnum, "serial", label,
                                     proc.vtime - seconds, proc.vtime)
                elif kind == "send":
                    _k, dst, size, label, payload = op
                    me = proc.ctx.procnum
                    intra = me // ppn == dst // ppn
                    depart = proc.vtime
                    if prof is None:
                        cost = timing.local_send_time(
                            size, scoreboard.contention, rng, intra=intra
                        )
                    else:
                        t0 = _perf_counter()
                        cost = timing.local_send_time(
                            size, scoreboard.contention, rng, intra=intra
                        )
                        prof.add("sample", _perf_counter() - t0)
                    proc.vtime += cost
                    proc.send_time += cost
                    scoreboard.add(
                        me, dst, size, depart, intra=intra, payload=payload
                    )
                    peer = procs[dst]
                    if not peer.ready and (
                        peer.blocked_src == me or peer.blocked_src == ANY_SOURCE
                    ):
                        peer.ready = True
                        ready.append(peer)
                    if trace is not None:
                        trace.record(proc.ctx.procnum, "send", label, depart, proc.vtime)
                elif kind == "recv":
                    _k, src, label = op
                    proc.blocked_src = src
                    proc.blocked_label = label
                    proc.block_start = proc.vtime
                    me = proc.ctx.procnum
                    if (
                        scoreboard.sources_for(me) if src == ANY_SOURCE
                        else scoreboard.oldest_for(src, me) is not None
                    ):
                        proc.ready = True
                        ready.append(proc)
                    return
                else:
                    raise ValueError(f"unknown model operation {op!r}")

        def wildcard(dst: int) -> ScoreboardEntry:
            """The message a wildcard receive at *dst* matches: of each
            source's oldest message, the earliest (arrival, msg id)."""
            heap = drawn[dst]
            fresh = [e for e in scoreboard.heads_for(dst) if e.msg_id not in queued]
            if len(fresh) > 1:
                fresh.sort(key=_fifo_key)
            for e in fresh:
                queued.add(e.msg_id)
                heappush(heap, (arrival_of(e), e.msg_id, e))
            while True:
                _t, msg_id, entry = heappop(heap)
                queued.discard(msg_id)
                # Skip messages matched since, or no longer their pair's head.
                if scoreboard.oldest_for(entry.src, dst) is entry:
                    return entry

        def arrival_of(entry: ScoreboardEntry) -> float:
            """Sample (once) the arrival time of a message, conditioned on
            the scoreboard population at sampling time and on the NIC
            occupancy of its endpoints."""
            t = arrivals.get(entry.msg_id)
            if t is None:
                if prof is None:
                    oneway = timing.one_way_time(
                        entry.size, scoreboard.contention, rng, intra=entry.intra
                    )
                else:
                    t0 = _perf_counter()
                    oneway = timing.one_way_time(
                        entry.size, scoreboard.contention, rng, intra=entry.intra
                    )
                    prof.add("sample", _perf_counter() - t0)
                if entry.intra or nic == "off":
                    # Shared-memory messages never touch the NIC.
                    t = entry.depart_time + oneway
                else:
                    gap = timing.serialisation_gap(entry.size)
                    # NICs belong to *nodes*: processes sharing a node
                    # share its transmit and receive pipes.
                    src_node = entry.src // ppn
                    dst_node = entry.dst // ppn
                    # The sender's NIC must have drained the previous
                    # message before this one can enter the wire.
                    inject = max(entry.depart_time, tx_free.get(src_node, 0.0))
                    tx_free[src_node] = inject + gap
                    t = inject + oneway
                    if nic == "txrx":
                        # Arrivals at one receiver serialise through its NIC.
                        floor = rx_free.get(dst_node, 0.0)
                        if t < floor + gap:
                            t = floor + gap
                        rx_free[dst_node] = t
                key = (entry.src, entry.dst)
                # One TCP stream per pair: arrivals cannot overtake.
                prev = last_arrival.get(key, 0.0)
                if t < prev:
                    t = prev
                last_arrival[key] = t
                arrivals[entry.msg_id] = t
            return t

        # Interleaved sweep/match until every process terminates.
        runnable = list(procs)
        finished = 0
        while True:
            sweeps += 1
            if sweeps > self.max_sweeps:
                raise RuntimeError(
                    f"model exceeded {self.max_sweeps} sweep/match rounds"
                )
            if prof is None:
                for proc in runnable:
                    sweep(proc)
            else:
                mark = prof.mark()
                t0 = _perf_counter()
                for proc in runnable:
                    sweep(proc)
                # Sample draws inside the sweep are already counted;
                # exclusive() keeps the buckets disjoint.
                prof.exclusive("sweep", _perf_counter() - t0, mark)
            finished += sum(proc.done for proc in runnable)
            if finished == self.nprocs:
                break
            if prof is not None:
                match_mark = prof.mark()
                match_t0 = _perf_counter()

            # Match phase: complete every receive that has a candidate,
            # in deterministic order of (block time, procnum).  A blocked
            # process without one is not on the ready list; it would
            # neither draw nor complete, so skipping it changes nothing.
            ready.sort(key=_block_order)
            runnable, ready = ready, []
            for proc in runnable:
                proc.ready = False
                dst = proc.ctx.procnum
                if proc.blocked_src == ANY_SOURCE:
                    entry = wildcard(dst)
                else:
                    entry = scoreboard.oldest_for(proc.blocked_src, dst)
                t_arr = arrival_of(entry)
                completion = max(proc.vtime, t_arr)
                wait = completion - proc.block_start
                proc.recv_wait_time += wait
                if trace is not None:
                    trace.record(
                        dst, "recv", proc.blocked_label,
                        proc.block_start, completion,
                    )
                proc.vtime = completion
                proc.blocked_src = None
                # Model programs may capture the match:
                #   src, size = yield ctx.recv(...)
                # which is what lets irregular (task-farm style) masters
                # react to whichever worker reported first.
                proc.resume_value = MatchInfo(entry.src, entry.size, entry.payload)
                scoreboard.remove(entry.msg_id)
                arrivals.pop(entry.msg_id, None)
            if prof is not None:
                prof.exclusive(
                    "match", _perf_counter() - match_t0, match_mark
                )

            if not runnable:
                blocked = sorted(
                    (p for p in procs if not p.done), key=_block_order
                )
                raise ModelDeadlock(
                    {p.ctx.procnum: p.blocked_src for p in blocked},
                    scoreboard.entries(),
                )

        return MachineResult(
            elapsed=max(p.vtime for p in procs),
            finish_times=[p.vtime for p in procs],
            compute_time=[p.compute_time for p in procs],
            send_time=[p.send_time for p in procs],
            recv_wait_time=[p.recv_wait_time for p in procs],
            messages=scoreboard.total_added,
            peak_contention=scoreboard.peak,
            sweeps=sweeps,
            orphans=scoreboard.entries(),
            trace=self.trace,
        )
