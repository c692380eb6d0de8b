"""The batched (vectorised) virtual parallel machine.

The scalar engine in :mod:`repro.pevpm.machine` evaluates one Monte
Carlo run per sweep/match pass, so R runs pay the Python interpreter R
times for every modelled message.  This module advances *all R runs in
lockstep*: one pass over each process's operations, with the per-run
virtual clocks, departure times and arrival times carried as NumPy
``(R,)`` vectors and every phase's timing draws served by one
:meth:`~repro.pevpm.timing.TimingModel.draw_block` call.

This works because a static program's *structure* -- which operations
each process executes, which messages exist, which process blocks at
which receive -- is identical across runs; only the clock values
differ.  :func:`~repro.pevpm.compile.compile_program` proves that up
front and hands this engine the per-rank schedule.  A *divergent*
program (a wildcard receive whose winner depends on sampled arrival
times, such as the task farm's master) has no schedule: its structure
changes from run to run, so it runs one run at a time on the per-run
engine, and this machine refuses it.  The choice between the two is
made in one place, :mod:`repro.pevpm.parallel`.

Batch-mode conventions (documented in DESIGN.md section 6):

* one RNG stream per batch, consumed in a deterministic order fixed by
  the program's structure, so the same seed gives bit-identical output
  regardless of host or worker count;
* each sweep or match phase runs in three passes: a structural pass
  lists the phase's draws as ``(op, size, contention, intra)`` (the
  contention level is structural too), one ``draw_block`` call draws
  them all, and a numeric pass advances the clocks.  The block holds
  exactly the values one ``(r,)`` draw per decision would, in the same
  order -- the phase is a unit of work, not of randomness;
* within a match phase, blocked processes are served in order of
  batch-mean block time (the scalar engine orders by block time, a
  per-run quantity, which a congruent batch cannot use).  Batch and
  scalar modes are therefore *statistically* equivalent samplers of the
  same model, not bit-identical ones -- except under a deterministic
  timing model, where every run is the same and the orders agree.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter

import numpy as np

from .compile import CompiledProgram
from .machine import (
    ANY_SOURCE,
    MachineResult,
    ModelDeadlock,
    validate_machine_config,
)
from .scoreboard import ScoreboardEntry, VectorEntry, VectorScoreboard
from .timing import LOCAL_OP, ONEWAY_OP, TimingModel
from .trace import TraceRecorder

__all__ = ["BatchedVirtualMachine"]


class _BatchProc:
    """Per-process state: a cursor into the process's schedule, with the
    run-dependent clocks as ``(r,)`` vectors."""

    __slots__ = (
        "ops", "ip", "done", "blocked_src", "blocked_label", "vtime",
        "compute", "send_t", "wait", "block_start",
    )

    def __init__(self, ops: list[tuple], r: int):
        self.ops = ops
        self.ip = 0
        self.done = False
        self.blocked_src: int | None = None
        self.blocked_label = ""
        self.vtime = np.zeros(r)
        self.compute = np.zeros(r)
        self.send_t = np.zeros(r)
        self.wait = np.zeros(r)
        self.block_start = np.zeros(r)


class BatchedVirtualMachine:
    """Evaluate *runs* Monte Carlo runs of a static program in one pass.

    Mirrors :class:`~repro.pevpm.machine.VirtualMachine` but
    :meth:`run` takes a :class:`~repro.pevpm.compile.CompiledProgram`
    and returns one :class:`MachineResult` per run, all drawn from a
    single RNG stream seeded by *seed* (see the module docstring for the
    batch-mode seed-stream convention).  With *trace* set, the last
    run's events are recorded into its result's ``trace``; recording
    reads clocks only, so traced and untraced batches are bit-identical.
    """

    def __init__(
        self,
        nprocs: int,
        timing: TimingModel,
        seed: int | np.random.SeedSequence = 0,
        runs: int = 1,
        max_sweeps: int = 10_000_000,
        nic_serialisation: str = "tx",
        ppn: int = 1,
        profiler=None,
        trace: bool = False,
    ):
        validate_machine_config(nprocs, ppn, nic_serialisation)
        if runs < 1:
            raise ValueError("runs must be >= 1")
        self.nprocs = nprocs
        self.timing = timing
        self.runs = runs
        self.rng = np.random.default_rng(seed)
        self.max_sweeps = max_sweeps
        self.nic_serialisation = nic_serialisation
        self.ppn = ppn
        #: optional :class:`repro.obs.PhaseProfiler` accumulating host
        #: seconds into sweep/match/sample buckets.  Wall-clock reads
        #: only -- never the seeded RNG stream, so a profiled batch is
        #: bit-identical to an unprofiled one.
        self.profiler = profiler
        #: events of the batch's last run, when tracing
        self.trace = TraceRecorder() if trace else None

    # -- lifecycle ---------------------------------------------------------------
    def run(self, program: CompiledProgram) -> list[MachineResult]:
        """Evaluate the batch; returns run-ordered results."""
        if not isinstance(program, CompiledProgram):
            raise TypeError(
                "the batched VM runs compiled schedules; compile the model "
                "with repro.pevpm.compile_program first"
            )
        if program.nprocs != self.nprocs:
            raise ValueError(
                f"program compiled for {program.nprocs} processes, "
                f"machine has {self.nprocs}"
            )
        if program.divergent:
            proc, op, rnd = program.divergence
            raise ValueError(
                f"divergent program: the wildcard receive at proc {proc}, "
                f"op {op} (round {rnd}) races senders, so it has no static "
                f"schedule; evaluate it run by run on VirtualMachine"
            )
        schedule = program.schedule(self.ppn)
        self.timing.reset()
        self._scoreboard = VectorScoreboard()
        self._last_arrival: dict[tuple[int, int], np.ndarray] = {}
        self._tx_free: dict[int, np.ndarray] = {}
        self._rx_free: dict[int, np.ndarray] = {}
        procs = [_BatchProc(ops, self.runs) for ops in schedule]
        prof = self.profiler
        runnable = list(range(self.nprocs))
        sweeps = 0
        while True:
            sweeps += 1
            if sweeps > self.max_sweeps:
                raise RuntimeError(
                    f"model exceeded {self.max_sweeps} sweep/match rounds"
                )
            if prof is None:
                self._sweep(procs, runnable)
            else:
                mark = prof.mark()
                t0 = _perf_counter()
                self._sweep(procs, runnable)
                # Draw time inside the sweep is already in "sample";
                # exclusive() keeps the buckets disjoint.
                prof.exclusive("sweep", _perf_counter() - t0, mark)
            # After a sweep every live process is blocked at a receive.
            alive = [pn for pn, p in enumerate(procs) if not p.done]
            if not alive:
                break
            # The scalar engine serves blocked processes in (block time,
            # procnum) order; block times are per-run here, so the batch
            # convention orders by the *batch-mean* block time --
            # run-independent (hence congruent) and exactly the scalar
            # order whenever the runs agree.  The NIC occupancy chaining
            # depends on this order, so matching the scalar convention
            # keeps the engines statistically aligned.  Computed as the
            # block-time *sum* (same order: every proc divides by the same
            # run count), one row-wise reduce over the stacked vectors --
            # each row is summed exactly as a reduce of that vector alone
            # would.
            sums = np.add.reduce(
                np.array([procs[pn].block_start for pn in alive]), axis=1
            ).tolist()
            blocked = [pn for _, pn in sorted(zip(sums, alive))]
            if prof is None:
                runnable = self._match(procs, blocked)
            else:
                mark = prof.mark()
                t0 = _perf_counter()
                runnable = self._match(procs, blocked)
                prof.exclusive("match", _perf_counter() - t0, mark)
            if not runnable:
                raise ModelDeadlock(
                    {pn: procs[pn].blocked_src for pn in blocked},
                    self._orphans(0),
                )
        return self._results(procs, sweeps)

    # -- the batched sweep/match loop ---------------------------------------------
    def _draw(self, specs: list[tuple]):
        """The engine's one draw site: every ``(op, size, contention,
        intra)`` of *specs* drawn as one block, returned as an iterator
        over its ``(r,)`` rows in spec order."""
        if not specs:
            return iter(())
        prof = self.profiler
        if prof is None:
            return iter(self.timing.draw_block(specs, self.rng, self.runs))
        t0 = _perf_counter()
        block = self.timing.draw_block(specs, self.rng, self.runs)
        prof.add("sample", _perf_counter() - t0)
        return iter(block)

    @staticmethod
    def _segment(proc: _BatchProc) -> list[tuple]:
        """The ops *proc* runs in this sweep, through its next receive;
        marks the process done when its schedule ends."""
        ops = proc.ops
        ip = proc.ip
        for j in range(ip, len(ops)):
            if ops[j][0] == "recv":
                proc.ip = j + 1
                return ops[ip:j + 1]
        proc.ip = len(ops)
        proc.done = True
        return ops[ip:]

    def _sweep(self, procs: list[_BatchProc], runnable: list[int]) -> None:
        """One sweep phase: every runnable process runs to its next
        receive (or its end).  The structural pass lists each send's
        local-time draw at the contention it sees -- one more per
        inter-node send before it -- and the numeric pass advances the
        clocks with the block's rows."""
        scoreboard = self._scoreboard
        trace = self.trace
        c = scoreboard.contention
        specs = []
        segments = []
        for pn in runnable:
            proc = procs[pn]
            seg = self._segment(proc)
            for op in seg:
                if op[0] == "send":
                    specs.append((LOCAL_OP, op[2], c, op[5]))
                    if not op[5]:
                        c += 1
            segments.append((pn, proc, seg))
        rows = self._draw(specs)
        for pn, proc, seg in segments:
            vtime = proc.vtime
            for op in seg:
                kind = op[0]
                if kind == "serial":
                    vtime = vtime + op[1]
                    proc.compute += op[1]
                    if trace is not None:
                        end = float(vtime[-1])
                        trace.record(pn, "serial", op[2], end - op[1], end)
                elif kind == "send":
                    cost = next(rows)
                    # Rebind (never mutate) the clock: the scoreboard
                    # entry keeps the departure vector alive.
                    scoreboard.add(pn, op[1], op[2], vtime, intra=op[5], payload=op[4])
                    if trace is not None:
                        trace.record(pn, "send", op[3], float(vtime[-1]),
                                     float(vtime[-1] + cost[-1]))
                    vtime = vtime + cost
                    proc.send_t += cost
                else:  # recv: the decision point
                    proc.blocked_src = op[1]
                    proc.blocked_label = op[2]
                    proc.block_start = vtime
            proc.vtime = vtime

    def _match(self, procs: list[_BatchProc], blocked: list[int]) -> list[int]:
        """One match phase; returns the processes it made runnable.

        The structural pass plans every receive that completes -- the
        message it takes and its arrival draw at the contention it sees
        (one less per inter-node message completed before it).  Candidate
        *existence* is structural, so the same receives complete in every
        run.
        """
        scoreboard = self._scoreboard
        plan = []
        specs = []
        c = scoreboard.contention
        for pn in blocked:
            src = procs[pn].blocked_src
            if src == ANY_SOURCE:
                heads = scoreboard.heads_for_dst(pn)
                if len(heads) > 1:
                    # compile_program marks any program that can get here
                    # divergent, and run() refuses those.
                    raise RuntimeError(
                        f"internal error: wildcard race at proc {pn} "
                        f"inside a static schedule"
                    )
                entry = heads[0] if heads else None
            else:
                entry = scoreboard.oldest_for(src, pn)
            if entry is not None:
                plan.append((pn, entry))
                specs.append((ONEWAY_OP, entry.size, c, entry.intra))
                if not entry.intra:
                    c -= 1
        rows = self._draw(specs)
        for pn, entry in plan:
            self._complete(procs[pn], entry, next(rows))
        return [pn for pn, _ in plan]

    def _complete(self, proc: _BatchProc, entry: VectorEntry, oneway) -> None:
        """Finish *proc*'s receive with *entry*, vectorised."""
        completion = np.maximum(proc.vtime, self._arrival(entry, oneway))
        proc.wait += completion - proc.block_start
        if self.trace is not None:
            self.trace.record(entry.dst, "recv", proc.blocked_label,
                              float(proc.block_start[-1]), float(completion[-1]))
        proc.vtime = completion
        proc.blocked_src = None
        self._scoreboard.remove(entry.msg_id)

    def _arrival(self, entry: VectorEntry, oneway: np.ndarray) -> np.ndarray:
        """The arrival vector of a message given its one-way draw -- the
        batched form of the scalar engine's ``arrival_of``, including NIC
        serialisation and the per-pair non-overtaking floor."""
        if entry.intra or self.nic_serialisation == "off":
            t = entry.depart + oneway
        else:
            gap = self.timing.serialisation_gap(entry.size)
            src_node = entry.src // self.ppn
            dst_node = entry.dst // self.ppn
            free = self._tx_free.get(src_node)
            inject = (
                entry.depart if free is None else np.maximum(entry.depart, free)
            )
            self._tx_free[src_node] = inject + gap
            t = inject + oneway
            if self.nic_serialisation == "txrx":
                floor = self._rx_free.get(dst_node)
                if floor is None:
                    t = np.maximum(t, gap)
                else:
                    t = np.maximum(t, floor + gap)
                self._rx_free[dst_node] = t
        key = (entry.src, entry.dst)
        prev = self._last_arrival.get(key)
        if prev is not None:
            t = np.maximum(t, prev)
        self._last_arrival[key] = t
        return t

    # -- results ---------------------------------------------------------------------
    def _orphans(self, j: int) -> list[ScoreboardEntry]:
        """Run *j*'s view of the messages still on the scoreboard."""
        return [
            ScoreboardEntry(
                msg_id=e.msg_id, src=e.src, dst=e.dst, size=e.size,
                depart_time=float(e.depart[j]), intra=e.intra,
                payload=e.payload,
            )
            for e in self._scoreboard.entries()
        ]

    def _results(self, procs: list[_BatchProc], sweeps: int) -> list[MachineResult]:
        """Unpack the finished batch into per-run MachineResults."""
        scoreboard = self._scoreboard
        elapsed = np.stack([p.vtime for p in procs]).max(axis=0)
        has_orphans = len(scoreboard) > 0
        last = self.runs - 1
        return [
            MachineResult(
                elapsed=float(elapsed[j]),
                finish_times=[float(p.vtime[j]) for p in procs],
                compute_time=[float(p.compute[j]) for p in procs],
                send_time=[float(p.send_t[j]) for p in procs],
                recv_wait_time=[float(p.wait[j]) for p in procs],
                messages=scoreboard.total_added,
                peak_contention=scoreboard.peak,
                sweeps=sweeps,
                orphans=self._orphans(j) if has_orphans else [],
                trace=self.trace if j == last else None,
            )
            for j in range(self.runs)
        ]
