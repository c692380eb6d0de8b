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
* a match phase plans and draws its receives in order of batch-mean
  block time (the per-run engine orders by block time, a per-run
  quantity, which one congruent draw plan cannot use), but chains NIC
  occupancy in each run's own (block time, procnum) order, as the
  per-run engine does: which of two messages through one NIC goes first
  is per-run arithmetic, not structure.  Batch and per-run modes are
  therefore *statistically* equivalent samplers of the same model, not
  bit-identical ones -- except under a timing model whose draws do not
  depend on draw order or contention, where they agree run for run.
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
from .scoreboard import ScoreboardEntry, VectorScoreboard
from .timing import LOCAL_OP, ONEWAY_OP, TimingModel
from .trace import TraceRecorder

__all__ = ["BatchedVirtualMachine"]


def _step(ready, free, gap, tx: bool):
    """One message through one NIC pipe: ``(release, pipe state after)``.

    A transmit pipe (*tx*) releases the message at ``max(ready, free)``
    and is free again *gap* later -- the per-run engine's ``inject``.  A
    receive pipe releases it at ``max(ready, previous release + gap)``.
    """
    if tx:
        out = np.maximum(ready, free)
        return out, out + gap
    out = np.maximum(ready, free + gap)
    return out, out


class _BatchProc:
    """Per-process state: a cursor into the process's schedule, with the
    run-dependent clocks as ``(r,)`` vectors.  Serial time is the same in
    every run, so ``compute`` is one float."""

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
        self.compute = 0.0
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
            # The per-run engine serves blocked processes in (block time,
            # procnum) order; block times are per-run here, so the draw
            # plan orders by the *batch-mean* block time -- run-independent
            # (hence congruent) and exactly the per-run order whenever the
            # runs agree.  NIC occupancy is chained in each run's own
            # order (_arrivals).  Computed as the block-time *sum* (same
            # order: every proc divides by the same run count), one
            # row-wise reduce over the stacked vectors -- each row is
            # summed exactly as a reduce of that vector alone would.
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
        intra)`` of *specs* drawn as one block, whose ``(r,)`` rows are
        in spec order."""
        if not specs:
            return ()
        prof = self.profiler
        if prof is None:
            return self.timing.draw_block(specs, self.rng, self.runs)
        t0 = _perf_counter()
        block = self.timing.draw_block(specs, self.rng, self.runs)
        prof.add("sample", _perf_counter() - t0)
        return block

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
        rows = iter(self._draw(specs))
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
        arrivals = self._arrivals(procs, plan, self._draw(specs))
        last = self._last_arrival
        trace = self.trace
        for (pn, entry), t in zip(plan, arrivals):
            # One TCP stream per pair: arrivals cannot overtake.  A phase
            # completes at most one receive per process, so this only
            # looks back at earlier phases.
            key = (entry.src, entry.dst)
            prev = last.get(key)
            if prev is not None:
                t = np.maximum(t, prev)
            last[key] = t
            proc = procs[pn]
            completion = np.maximum(proc.vtime, t)
            proc.wait += completion - proc.block_start
            if trace is not None:
                trace.record(pn, "recv", proc.blocked_label,
                             float(proc.block_start[-1]), float(completion[-1]))
            proc.vtime = completion
            proc.blocked_src = None
            scoreboard.remove(entry.msg_id)
        return [pn for pn, _ in plan]

    def _arrivals(self, procs: list[_BatchProc], plan: list[tuple],
                  oneway) -> list[np.ndarray]:
        """When each planned ``(pn, entry)`` message arrives, given its
        one-way draw and before the per-pair floor -- the batched form
        of the per-run engine's ``arrival_of``, NIC serialisation
        included.

        The per-run engine completes a phase's receives in its own
        (block time, procnum) order, and that order decides which of two
        messages through one NIC pipe goes first.  Block times are
        per-run, so the messages sharing a sender node's transmit pipe
        (and with ``txrx`` a receiver node's pipe) are chained in each
        run's own order (:meth:`_chain`).
        """
        nic = self.nic_serialisation
        ppn = self.ppn
        t = []
        # NIC pipe -> its messages, as (receiver procnum, plan index)
        tx: dict[int, list[tuple[int, int]]] = {}
        rx: dict[int, list[tuple[int, int]]] = {}
        for n, (pn, entry) in enumerate(plan):
            if entry.intra or nic == "off":
                t.append(entry.depart + oneway[n])
                continue
            t.append(entry.depart)
            tx.setdefault(entry.src // ppn, []).append((pn, n))
            if nic == "txrx":
                rx.setdefault(entry.dst // ppn, []).append((pn, n))
        if tx:  # departure -> injection into the wire, + one-way time
            self._chain(self._tx_free, tx, t, procs, plan, oneway)
        if rx:
            self._chain(self._rx_free, rx, t, procs, plan)
        return t

    def _chain(self, pipes: dict, groups: dict, t: list,
               procs: list[_BatchProc], plan: list[tuple],
               oneway=None) -> None:
        """Pass each pipe's ``groups[node]`` messages -- ``(receiver
        procnum, plan index n)`` pairs -- through NIC pipe *node*:
        ``t[n]`` goes from when the message is ready to when the pipe
        releases it, and every pipe's ``pipes`` entry is updated (an idle
        pipe is free at 0, as in the per-run engine).  Messages sharing a
        pipe go in each run's own order of their receivers' (block time,
        procnum), one :func:`_step` each.  Given the *oneway* draws, the
        pipes are transmit pipes and ``t[n]`` also gains ``oneway[n]``:
        the message arrives that long after it enters the wire.
        """
        tx = oneway is not None
        gap = self.timing.serialisation_gap
        shared: dict[int, list[tuple[int, list[int]]]] = {}
        for node, members in groups.items():
            if len(members) == 1:
                n = members[0][1]
                t[n], pipes[node] = _step(
                    t[n], pipes.get(node, 0.0), gap(plan[n][1].size), tx
                )
                if tx:
                    t[n] = t[n] + oneway[n]
            else:
                members.sort()  # procnum order
                shared.setdefault(len(members), []).append(
                    (node, [n for _, n in members])
                )
        # The pipes carrying k messages are served together, stacked as
        # (pipes, k, r) with each pipe's messages in procnum order.
        idle = np.zeros(self.runs)
        for k, sharing in shared.items():
            idx = [n for _, members in sharing for n in members]
            shape = (len(sharing), k, self.runs)
            ready = np.array([t[n] for n in idx]).reshape(shape)
            keys = np.array([procs[plan[n][0]].block_start for n in idx]).reshape(shape)
            gaps = np.array([gap(plan[n][1].size) for n in idx]).reshape(shape[:2])
            free = np.array([pipes.get(node, idle) for node, _ in sharing])
            if k == 2:
                # Both orders, then each run keeps its own; on equal
                # block times the lower procnum goes first.
                a_first = keys[:, 0] <= keys[:, 1]
                ra, rb, ga, gb = ready[:, 0], ready[:, 1], gaps[:, :1], gaps[:, 1:]
                oa1, f = _step(ra, free, ga, tx)
                ob2, fa = _step(rb, f, gb, tx)
                ob1, f = _step(rb, free, gb, tx)
                oa2, fb = _step(ra, f, ga, tx)
                released = np.empty(shape)
                released[:, 0] = np.where(a_first, oa1, oa2)
                released[:, 1] = np.where(a_first, ob2, ob1)
                free = np.where(a_first, fa, fb)
            else:
                # A stable sort puts each run in its own order, keeping
                # procnum order among equal block times.
                pipe = np.arange(len(sharing))[:, None, None]
                runs = np.arange(self.runs)
                order = keys.argsort(axis=1, kind="stable")
                ready, gaps = ready[pipe, order, runs], gaps[pipe, order]
                served = np.empty(shape)
                for q in range(k):
                    served[:, q], free = _step(ready[:, q], free, gaps[:, q], tx)
                released = np.empty(shape)
                released[pipe, order, runs] = served
            released = released.reshape(-1, self.runs)
            if tx:
                released = released + oneway[idx]
            for n, row in zip(idx, released):
                t[n] = row
            for (node, _), row in zip(sharing, free):
                pipes[node] = row

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
                compute_time=[p.compute for p in procs],
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
