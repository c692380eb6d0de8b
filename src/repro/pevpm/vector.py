"""The batched (vectorised) virtual parallel machine.

The scalar engine in :mod:`repro.pevpm.machine` evaluates one Monte
Carlo run per sweep/match pass, so R runs pay the Python interpreter R
times for every modelled message.  This module advances *all R runs in
lockstep*: the per-run clocks, send time, receive wait and departure
times live in ``(processes, R)`` and ``(slots, R)`` NumPy arrays, and
every phase's timing draws are served by one call of the phase sampler
:meth:`~repro.pevpm.timing.TimingModel.bind` returns for the plan's
draw kinds.

This works because a static program's *structure* -- which operations
each process executes, which messages exist, which process blocks at
which receive, which messages share a NIC pipe -- is identical across
runs; only the clock values differ.
:func:`~repro.pevpm.compile.compile_program` proves that up front, and
:meth:`~repro.pevpm.compile.CompiledProgram.plan` lowers the structure
to a :class:`~repro.pevpm.compile.PhasePlan` of index arrays, so each
phase here is a few fancy-indexed adds and maxima.  A *divergent*
program (a wildcard receive whose winner depends on sampled arrival
times, such as the task farm's master) has no plan: its structure
changes from run to run, so it runs one run at a time on the per-run
engine, and this machine refuses it.  The choice between the two is
made in one place, :mod:`repro.pevpm.parallel`.

Batch-mode conventions (documented in DESIGN.md section 6):

* one RNG stream per batch, consumed in a deterministic order fixed by
  the program's structure, so the same seed gives bit-identical output
  on any host;
* each sweep or match phase draws as one block, listed as two int
  arrays -- each draw's ``(op, size, intra)`` kind and its contention
  level -- exactly the values one ``(r,)`` draw per decision would
  give, in the same order: the phase is a unit of work, not of
  randomness.  A run of phases whose lists are plan-time structure
  draws as one window of at most :data:`WINDOW` uniforms
  (:meth:`~repro.pevpm.compile.PhasePlan.windows`), the same values
  again;
* a match phase lists its draws in order of batch-mean block time (the
  per-run engine orders by block time, a per-run quantity, which one
  congruent draw list cannot use), and the next sweep runs its
  processes in that order -- the one order decided at run time -- but
  NIC occupancy is chained in each run's own (block time, procnum)
  order, as the per-run engine does: which of two messages through one
  NIC goes first is per-run arithmetic, not structure.  Batch and
  per-run modes are therefore *statistically* equivalent samplers of
  the same model, not bit-identical ones -- except under a timing model
  whose draws do not depend on draw order or contention, where they
  agree run for run.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter

import numpy as np

from .compile import CompiledProgram, MatchPhase, SweepPhase
from .machine import MachineResult, validate_machine_config
from .scoreboard import ScoreboardEntry
from .timing import TimingModel
from .trace import TraceRecorder

__all__ = ["BatchedVirtualMachine"]

#: the most uniforms one draw window holds (its rows times the batch's
#: runs; a larger phase draws alone).  In an in-process A/B on the
#: Figure 6 batch, windows of 16k to 64k uniforms ran it 14-16% faster
#: than phase-by-phase draws, 4k windows 5%, and 1M windows 4% slower:
#: a larger block's gather-and-lerp leaves cache.
WINDOW = 16_384


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


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    out = np.cumsum(counts)
    out -= counts
    return out


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
        plan = program.plan(self.ppn, self.nic_serialisation)
        if len(plan.rounds) > self.max_sweeps:
            raise RuntimeError(
                f"model exceeded {self.max_sweeps} sweep/match rounds"
            )
        self.timing.reset()
        self._ops = program.ops
        r = self.runs
        shape = (self.nprocs, r)
        #: per-process clocks, send time and receive wait
        self._clock, self._send_t, self._wait = (
            np.zeros(shape), np.zeros(shape), np.zeros(shape)
        )
        #: departure time of each outstanding message, by slot
        self._depart = np.empty((plan.n_slots, r))
        #: NIC pipe state per node (an idle pipe is free at 0, as in
        #: the per-run engine) and the last arrival per (src, dst) pair
        self._tx_free = np.zeros((plan.n_nodes, r))
        self._rx_free = np.zeros((plan.n_nodes, r))
        self._last = np.full((plan.n_pairs, r), -np.inf)
        gap = self.timing.serialisation_gap
        self._gap = np.array([gap(size) for size in plan.gap_sizes])
        self._sample = self.timing.bind(plan.kinds)
        self._windows = iter(plan.windows(max(1, WINDOW // r)))
        self._ahead: list[np.ndarray] = []
        prof = self.profiler
        order = None
        for sweep, match in plan.rounds:
            if prof is None:
                self._sweep(sweep, order)
            else:
                mark = prof.mark()
                t0 = _perf_counter()
                self._sweep(sweep, order)
                # Draw time inside the sweep is already in "sample";
                # exclusive() keeps the buckets disjoint.
                prof.exclusive("sweep", _perf_counter() - t0, mark)
            if match is None:
                break
            if prof is None:
                order = self._match(match)
            else:
                mark = prof.mark()
                t0 = _perf_counter()
                order = self._match(match)
                prof.exclusive("match", _perf_counter() - t0, mark)
        return self._results(plan)

    # -- the batched sweep/match loop ---------------------------------------------
    def _draw(self, kind, level):
        """The engine's one draw site: the draws of a phase or window,
        of the plan's ``kinds[kind[i]]`` at contention ``level[i]``, as
        one block whose ``(r,)`` rows are in that order."""
        prof = self.profiler
        if prof is None:
            return self._sample(kind, level, self.rng, self.runs)
        t0 = _perf_counter()
        block = self._sample(kind, level, self.rng, self.runs)
        prof.add("sample", _perf_counter() - t0)
        return block

    def _planned(self):
        """The next :attr:`~SweepPhase.planned` phase's draws: a slice of
        the current window's block, drawing the next window
        (:meth:`PhasePlan.windows`) when this one is used up.  One block
        of concatenated rows holds exactly the uniforms, and so the
        draws, of one block per phase."""
        ahead = self._ahead
        if not ahead:
            kind, level, bounds = next(self._windows)
            block = self._draw(kind, level)
            ahead.extend(
                block[a:b] for a, b in zip(bounds[-2::-1], bounds[:0:-1])
            )
        return ahead.pop()

    def _sweep(self, sweep: SweepPhase, order) -> None:
        """One sweep phase: every runnable process runs to its next
        receive (or its end).

        The draws are listed in run-time process order (*order*, the
        previous match's, or ascending procnum when ``None``) and op
        order, each send's local-time draw at the contention it sees --
        one more per inter-node send before it.  The steps then advance
        the clocks one op position at a time with the block's rows.
        """
        clock, send_t, depart = self._clock, self._send_t, self._depart
        cost = None
        if len(sweep.kind):
            if order is None:
                rows = sweep.rows
            else:
                counts = sweep.counts[order]
                starts = _exclusive_cumsum(counts)
                row_start = np.empty_like(starts)
                row_start[order] = starts
                rows = row_start[sweep.send_proc] + sweep.send_nth
            # A phase that is not planned follows a match's order.
            block = self._planned() if sweep.planned else self._draw(
                *self._sweep_draws(sweep, order, counts, starts)
            )
            cost = block if rows is None else block[rows]
        # The last run's (start, end) per op, by process, when tracing.
        last = {} if self.trace is not None else None
        for serial, sent in sweep.steps:
            if serial is not None:
                rows, seconds, procs = serial
                clock[rows] += seconds
                if last is not None:
                    for p, end in zip(procs, clock[rows, -1].tolist()):
                        last.setdefault(p, []).append((end, end))
            if sent is not None:
                rows, block_rows, slots, procs = sent
                depart[slots] = clock[rows]
                c = cost[block_rows]
                clock[rows] += c
                send_t[rows] += c
                if last is not None:
                    for p, start, end in zip(
                        procs, depart[slots, -1].tolist(), clock[rows, -1].tolist()
                    ):
                        last.setdefault(p, []).append((start, end))
        if last is not None:
            self._trace_sweep(sweep, order, last)

    @staticmethod
    def _sweep_draws(sweep: SweepPhase, order, counts, starts):
        """The sweep's ``(kind, level)`` draws when its processes run in
        *order*."""
        pm_start = _exclusive_cumsum(sweep.counts)
        sel = np.repeat(pm_start[order] - starts, counts) + np.arange(len(sweep.kind))
        return sweep.kind[sel], sweep.c0 + _exclusive_cumsum(~sweep.intra[sel])

    def _match(self, match: MatchPhase):
        """One match phase; returns its receivers' run-time order (local
        indices), which the next sweep runs its processes in.

        The per-run engine serves blocked processes in (block time,
        procnum) order; block times are per-run here, so the draws are
        listed in order of *batch-mean* block time -- run-independent
        (hence congruent) and exactly the per-run order whenever the
        runs agree -- each at the contention it sees, one less per
        inter-node message completed before it.  NIC occupancy is
        chained in each run's own order (:meth:`_arrivals`).
        """
        clock = self._clock
        recv = match.recv
        # A blocked process's clock is its block start.
        start = clock[recv]
        order = None
        if len(match.procs) > 1:
            # The block-time *sum* orders as the mean does (every process
            # divides by the same run count); one row-wise reduce, each
            # row summed exactly as a reduce of that vector alone would.
            # The receivers are in procnum order, so a stable sort breaks
            # ties by procnum.
            order = np.add.reduce(start, axis=1).argsort(kind="stable")
        block = self._planned() if match.planned else self._draw(
            match.kind[order], match.c0 - _exclusive_cumsum(match.inter[order]),
        )
        if order is None:
            oneway = block
        else:
            oneway = np.empty_like(block)
            oneway[order] = block
        t = self._arrivals(match, start, oneway)
        # One TCP stream per pair: arrivals cannot overtake.  A phase
        # completes at most one receive per process, so this only looks
        # back at earlier phases.
        pairs = match.pairs
        t = np.maximum(t, self._last[pairs])
        self._last[pairs] = t
        completion = np.maximum(start, t)
        self._wait[recv] += completion - start
        if self.trace is not None:
            self._trace_match(match, order, start, completion)
        clock[recv] = completion
        return order

    def _arrivals(self, match: MatchPhase, start, oneway) -> np.ndarray:
        """When each received message arrives, given its one-way draw and
        before the per-pair floor -- the batched form of the per-run
        engine's ``arrival_of``, NIC serialisation included.

        The per-run engine completes a phase's receives in its own
        (block time, procnum) order, and that order decides which of two
        messages through one NIC pipe goes first.  Block times (*start*)
        are per-run, so the messages sharing a sender node's transmit
        pipe (and with ``txrx`` a receiver node's pipe) are chained in
        each run's own order (:meth:`_chain`).
        """
        t = self._depart[match.slots]
        direct = match.direct
        if direct is True:
            t += oneway
            return t
        if direct is not None:
            t[direct] += oneway[direct]
        for group in match.tx:
            self._chain(self._tx_free, group, t, start, oneway)
        for group in match.rx:
            self._chain(self._rx_free, group, t, start)
        return t

    def _chain(self, pipes, group, t, start, oneway=None) -> None:
        """Pass a group's messages through their NIC pipes: ``t`` goes
        from when each message is ready to when its pipe releases it,
        and each pipe's row of *pipes* is updated.  Messages sharing a
        pipe go in each run's own order of their receivers' (block time,
        procnum), one :func:`_step` each.  Given the *oneway* draws, the
        pipes are transmit pipes and ``t`` also gains the one-way time:
        the message arrives that long after it enters the wire.
        """
        k, idx, nodes, gcls = group
        tx = oneway is not None
        gaps = self._gap[gcls]
        free = pipes[nodes]
        ready = t[idx]
        if k == 1:
            released, free = _step(ready, free, gaps, tx)
        elif k == 2:
            # Both orders, then each run keeps its own; on equal block
            # times the lower procnum goes first.
            keys = start[idx]
            a_first = keys[:, 0] <= keys[:, 1]
            ra, rb, ga, gb = ready[:, 0], ready[:, 1], gaps[:, :1], gaps[:, 1:]
            oa1, f = _step(ra, free, ga, tx)
            ob2, fa = _step(rb, f, gb, tx)
            ob1, f = _step(rb, free, gb, tx)
            oa2, fb = _step(ra, f, ga, tx)
            released = np.empty_like(ready)
            released[:, 0] = np.where(a_first, oa1, oa2)
            released[:, 1] = np.where(a_first, ob2, ob1)
            free = np.where(a_first, fa, fb)
        else:
            # A stable sort puts each run in its own order, keeping
            # procnum order among equal block times.
            pipe = np.arange(len(nodes))[:, None, None]
            runs = np.arange(self.runs)
            order = start[idx].argsort(axis=1, kind="stable")
            ready, gaps = ready[pipe, order, runs], gaps[pipe, order]
            served = np.empty_like(ready)
            for q in range(k):
                served[:, q], free = _step(ready[:, q], free, gaps[:, q], tx)
            released = np.empty_like(ready)
            released[pipe, order, runs] = served
        if tx:
            released = released + oneway[idx]
        t[idx] = released
        pipes[nodes] = free

    # -- the last run's events -------------------------------------------------------
    def _trace_sweep(self, sweep: SweepPhase, order, clocks: dict) -> None:
        """Record the last run's sweep events in run-time process order,
        then op order; *clocks* holds each process's ``(start, end)`` per
        op position.  A serial op starts at ``end - seconds``, the per-run
        engine's arithmetic, so the two engines' events compare equal."""
        record = self.trace.record
        for i in (range(len(sweep.procs)) if order is None else order.tolist()):
            p = sweep.procs[i]
            segment = self._ops[p][sweep.starts[i]:sweep.ends[i]]
            for op, (t0, t1) in zip(segment, clocks.get(p, ())):
                if op[0] == "serial":
                    record(p, "serial", op[2], t1 - op[1], t1)
                elif op[0] == "send":
                    record(p, "send", op[3], t0, t1)

    def _trace_match(self, match: MatchPhase, order, start, completion) -> None:
        """Record the last run's receive events in run-time receive order."""
        record = self.trace.record
        t0, t1 = start[:, -1].tolist(), completion[:, -1].tolist()
        for i in (range(len(t0)) if order is None else order.tolist()):
            p = match.procs[i]
            label = self._ops[p][match.recv_ops[i]][2]
            record(p, "recv", label, t0[i], t1[i])

    # -- results ---------------------------------------------------------------------
    def _results(self, plan) -> list[MachineResult]:
        """Unpack the finished batch into per-run MachineResults."""
        clock = self._clock
        elapsed = clock.max(axis=0).tolist()
        finish = clock.T.tolist()
        send_t = self._send_t.T.tolist()
        wait = self._wait.T.tolist()
        orphans = [[] for _ in range(self.runs)]
        for m, src, dst, size, intra, payload, slot in plan.orphans:
            for j, depart in enumerate(self._depart[slot].tolist()):
                orphans[j].append(ScoreboardEntry(
                    msg_id=m, src=src, dst=dst, size=size, depart_time=depart,
                    intra=intra, payload=payload,
                ))
        last = self.runs - 1
        return [
            MachineResult(
                elapsed=elapsed[j],
                finish_times=finish[j],
                compute_time=list(plan.compute),
                send_time=send_t[j],
                recv_wait_time=wait[j],
                messages=plan.messages,
                peak_contention=plan.peak,
                sweeps=len(plan.rounds),
                orphans=orphans[j],
                trace=self.trace if j == last else None,
            )
            for j in range(self.runs)
        ]
