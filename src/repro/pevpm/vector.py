"""The batched (vectorised) virtual parallel machine.

The scalar engine in :mod:`repro.pevpm.machine` evaluates one Monte
Carlo run per sweep/match pass, so R runs pay the Python interpreter R
times for every modelled message.  This module advances *all R runs in
lockstep*: one pass over each process's operations, with the per-run
virtual clocks, departure times and arrival times carried as NumPy
``(R,)`` vectors and every phase's timing draws served by one
:meth:`~repro.pevpm.timing.TimingModel.draw_block` call.

This works because a model program's *structure* -- which operations
each process executes, which messages exist, which process blocks at
which receive -- is almost always identical across runs; only the clock
values differ.  The engine exploits that by keeping one scoreboard and
one generator per process for the whole batch, and handles the
exceptions by **divergence splitting**:

* a wildcard (``ANY_SOURCE``) receive samples an arrival vector for
  every candidate message; if different runs would match different
  messages, the batch splits into congruent sub-batches (one per winning
  message, in ascending message-id order), each continuing
  independently with its runs' slice of every state vector;
* control flow after a split can genuinely differ (a task-farm master
  reacts to whichever worker reported first), so each sub-batch *forks*
  its process generators by deterministic replay: a fresh generator is
  driven through the recorded resume history (the sequence of
  :class:`~repro.pevpm.machine.MatchInfo` values delivered so far).

A sub-batch of size 1 costs what a per-run evaluation costs, so heavily
divergent programs degrade gracefully to per-run evaluation cost.  It
matches the per-run engine statistically, not bit for bit: the two
engines consume the RNG stream in different orders.

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
  same model, not bit-identical ones.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter
from typing import Callable, Generator

import numpy as np

from .machine import (
    ANY_SOURCE,
    MachineResult,
    MatchInfo,
    ModelDeadlock,
    ProcContext,
    validate_machine_config,
)
from .scoreboard import ScoreboardEntry, VectorEntry, VectorScoreboard
from .timing import LOCAL_OP, ONEWAY_OP, TimingModel

__all__ = ["BatchedVirtualMachine"]


class _BatchProc:
    """Per-process state for one (sub-)batch: one shared generator, with
    the run-dependent clocks as ``(r,)`` vectors."""

    __slots__ = (
        "ctx", "gen", "ops", "ip", "done", "blocked_src", "blocked_label",
        "resume_value", "n_yields", "matches", "vtime", "compute", "send_t",
        "wait", "block_start", "sends", "recvs",
    )

    def __init__(self, ctx: ProcContext, gen, r: int, ops=None):
        self.ctx = ctx
        self.gen = gen
        #: compiled schedule + instruction pointer; when set, a sweep
        #: slices its segment from these ops instead of the generator
        self.ops = ops
        self.ip = 0
        self.done = False
        self.blocked_src: int | None = None
        self.blocked_label = ""
        self.resume_value = None
        #: successful generator resumptions so far (the replay length)
        self.n_yields = 0
        #: MatchInfo values delivered at receive completions, in order --
        #: together with n_yields this is the full resume history
        self.matches: list[MatchInfo] = []
        self.vtime = np.zeros(r)
        self.compute = np.zeros(r)
        self.send_t = np.zeros(r)
        self.wait = np.zeros(r)
        self.block_start = np.zeros(r)
        self.sends = 0
        self.recvs = 0


class _SubBatch:
    """A set of runs whose control flow is (so far) congruent, plus the
    engine's resume point within the sweep/match loop."""

    __slots__ = (
        "runs", "procs", "scoreboard", "arrivals", "last_arrival",
        "tx_free", "rx_free", "sweeps", "mode", "runnable", "blocked",
        "match_idx",
    )

    def __init__(self):
        self.runs: np.ndarray | None = None  #: global run indices
        self.procs: list[_BatchProc] = []
        self.scoreboard = VectorScoreboard()
        self.arrivals: dict[int, np.ndarray] = {}
        self.last_arrival: dict[tuple[int, int], np.ndarray] = {}
        self.tx_free: dict[int, np.ndarray] = {}
        self.rx_free: dict[int, np.ndarray] = {}
        self.sweeps = 0
        self.mode = "sweep"
        self.runnable: list[int] = []
        self.blocked: list[int] = []
        self.match_idx = 0

    @property
    def size(self) -> int:
        return len(self.runs)


class BatchedVirtualMachine:
    """Evaluate *runs* Monte Carlo runs of a model program in one pass.

    Mirrors :class:`~repro.pevpm.machine.VirtualMachine` but
    :meth:`run` returns one :class:`MachineResult` per run, all drawn
    from a single RNG stream seeded by *seed* (see the module docstring
    for the batch-mode seed-stream convention).  Tracing is not
    supported -- a traced run needs the per-run engine.
    """

    def __init__(
        self,
        nprocs: int,
        timing: TimingModel,
        seed: int | np.random.SeedSequence = 0,
        runs: int = 1,
        params: dict | None = None,
        max_sweeps: int = 10_000_000,
        nic_serialisation: str = "tx",
        ppn: int = 1,
        profiler=None,
    ):
        validate_machine_config(nprocs, ppn, nic_serialisation)
        if runs < 1:
            raise ValueError("runs must be >= 1")
        self.nprocs = nprocs
        self.timing = timing
        self.runs = runs
        self.params = params or {}
        self.rng = np.random.default_rng(seed)
        self.max_sweeps = max_sweeps
        self.nic_serialisation = nic_serialisation
        self.ppn = ppn
        #: divergence splits performed during the last :meth:`run`
        self.splits = 0
        #: size-1 sub-batches created (the per-run fallback degree)
        self.singleton_subbatches = 0
        #: optional :class:`repro.obs.PhaseProfiler` accumulating host
        #: seconds into sweep/match/sample buckets.  Wall-clock reads
        #: only -- never the seeded RNG stream, so a profiled batch is
        #: bit-identical to an unprofiled one.
        self.profiler = profiler

    # -- lifecycle ---------------------------------------------------------------
    def run(
        self, program: Callable[[ProcContext], Generator]
    ) -> list[MachineResult]:
        """Evaluate the batch; returns run-ordered results."""
        # Compiled programs sweep slices of their schedule; divergent ones
        # fall back to their generator form so sub-batch splitting works
        # unchanged.
        from .compile import CompiledProgram  # function-level: avoids cycle

        schedule = None
        if isinstance(program, CompiledProgram):
            if program.nprocs != self.nprocs:
                raise ValueError(
                    f"program compiled for {program.nprocs} processes, "
                    f"machine has {self.nprocs}"
                )
            if program.divergent:
                program = program.fallback
            else:
                schedule = program.schedule(self.ppn)
        self.timing.reset()
        self.splits = 0
        self.singleton_subbatches = 0
        results: list[MachineResult | None] = [None] * self.runs

        root = _SubBatch()
        root.runs = np.arange(self.runs)
        root.runnable = list(range(self.nprocs))
        for p in range(self.nprocs):
            ctx = ProcContext(p, self.nprocs, self.params)
            if schedule is None:
                root.procs.append(_BatchProc(ctx, program(ctx), self.runs))
            else:
                root.procs.append(
                    _BatchProc(ctx, None, self.runs, ops=schedule[p])
                )

        # Depth-first over congruent sub-batches: children are pushed in
        # reverse winner order so the lowest-message-id branch runs next.
        # The traversal order is structural, hence deterministic for a
        # given seed -- the single RNG stream is consumed identically on
        # every host and under every worker count.
        stack = [root]
        while stack:
            sb = stack.pop()
            children = self._advance(sb, program)
            if children is None:
                self._emit(sb, results)
            else:
                stack.extend(reversed(children))
        return results  # type: ignore[return-value]

    # -- the batched sweep/match loop ---------------------------------------------
    def _advance(self, sb: _SubBatch, program) -> list[_SubBatch] | None:
        """Run *sb* until it completes (returns ``None``) or diverges
        (returns its child sub-batches)."""
        while True:
            if sb.mode == "sweep":
                sb.sweeps += 1
                if sb.sweeps > self.max_sweeps:
                    raise RuntimeError(
                        f"model exceeded {self.max_sweeps} sweep/match rounds"
                    )
                prof = self.profiler
                if prof is None:
                    self._sweep(sb)
                else:
                    mark = prof.mark()
                    t0 = _perf_counter()
                    self._sweep(sb)
                    # Draw time inside the sweep is already in "sample";
                    # exclusive() keeps the buckets disjoint.
                    prof.exclusive("sweep", _perf_counter() - t0, mark)
                # After a sweep every live process is blocked at a receive.
                alive = [p for p in sb.procs if not p.done]
                if not alive:
                    return None
                # The scalar engine serves blocked processes in (block
                # time, procnum) order; block times are per-run here, so
                # the batch convention orders by the *batch-mean* block
                # time -- run-independent (hence congruent) and exactly
                # the scalar order whenever the runs agree.  The NIC
                # occupancy chaining depends on this order, so matching
                # the scalar convention keeps the engines statistically
                # aligned.  Computed as the block-time *sum* (same order:
                # every proc divides by the same run count), one row-wise
                # reduce over the stacked vectors -- each row is summed
                # exactly as a reduce of that vector alone would.
                sums = np.add.reduce(
                    np.array([p.block_start for p in alive]), axis=1
                ).tolist()
                sb.blocked = [
                    pn for _, pn in sorted(zip(sums, [p.ctx.procnum for p in alive]))
                ]
                sb.match_idx = 0
                sb.runnable = []
                sb.mode = "match"
            else:
                prof = self.profiler
                if prof is None:
                    children = self._match(sb, program)
                else:
                    mark = prof.mark()
                    t0 = _perf_counter()
                    children = self._match(sb, program)
                    prof.exclusive("match", _perf_counter() - t0, mark)
                if children is not None:
                    return children
                if not sb.runnable:
                    raise ModelDeadlock(
                        {
                            pn: sb.procs[pn].blocked_src
                            for pn in sb.blocked
                            if sb.procs[pn].blocked_src is not None
                        },
                        self._orphans(sb, 0),
                    )
                sb.mode = "sweep"

    def _draw(self, specs: list[tuple], r: int):
        """The engine's one draw site: every ``(op, size, contention,
        intra)`` of *specs* drawn as one block, returned as an iterator
        over its ``(r,)`` rows in spec order."""
        if not specs:
            return iter(())
        prof = self.profiler
        if prof is None:
            return iter(self.timing.draw_block(specs, self.rng, r))
        t0 = _perf_counter()
        block = self.timing.draw_block(specs, self.rng, r)
        prof.add("sample", _perf_counter() - t0)
        return iter(block)

    def _segment(self, proc: _BatchProc, pn: int) -> list[tuple]:
        """The ops *proc* runs in this sweep, through its next receive.

        A compiled process slices its schedule.  A generator process is
        run forward to its next receive: sends get nothing back, so
        nothing it yields before the receive depends on a drawn time.
        Sends come out as ``("send", dst, size, label, payload, intra)``
        either way.  Marks the process done when its program ends."""
        ops = proc.ops
        if ops is not None:
            ip = proc.ip
            for j in range(ip, len(ops)):
                if ops[j][0] == "recv":
                    proc.ip = j + 1
                    return ops[ip:j + 1]
            proc.ip = len(ops)
            proc.done = True
            return ops[ip:]
        gen = proc.gen
        node = pn // self.ppn
        seg = []
        value = proc.resume_value
        proc.resume_value = None
        while True:
            try:
                op = gen.send(value)
            except StopIteration:
                proc.done = True
                proc.gen = None
                return seg
            value = None
            proc.n_yields += 1
            kind = op[0]
            if kind == "send":
                _k, dst, size, label, payload = op
                op = (kind, dst, size, label, payload, node == dst // self.ppn)
            elif kind == "recv":
                seg.append(op)
                return seg
            elif kind != "serial":
                raise ValueError(f"unknown model operation {op!r}")
            seg.append(op)

    def _sweep(self, sb: _SubBatch) -> None:
        """One sweep phase: every runnable process runs to its next
        receive (or its end).  The structural pass lists each send's
        local-time draw at the contention it sees -- one more per
        inter-node send before it -- and the numeric pass advances the
        clocks with the block's rows."""
        scoreboard = sb.scoreboard
        c = scoreboard.contention
        specs = []
        segments = []
        for pn in sb.runnable:
            proc = sb.procs[pn]
            seg = self._segment(proc, pn)
            for op in seg:
                if op[0] == "send":
                    specs.append((LOCAL_OP, op[2], c, op[5]))
                    if not op[5]:
                        c += 1
            segments.append((pn, proc, seg))
        rows = self._draw(specs, sb.size)
        for pn, proc, seg in segments:
            vtime = proc.vtime
            for op in seg:
                kind = op[0]
                if kind == "serial":
                    vtime = vtime + op[1]
                    proc.compute += op[1]
                elif kind == "send":
                    cost = next(rows)
                    # Rebind (never mutate) the clock: the scoreboard
                    # entry keeps the departure vector alive.
                    scoreboard.add(pn, op[1], op[2], vtime, intra=op[5], payload=op[4])
                    vtime = vtime + cost
                    proc.send_t += cost
                    proc.sends += 1
                else:  # recv: the decision point
                    proc.blocked_src = op[1]
                    proc.blocked_label = op[2]
                    proc.block_start = vtime
            proc.vtime = vtime

    def _match(self, sb: _SubBatch, program) -> list[_SubBatch] | None:
        """Process the match phase from ``sb.match_idx``; returns child
        sub-batches on divergence, ``None`` when the phase completes.

        The structural pass plans the receives up to the next *race* -- a
        wildcard receive facing two or more candidate heads, whose winner
        depends on drawn times: the message each completes, and each
        uncached arrival draw at the contention it sees (one less per
        inter-node message completed before it).  The race's uncached
        candidates join the same block.  Candidate *existence* is
        structural, so the same receives complete in every run.
        """
        scoreboard = sb.scoreboard
        blocked = sb.blocked
        arrivals = sb.arrivals
        while sb.match_idx < len(blocked):
            plan = []
            specs = []
            race = None
            c = scoreboard.contention
            idx = sb.match_idx
            while idx < len(blocked):
                pn = blocked[idx]
                src = sb.procs[pn].blocked_src
                if src == ANY_SOURCE:
                    heads = scoreboard.heads_for_dst(pn)
                    if len(heads) > 1:
                        race = heads
                        break
                    entry = heads[0] if heads else None
                else:
                    entry = scoreboard.oldest_for(src, pn)
                if entry is not None:
                    plan.append((pn, entry))
                    if entry.msg_id not in arrivals:
                        specs.append((ONEWAY_OP, entry.size, c, entry.intra))
                    if not entry.intra:
                        c -= 1
                idx += 1
            if race is not None:
                specs.extend(
                    (ONEWAY_OP, e.size, c, e.intra)
                    for e in race if e.msg_id not in arrivals
                )
            rows = self._draw(specs, sb.size)
            for pn_done, entry in plan:
                self._complete(sb, pn_done, entry, rows)
            sb.match_idx = idx
            if race is None:
                return None
            # Ties and the argmin tie-break both resolve to the lowest
            # message id because heads are in ascending-id order.
            arr = np.array([self._arrival(sb, e, rows) for e in race])
            win = np.argmin(arr, axis=0)
            winners = np.unique(win)
            if len(winners) > 1:
                return self._split(sb, pn, race, win, winners, program)
            self._complete(sb, pn, race[int(winners[0])])
            sb.match_idx += 1
        return None

    def _complete(
        self, sb: _SubBatch, pn: int, entry: VectorEntry, rows=None
    ) -> None:
        """Finish process *pn*'s receive with *entry*, vectorised."""
        proc = sb.procs[pn]
        t_arr = self._arrival(sb, entry, rows)
        completion = np.maximum(proc.vtime, t_arr)
        proc.wait += completion - proc.block_start
        proc.recvs += 1
        proc.vtime = completion
        proc.blocked_src = None
        info = MatchInfo(entry.src, entry.size, entry.payload)
        proc.resume_value = info
        proc.matches.append(info)
        sb.scoreboard.remove(entry.msg_id)
        sb.arrivals.pop(entry.msg_id, None)
        sb.runnable.append(pn)

    def _arrival(self, sb: _SubBatch, entry: VectorEntry, rows) -> np.ndarray:
        """The arrival vector of a message, computed once from the next
        of *rows* -- the batched form of the scalar engine's
        ``arrival_of``, including NIC serialisation and the per-pair
        non-overtaking floor."""
        t = sb.arrivals.get(entry.msg_id)
        if t is not None:
            return t
        oneway = next(rows)
        if entry.intra or self.nic_serialisation == "off":
            t = entry.depart + oneway
        else:
            gap = self.timing.serialisation_gap(entry.size)
            src_node = entry.src // self.ppn
            dst_node = entry.dst // self.ppn
            free = sb.tx_free.get(src_node)
            inject = (
                entry.depart if free is None else np.maximum(entry.depart, free)
            )
            sb.tx_free[src_node] = inject + gap
            t = inject + oneway
            if self.nic_serialisation == "txrx":
                floor = sb.rx_free.get(dst_node)
                if floor is None:
                    t = np.maximum(t, gap)
                else:
                    t = np.maximum(t, floor + gap)
                sb.rx_free[dst_node] = t
        key = (entry.src, entry.dst)
        prev = sb.last_arrival.get(key)
        if prev is not None:
            t = np.maximum(t, prev)
        sb.last_arrival[key] = t
        sb.arrivals[entry.msg_id] = t
        return t

    # -- divergence splitting -------------------------------------------------------
    def _split(
        self,
        sb: _SubBatch,
        pn: int,
        heads: list[VectorEntry],
        win: np.ndarray,
        winners: np.ndarray,
        program,
    ) -> list[_SubBatch]:
        """Partition *sb* by the message each run's wildcard receive
        matches; every child finishes process *pn*'s receive with its
        forced winner and resumes the match phase at the next process."""
        self.splits += len(winners) - 1
        children = []
        for w in winners:
            mask = win == w
            child = self._slice(sb, mask, program)
            forced = child.scoreboard._entries[heads[int(w)].msg_id]
            self._complete(child, pn, forced)
            child.match_idx = sb.match_idx + 1
            if child.size == 1:
                self.singleton_subbatches += 1
            children.append(child)
        return children

    def _slice(self, sb: _SubBatch, mask: np.ndarray, program) -> _SubBatch:
        """A congruent copy of *sb* restricted to the runs where *mask*
        holds, with process generators forked by replay."""
        child = _SubBatch()
        child.runs = sb.runs[mask]
        child.scoreboard = sb.scoreboard.split(mask)
        child.arrivals = {m: a[mask] for m, a in sb.arrivals.items()}
        child.last_arrival = {k: v[mask] for k, v in sb.last_arrival.items()}
        child.tx_free = {k: v[mask] for k, v in sb.tx_free.items()}
        child.rx_free = {k: v[mask] for k, v in sb.rx_free.items()}
        child.sweeps = sb.sweeps
        child.mode = sb.mode
        child.runnable = list(sb.runnable)
        child.blocked = list(sb.blocked)
        child.match_idx = sb.match_idx
        child.procs = [self._fork_proc(p, mask, program) for p in sb.procs]
        return child

    def _fork_proc(self, proc: _BatchProc, mask: np.ndarray, program) -> _BatchProc:
        """Clone one process: slice its vectors and rebuild its generator
        by replaying the recorded resume history.

        A generator cannot be copied, but model programs are
        deterministic functions of their context and the values resumed
        into them, so driving a fresh generator through the same history
        suspends it at the same yield.  Replay cost is proportional to
        the operations executed so far, paid once per (split, process).
        """
        ctx = proc.ctx
        clone = _BatchProc(ctx, None, 0)
        clone.ops = proc.ops
        clone.ip = proc.ip
        clone.done = proc.done
        clone.blocked_src = proc.blocked_src
        clone.blocked_label = proc.blocked_label
        clone.resume_value = proc.resume_value
        clone.n_yields = proc.n_yields
        clone.matches = list(proc.matches)
        clone.vtime = proc.vtime[mask]
        clone.compute = proc.compute[mask]
        clone.send_t = proc.send_t[mask]
        clone.wait = proc.wait[mask]
        clone.block_start = proc.block_start[mask]
        clone.sends = proc.sends
        clone.recvs = proc.recvs
        if proc.done or proc.ops is not None:
            # Compiled procs fork by copying the cursor -- the schedule
            # is immutable shared state, so no replay is needed.
            return clone
        gen = program(ctx)
        feed = iter(clone.matches)
        op = None
        try:
            for _ in range(proc.n_yields):
                value = next(feed) if op is not None and op[0] == "recv" else None
                op = gen.send(value)
        except StopIteration:
            raise RuntimeError(
                "model program is not deterministic under replay: generator "
                "finished early while forking a diverged sub-batch"
            ) from None
        clone.gen = gen
        return clone

    # -- results ---------------------------------------------------------------------
    def _orphans(self, sb: _SubBatch, j: int) -> list[ScoreboardEntry]:
        """Run *j*'s view of the messages still on the scoreboard."""
        return [
            ScoreboardEntry(
                msg_id=e.msg_id, src=e.src, dst=e.dst, size=e.size,
                depart_time=float(e.depart[j]), intra=e.intra,
                payload=e.payload,
            )
            for e in sb.scoreboard.entries()
        ]

    def _emit(self, sb: _SubBatch, results: list) -> None:
        """Unpack a finished sub-batch into per-run MachineResults."""
        finish = np.stack([p.vtime for p in sb.procs])
        elapsed = finish.max(axis=0)
        has_orphans = len(sb.scoreboard) > 0
        for j, run in enumerate(sb.runs):
            results[int(run)] = MachineResult(
                elapsed=float(elapsed[j]),
                finish_times=[float(p.vtime[j]) for p in sb.procs],
                compute_time=[float(p.compute[j]) for p in sb.procs],
                send_time=[float(p.send_t[j]) for p in sb.procs],
                recv_wait_time=[float(p.wait[j]) for p in sb.procs],
                messages=sb.scoreboard.total_added,
                peak_contention=sb.scoreboard.peak,
                sweeps=sb.sweeps,
                orphans=self._orphans(sb, j) if has_orphans else [],
                trace=None,
            )
