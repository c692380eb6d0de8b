"""Compilation of model programs to static per-rank schedules.

The generator interpreter (:mod:`repro.pevpm.interpreter`) re-evaluates
directive expressions and resumes a Python generator frame for every
operation of every sweep -- cost the paper's own Section 6 throughput
claim ("67.5 times its actual execution speed") says we cannot afford on
the hot path.  This module pays that cost **once**: :func:`compile_program`
traces a model program through one structural execution and lowers it to
a :class:`CompiledProgram` -- a static schedule of resolved op records
per rank, plus the record of the sweep/match rounds the trace walked.
:meth:`CompiledProgram.plan` lowers those rounds to a :class:`PhasePlan`
of index arrays, which the batched virtual machine runs a phase at a
time with a few array operations: no generator resume, no AST dispatch
and no loop over ops.

Why a single trace is sound
---------------------------

The *structure* of a model program -- which operations each process
executes, which message matches which receive -- is independent of the
sampled times for every construct except the wildcard receive:

* **Fixed-source receives** match per-(src, dst) FIFO order.  A sender's
  messages to one destination depart in program order with nondecreasing
  departure times in every run, so "oldest outstanding" is simply "first
  sent" -- a structural property.
* **Round structure** is structural too: the sweep/match alternation
  advances every runnable process to its next receive, and which
  receives *can* complete in a match phase depends only on which
  messages exist, not on their clock values.  Candidates are partitioned
  by destination (only process ``p`` removes messages addressed to
  ``p``), so the serving order within a phase cannot change the
  structure either.
* **Wildcard receives** with exactly one candidate source at their match
  phase are structural for the same reason.  With two or more candidate
  sources the winner depends on sampled arrival times -- a genuine
  divergence point.  The tracer detects this *at compile time* and marks
  the program :attr:`~CompiledProgram.divergent`; such a program keeps
  its generator form and runs one Monte Carlo run at a time on the
  per-run virtual machine, the only engine whose control flow may differ
  from run to run (:mod:`repro.pevpm.parallel` makes that choice).

The schedule holds exactly the ops the generator form yields, in the
same order, so the batched machine running it agrees with the per-run
machine running the generator bit for bit whenever the two draw the
same values -- e.g. under a deterministic timing model.  The per-run
machine always runs the generator form (:attr:`CompiledProgram.fallback`),
the reference the property tests hold the schedule to.

Schedules are cached per (model fingerprint, params, nprocs) by
:func:`compiled_program_for`; phase plans, which depend on the machine
shape (processes per node, NIC mode), are lowered lazily and cached on
the program by :meth:`CompiledProgram.plan`.
"""

from __future__ import annotations

import hashlib
import pickle
from itertools import repeat
from typing import Callable

import numpy as np

from .directives import Block
from .interpreter import compile_model
from .machine import ANY_SOURCE, MatchInfo, ModelDeadlock, ProcContext
from .scoreboard import ScoreboardEntry
from .timing import LOCAL_OP, ONEWAY_OP

__all__ = [
    "CompiledProgram",
    "PhasePlan",
    "compile_program",
    "compiled_program_for",
    "clear_compile_cache",
]


class Rounds:
    """The sweep/match rounds :func:`compile_program`'s trace walked, as
    flat integer lists (cheap to record, and to lower with NumPy).

    Round *k*'s sweep ran ``segments[k]`` processes: segment *s* is
    process ``seg_proc[s]`` running its ops ``[seg_start[s],
    seg_end[s])``.  Its match completed ``matches[k]`` receives (the last
    round has no match): process ``recv_proc[j]``, blocked at its op
    ``recv_op[j]``, took message ``recv_msg[j]``.  Message *m* is the op
    ``send_op[m]`` of process ``send_proc[m]``, in segment
    ``send_seg[m]``; ids are compile order.  Serial op *j* ran
    ``serial_time[j]`` seconds at position ``serial_pos[j]`` of segment
    ``serial_seg[j]``.  ``compute[p]`` is process *p*'s serial seconds,
    summed in op order.
    """

    __slots__ = (
        "segments", "seg_proc", "seg_start", "seg_end", "matches",
        "recv_proc", "recv_msg", "recv_op", "send_proc", "send_op",
        "send_seg", "serial_seg", "serial_pos", "serial_time", "compute",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, [])


class CompiledProgram:
    """A model program lowered to static per-rank op schedules.

    ``ops[p]`` is the exact operation sequence process *p* executes:
    ``("serial", seconds, label)``, ``("send", dst, size, label,
    payload)`` and ``("recv", src, label)`` tuples in program order --
    the same records the generator interpreter yields, resolved once.
    The trace also records its sweep/match rounds, which :meth:`plan`
    lowers to the executable :class:`PhasePlan` for one machine shape.

    The per-run virtual machine runs :attr:`fallback` -- the original
    generator program.  A :attr:`divergent` program (a wildcard receive
    whose winner is timing-dependent) carries no schedule, and the
    batched machine refuses it.
    """

    __slots__ = (
        "nprocs", "params", "ops", "divergent", "divergence", "fallback",
        "_rounds", "_plans",
    )

    def __init__(
        self,
        nprocs: int,
        params: dict | None,
        ops: list[list[tuple]] | None,
        fallback: Callable,
        divergent: bool = False,
        divergence: tuple | None = None,
        rounds: Rounds | None = None,
    ):
        self.nprocs = nprocs
        self.params = params
        self.ops = ops
        self.fallback = fallback
        self.divergent = divergent
        #: ``(procnum, op_index, round)`` of the first timing-dependent
        #: wildcard receive, when divergent (diagnostics).
        self.divergence = divergence
        #: the trace's :class:`Rounds`, lowered by :meth:`plan`
        self._rounds = rounds
        self._plans: dict[tuple[int, str], PhasePlan] = {}

    @property
    def messages(self) -> int:
        """Total messages the program sends (0 for divergent programs,
        whose schedule is unknown at compile time)."""
        return 0 if self.ops is None else len(self._rounds.send_proc)

    @property
    def n_ops(self) -> int:
        """Total op records across all ranks (0 when divergent)."""
        if self.ops is None:
            return 0
        return sum(len(ops) for ops in self.ops)

    def plan(self, ppn: int, nic: str) -> PhasePlan:
        """The :class:`PhasePlan` for a machine with *ppn* processes per
        node and NIC serialisation mode *nic*; cached per (ppn, nic)."""
        if self.ops is None:
            raise ValueError("divergent program has no static schedule")
        key = (ppn, nic)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = PhasePlan(
                self.ops, self._rounds, self.nprocs, ppn, nic
            )
        return plan

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.divergent:
            return (
                f"<CompiledProgram nprocs={self.nprocs} divergent "
                f"at {self.divergence}>"
            )
        return (
            f"<CompiledProgram nprocs={self.nprocs} ops={self.n_ops} "
            f"messages={self.messages}>"
        )


# -- phase plans -----------------------------------------------------------------
_SERIAL, _SEND = 0, 1


def _rows(rows: list[int]):
    """Ascending row numbers as the cheapest index that keeps the row
    axis: a slice (a view) for an arithmetic progression, else an
    integer array."""
    step = rows[1] - rows[0] if len(rows) > 1 else 1
    if step > 0 and rows == list(range(rows[0], rows[-1] + 1, step)):
        return slice(rows[0], rows[-1] + 1, step)
    return np.array(rows, dtype=np.intp)


def _runs(keys: np.ndarray) -> np.ndarray:
    """Start offsets of the runs of equal values in *keys*, plus its
    length."""
    if not len(keys):
        return np.zeros(1, dtype=np.intp)
    return np.flatnonzero(np.r_[True, keys[1:] != keys[:-1], True])


class SweepPhase:
    """One sweep of a :class:`PhasePlan`: each runnable process
    ``procs[i]`` (ascending procnum) runs its ops ``[starts[i], ends[i])``
    to its next receive or its end.

    The engine draws the sweep's sends in run-time process order (the
    previous match's order) and op order: :attr:`specs` lists them in
    ascending procnum order, and is :attr:`fixed` when every process
    order lists the same specs.  :attr:`steps` then advance the clocks
    one op position at a time, so each process's clock takes its ops'
    additions in program order: per position, ``(rows, seconds,
    procs)`` for the serial ops and ``(rows, sends, slots, procs)`` for
    the sends, ``sends`` slicing the sweep's sends in position-major
    order.  ``send_proc``/``send_nth`` name each position-major send's
    process (local index) and its index among that process's sends, and
    :attr:`rows` its draw row in procnum order (``None``: identity).
    """

    __slots__ = (
        "procs", "starts", "ends", "c0", "specs", "fixed", "levels",
        "counts", "size", "intra", "send_proc", "send_nth", "rows", "steps",
    )


class MatchPhase:
    """One match of a :class:`PhasePlan`: the receives that complete,
    receivers (:attr:`procs`) in ascending procnum order, with the
    message each takes.

    Local index *i* is the *i*-th receiver.  :attr:`specs` lists the
    arrival draws in that order (:attr:`fixed` when any order lists the
    same).  :attr:`direct` names the messages that reach their receiver
    without a NIC pipe: ``None``, all of them (``True``) or their local
    indices.  :attr:`tx` and :attr:`rx` group the others by NIC pipe:
    ``(k, idx, nodes, gcls)`` serves the pipes carrying *k* messages
    each, ``idx`` being their ``(pipes, k)`` local indices in procnum
    order (a flat ``(pipes,)`` index when ``k == 1``), and ``gcls`` each
    message's ``(pipes, k)`` size class for its serialisation gap.
    """

    __slots__ = (
        "procs", "recv", "recv_ops", "slots", "pairs", "c0", "specs",
        "fixed", "levels", "size", "intra", "inter", "direct", "tx", "rx",
    )


def _pipes(rnd, node, wire, gcls, r_first, n_nodes: int, n_rounds: int) -> list:
    """Per round, the NIC pipe groups of :class:`MatchPhase`: the
    receives (global index, round *rnd*) with *wire* set grouped by pipe
    *node*, then the pipes by the number of messages *k* they carry."""
    out: list[list] = [[] for _ in range(n_rounds)]
    sel = np.flatnonzero(wire)
    if not len(sel):
        return out
    key = rnd[sel] * n_nodes + node[sel]
    by_pipe = np.argsort(key, kind="stable")  # procnum order per pipe
    members = sel[by_pipe]
    bounds = _runs(key[by_pipe])
    first, k = bounds[:-1], np.diff(bounds)
    pipe_round = rnd[members[first]]
    by = np.lexsort((k, pipe_round))
    blocks = _runs(pipe_round[by] * (int(k.max()) + 1) + k[by]).tolist()
    for u, v in zip(blocks, blocks[1:]):
        pipes = by[u:v]
        size = int(k[pipes[0]])
        rd = int(pipe_round[pipes[0]])
        idx = members[first[pipes][:, None] + np.arange(size)]
        local = idx - r_first[rd]
        out[rd].append((
            size, _rows(local[:, 0].tolist()) if size == 1 else local,
            node[idx[:, 0]], gcls[idx],
        ))
    return out


class PhasePlan:
    """A static program's sweep/match rounds as index arrays, for one
    machine shape (*ppn* processes per node, NIC mode *nic*).

    Everything here is structure, the same in every run and for every
    seed: which processes run which ops in each sweep, which receives
    complete in each match and with which message, which messages share
    a NIC pipe, the contention level every draw sees in procnum order,
    and each message's (src, dst) pair and departure slot.  Timing
    values (draws, serialisation gaps) are looked up per run; the only
    run-time order left is each match's batch-mean block-time order
    (see :mod:`repro.pevpm.vector`).

    Messages are numbered in compile order: the order the trace sent
    them, round by round, process by process, op by op.  A message holds
    a departure slot from its send to its receive, so the engine keeps
    one row per outstanding message, not per message.
    """

    __slots__ = (
        "rounds", "messages", "peak", "compute", "n_slots", "n_pairs",
        "n_nodes", "gap_sizes", "orphans",
    )

    def __init__(self, ops, record: Rounds, nprocs: int, ppn: int, nic: str):
        self.n_nodes = -(-nprocs // ppn)
        self.compute = record.compute
        n_rounds = len(record.segments)

        # -- messages, in compile order
        m_count = self.messages = len(record.send_proc)
        send_ops = [ops[s][i] for s, i in zip(record.send_proc, record.send_op)]
        sizes = [op[2] for op in send_ops]
        size_arr = np.empty(m_count, dtype=object)
        size_arr[:] = sizes
        src = np.array(record.send_proc, dtype=np.intp)
        dst = np.array([op[1] for op in send_ops], dtype=np.intp)
        src_node, dst_node = src // ppn, dst // ppn
        intra = src_node == dst_node
        inter = (~intra).astype(np.intp)
        intra_list = intra.tolist()
        pair = np.unique(src * nprocs + dst, return_inverse=True)[1].reshape(-1)
        self.n_pairs = int(pair.max()) + 1 if m_count else 0
        size_num = np.array(sizes, dtype=float)
        size_id = np.unique(size_num, return_inverse=True)[1].reshape(-1)
        _, first, wire_id = np.unique(
            size_num[~intra], return_index=True, return_inverse=True
        )
        #: the distinct sizes of inter-node messages, by size class
        self.gap_sizes = size_arr[~intra][first].tolist()
        gcls = np.full(m_count, -1, dtype=np.intp)
        gcls[~intra] = wire_id.reshape(-1)

        # -- every sweep op but the receives (serials, then sends),
        # sorted by (round, position, kind, procnum): the runs of equal
        # (round, position, kind) are the sweeps' steps
        seg_count = np.array(record.segments, dtype=np.intp)
        seg_first = np.zeros(n_rounds + 1, dtype=np.intp)
        np.cumsum(seg_count, out=seg_first[1:])
        seg_round = np.repeat(np.arange(n_rounds), seg_count)
        seg_proc = np.array(record.seg_proc, dtype=np.intp)
        seg_start = np.array(record.seg_start, dtype=np.intp)
        send_seg = np.array(record.send_seg, dtype=np.intp)
        n_serial = len(record.serial_seg)
        owner = np.r_[np.array(record.serial_seg, dtype=np.intp), send_seg]
        pos = np.r_[
            np.array(record.serial_pos, dtype=np.intp),
            np.array(record.send_op, dtype=np.intp) - seg_start[send_seg],
        ]
        k_op = np.r_[np.full(n_serial, _SERIAL, np.int8), np.full(m_count, _SEND, np.int8)]
        value = np.r_[np.array(record.serial_time, dtype=float), np.zeros(m_count)]
        op_msg = np.r_[np.full(n_serial, -1, np.intp), np.arange(m_count)]
        rnd = seg_round[owner]
        order = np.lexsort((seg_proc[owner], k_op, pos, rnd))
        owner, pos, k_op, rnd = owner[order], pos[order], k_op[order], rnd[order]
        value, op_msg = value[order], op_msg[order]
        is_send = k_op == _SEND

        # -- sends per round (compile order is round-major), receives
        ns = np.bincount(rnd[is_send], minlength=n_rounds)
        m_first = np.zeros(n_rounds + 1, dtype=np.intp)
        np.cumsum(ns, out=m_first[1:])
        counts = np.bincount(send_seg, minlength=len(seg_proc))
        seg_m0 = np.cumsum(counts) - counts  # first message of each segment
        nr = np.zeros(n_rounds, dtype=np.intp)
        nr[:len(record.matches)] = record.matches
        r_first = np.zeros(n_rounds + 1, dtype=np.intp)
        np.cumsum(nr, out=r_first[1:])
        recv_msg = np.array(record.recv_msg, dtype=np.intp)

        # -- contention levels: one running count over every draw in plan
        # order (a round's sends, then its receives), excluding each
        # draw's own message
        send_at = np.arange(m_count) + r_first[np.repeat(np.arange(n_rounds), ns)]
        recv_at = np.arange(len(recv_msg)) + m_first[1:][np.repeat(np.arange(n_rounds), nr)]
        delta = np.zeros(m_count + len(recv_msg), dtype=np.intp)
        delta[send_at] = inter
        delta[recv_at] = -inter[recv_msg]
        running = np.cumsum(delta) - delta
        send_level = running[send_at].tolist()
        recv_level = running[recv_at].tolist()
        #: the population high-water mark: after a sweep's sends
        self.peak = int((np.cumsum(ns) - r_first[:-1]).max()) if n_rounds else 0

        # -- departure slots, reused once a message is received
        slot = np.empty(m_count, dtype=np.intp)
        free: list[int] = []
        self.n_slots = 0
        for k in range(n_rounds):
            a, b = int(m_first[k]), int(m_first[k + 1])
            take = min(b - a, len(free))
            if take:
                slot[a:a + take] = free[len(free) - take:]
                del free[len(free) - take:]
            slot[a + take:b] = np.arange(self.n_slots, self.n_slots + b - a - take)
            self.n_slots += b - a - take
            free += slot[recv_msg[r_first[k]:r_first[k + 1]]].tolist()

        # -- the sweeps' steps
        width = 4 * (int(pos.max()) + 1 if len(pos) else 1)
        step_at = _runs(rnd * width + pos * 4 + k_op).tolist()
        proc_list = seg_proc[owner].tolist()
        value_list = value.tolist()
        rank_list = (np.cumsum(is_send) - is_send).tolist()  # among sends
        slot_list = slot[op_msg].tolist() if m_count else []
        steps_of: list[list] = [[] for _ in range(n_rounds)]
        for u, v in zip(step_at, step_at[1:]):
            k = int(rnd[u])
            procs = proc_list[u:v]
            if k_op[u] == _SERIAL:
                seconds = value_list[u:v]
                if seconds.count(seconds[0]) == len(seconds):
                    seconds = seconds[0]
                else:
                    seconds = np.array(seconds)[:, None]
                steps_of[k].append(((_rows(procs), seconds, procs), None))
            else:
                first = rank_list[u] - int(m_first[k])
                steps_of[k].append((None, (
                    _rows(procs), slice(first, first + v - u),
                    _rows(slot_list[u:v]), procs,
                )))
        send_owner = owner[is_send]
        send_msg = op_msg[is_send]
        send_proc = (np.arange(len(seg_proc)) - seg_first[seg_round])[send_owner]
        send_nth = send_msg - seg_m0[send_owner]
        # Position-major send j of round k is draw row send_msg[j] -
        # m_first[k] in procnum order; flag the rounds where that is not j.
        moved = np.bincount(
            rnd[is_send][send_msg != np.arange(m_count)], minlength=n_rounds
        ).tolist()

        # -- per-draw kinds: a phase's specs are order-free when its
        # (size, intra) kinds agree, its levels when its intra flags do
        kind_of = size_id * 2 + intra

        def uniform(values, first):
            """Per phase (bounds *first*), whether *values* agree."""
            out = np.ones(n_rounds, dtype=bool)
            full = first[1:] > first[:-1]
            if full.any():
                at = first[:-1][full]
                out[full] = (np.maximum.reduceat(values, at)
                             == np.minimum.reduceat(values, at))
            return out.tolist()

        send_fixed = uniform(kind_of, m_first)
        send_flat = uniform(inter, m_first)
        procs_with_sends = np.add.reduceat(counts > 0, seg_first[:-1]) if len(seg_proc) else ()
        r_kind = kind_of[recv_msg]
        recv_intra = intra[recv_msg]
        recv_fixed = uniform(r_kind, r_first)
        recv_flat = uniform(recv_intra.astype(np.intp), r_first)
        recv_slot, recv_pair = slot[recv_msg], pair[recv_msg]
        recv_size, recv_inter = size_arr[recv_msg], inter[recv_msg]
        recv_sizes, recv_intra_list = recv_size.tolist(), recv_intra.tolist()
        recv_round = np.repeat(np.arange(n_rounds), nr)
        tx = rx = [()] * n_rounds
        if nic != "off":
            wire, recv_gcls = ~recv_intra, gcls[recv_msg]
            tx = _pipes(recv_round, src_node[recv_msg], wire, recv_gcls, r_first,
                        self.n_nodes, n_rounds)
            if nic == "txrx":
                rx = _pipes(recv_round, dst_node[recv_msg], wire, recv_gcls,
                            r_first, self.n_nodes, n_rounds)

        # -- the phases
        rounds = []
        for k in range(n_rounds):
            sweep = SweepPhase()
            s0, s1 = int(seg_first[k]), int(seg_first[k + 1])
            sweep.procs = record.seg_proc[s0:s1]
            sweep.starts = record.seg_start[s0:s1]
            sweep.ends = record.seg_end[s0:s1]
            sweep.steps = steps_of[k]
            a, b = int(m_first[k]), int(m_first[k + 1])
            sweep.specs = list(zip(
                repeat(LOCAL_OP, b - a), sizes[a:b], send_level[a:b],
                intra_list[a:b],
            ))
            sweep.c0 = send_level[a] if b > a else 0
            sweep.counts = counts[s0:s1]
            sweep.fixed = send_fixed[k] or procs_with_sends[k] <= 1
            sweep.levels = send_level[a:b] if send_flat[k] else None
            sweep.size = size_arr[a:b]
            sweep.intra = intra[a:b]
            sweep.send_proc = send_proc[a:b]
            sweep.send_nth = send_nth[a:b]
            sweep.rows = send_msg[a:b] - a if moved[k] else None
            match = None
            if k < len(record.matches):
                match = MatchPhase()
                u, v = int(r_first[k]), int(r_first[k + 1])
                match.procs = record.recv_proc[u:v]
                match.recv = _rows(match.procs)
                match.recv_ops = record.recv_op[u:v]
                match.slots = recv_slot[u:v]
                match.pairs = recv_pair[u:v]
                m_intra = recv_intra_list[u:v]
                match.specs = list(zip(
                    repeat(ONEWAY_OP, v - u), recv_sizes[u:v], recv_level[u:v],
                    m_intra,
                ))
                match.c0 = recv_level[u]
                match.fixed = recv_fixed[k]
                match.levels = recv_level[u:v] if recv_flat[k] else None
                match.size = recv_size[u:v]
                match.intra = recv_intra[u:v]
                match.inter = recv_inter[u:v]
                direct = (list(range(v - u)) if nic == "off"
                          else [i for i, f in enumerate(m_intra) if f])
                match.direct = (
                    True if len(direct) == v - u
                    else _rows(direct) if direct else None
                )
                match.tx, match.rx = tuple(tx[k]), tuple(rx[k])
            rounds.append((sweep, match))
        self.rounds = rounds
        received = np.zeros(m_count, dtype=bool)
        received[recv_msg] = True
        #: ``(msg id, src, dst, size, intra, payload, slot)`` of every
        #: message never received, in compile order
        self.orphans = [
            (m, record.send_proc[m], send_ops[m][1], sizes[m], intra_list[m],
             send_ops[m][4], int(slot[m]))
            for m in np.flatnonzero(~received).tolist()
        ]


def _as_program(model, params: dict | None) -> Callable:
    """Normalise a directive Block or program callable to the generator
    factory form both virtual machines accept."""
    if isinstance(model, Block):
        return compile_model(model, params)
    if callable(model):
        return model
    raise TypeError(
        "model must be a directive Block or a program callable(ctx) -> generator"
    )


def compile_program(
    model,
    nprocs: int,
    params: dict | None = None,
    max_rounds: int = 10_000_000,
) -> CompiledProgram:
    """Trace *model* once and lower it to a :class:`CompiledProgram`.

    *model* is a directive ``Block`` or a program callable.  The trace
    replays the virtual machines' sweep/match round structure without
    any timing: processes advance to their next receive, then every
    receive with a structural candidate completes with the exact
    :class:`~repro.pevpm.machine.MatchInfo` the runtime would deliver
    (per-pair FIFO).  A wildcard receive facing two or more candidate
    sources marks the program divergent (see the module docstring); a
    round in which nothing completes raises
    :class:`~repro.pevpm.machine.ModelDeadlock` -- the paper's automatic
    deadlock discovery, surfaced at compile time.
    """
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    program = _as_program(model, params)
    ops: list[list[tuple]] = [[] for _ in range(nprocs)]
    gens = [program(ProcContext(p, nprocs, params)) for p in range(nprocs)]
    resume: list[MatchInfo | None] = [None] * nprocs
    done = [False] * nprocs
    blocked: list[int | None] = [None] * nprocs  #: recv source pattern
    # Structural scoreboard: per-(src, dst) FIFO of message ids; a
    # message's id is its index in the record's sends -- compile order.
    pending: dict[tuple[int, int], list[int]] = {}
    record = Rounds()
    compute = record.compute = [0.0] * nprocs
    runnable = list(range(nprocs))
    rounds = 0

    def _divergent(p: int, rnd: int) -> CompiledProgram:
        for g in gens:
            g.close()
        return CompiledProgram(
            nprocs, params, None, program,
            divergent=True, divergence=(p, len(ops[p]) - 1, rnd),
        )

    while True:
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError(
                f"model exceeded {max_rounds} sweep/match rounds during trace"
            )
        for p in runnable:
            gen = gens[p]
            trace = ops[p]
            seg = len(record.seg_proc)
            start = len(trace)
            record.seg_proc.append(p)
            record.seg_start.append(start)
            while True:
                try:
                    op = gen.send(resume[p])
                except StopIteration:
                    done[p] = True
                    break
                finally:
                    resume[p] = None
                trace.append(op)
                kind = op[0]
                if kind == "serial":
                    record.serial_seg.append(seg)
                    record.serial_pos.append(len(trace) - 1 - start)
                    record.serial_time.append(op[1])
                    compute[p] += op[1]
                    continue
                if kind == "send":
                    pending.setdefault((p, op[1]), []).append(len(record.send_proc))
                    record.send_proc.append(p)
                    record.send_op.append(len(trace) - 1)
                    record.send_seg.append(seg)
                    continue
                if kind == "recv":
                    blocked[p] = op[1]
                    break
                raise ValueError(f"unknown model operation {op!r}")
            record.seg_end.append(len(trace))
        record.segments.append(len(runnable))
        if all(done):
            break
        runnable = []
        for p in range(nprocs):
            if done[p] or blocked[p] is None:
                continue
            src = blocked[p]
            if src == ANY_SOURCE:
                candidates = [
                    s for s in range(nprocs) if pending.get((s, p))
                ]
                if len(candidates) > 1:
                    # Timing decides the winner: a genuine decision point.
                    return _divergent(p, rounds)
                if not candidates:
                    continue  # stays blocked; may match a later round
                src = candidates[0]
            queue = pending.get((src, p))
            if not queue:
                continue
            msg = queue.pop(0)
            sent = ops[src][record.send_op[msg]]
            resume[p] = MatchInfo(src, sent[2], sent[4])
            blocked[p] = None
            runnable.append(p)
            record.recv_proc.append(p)
            record.recv_msg.append(msg)
            record.recv_op.append(len(ops[p]) - 1)
        record.matches.append(len(runnable))
        if not runnable:
            orphans = [
                ScoreboardEntry(
                    msg_id=m, src=s, dst=sent[1], size=sent[2],
                    depart_time=0.0, payload=sent[4],
                )
                for m in sorted(m for queue in pending.values() for m in queue)
                for s in (record.send_proc[m],)
                for sent in (ops[s][record.send_op[m]],)
            ]
            stuck = {
                p: blocked[p]  # type: ignore[dict-item]
                for p in range(nprocs)
                if not done[p] and blocked[p] is not None
            }
            # Each blocked rank's last traced op is the receive it
            # stalled at -- name it so the diagnostic points at the
            # offending directive, not just the scoreboard orphans.
            raise ModelDeadlock(
                stuck, orphans, sites={p: len(ops[p]) - 1 for p in stuck}
            )
    return CompiledProgram(nprocs, params, ops, program, rounds=record)


# -- the compile cache -----------------------------------------------------------
# Keyed by (model fingerprint, nprocs): the same identity prediction_key
# hashes, so any model the prediction cache can address
# compiles exactly once per process (workers included -- each worker
# process carries its own cache).  Unfingerprintable models (closures
# pickle refuses) compile per call; the per-group program cache in
# repro.pevpm.parallel still bounds that to once per (group, process).
_COMPILE_CACHE: dict[tuple[str, int], CompiledProgram] = {}


def clear_compile_cache() -> None:
    """Drop every cached compiled program (tests / memory pressure)."""
    _COMPILE_CACHE.clear()


def compiled_program_for(
    model, nprocs: int, params: dict | None = None
) -> CompiledProgram:
    """The cached form of :func:`compile_program`."""
    try:
        blob = pickle.dumps((model, params), protocol=4)
        key = (hashlib.sha256(blob).hexdigest(), nprocs)
    except Exception:
        key = None
    if key is not None:
        hit = _COMPILE_CACHE.get(key)
        if hit is not None:
            return hit
    compiled = compile_program(model, nprocs, params)
    if key is not None:
        _COMPILE_CACHE[key] = compiled
    return compiled
