"""Compilation of model programs to static per-rank schedules.

The generator interpreter (:mod:`repro.pevpm.interpreter`) re-evaluates
directive expressions and resumes a Python generator frame for every
operation of every sweep -- cost the paper's own Section 6 throughput
claim ("67.5 times its actual execution speed") says we cannot afford on
the hot path.  This module pays that cost **once**: :func:`compile_program`
traces a model program through one structural execution and lowers it to
a :class:`CompiledProgram` -- a static schedule of resolved op records
per rank that the batched virtual machine executes as flat cursor
loops, with no generator resume and no AST dispatch per op.

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
:func:`compiled_program_for`; per-``ppn`` op lists (with the intra-node
flag of every send resolved) are derived lazily by
:meth:`CompiledProgram.schedule`.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Callable

from .directives import Block
from .interpreter import compile_model
from .machine import ANY_SOURCE, MatchInfo, ModelDeadlock, ProcContext
from .scoreboard import ScoreboardEntry

__all__ = [
    "CompiledProgram",
    "compile_program",
    "compiled_program_for",
    "clear_compile_cache",
]


class CompiledProgram:
    """A model program lowered to static per-rank op schedules.

    ``ops[p]`` is the exact operation sequence process *p* executes:
    ``("serial", seconds, label)``, ``("send", dst, size, label,
    payload)`` and ``("recv", src, label)`` tuples in program order --
    the same records the generator interpreter yields, resolved once.
    :meth:`schedule` derives the executable per-``ppn`` form, where each
    send additionally carries its precomputed intra-node flag.

    The per-run virtual machine runs :attr:`fallback` -- the original
    generator program.  A :attr:`divergent` program (a wildcard receive
    whose winner is timing-dependent) carries no schedule, and the
    batched machine refuses it.
    """

    __slots__ = (
        "nprocs", "params", "ops", "divergent", "divergence", "fallback",
        "_schedules",
    )

    def __init__(
        self,
        nprocs: int,
        params: dict | None,
        ops: list[list[tuple]] | None,
        fallback: Callable,
        divergent: bool = False,
        divergence: tuple | None = None,
    ):
        self.nprocs = nprocs
        self.params = params
        self.ops = ops
        self.fallback = fallback
        self.divergent = divergent
        #: ``(procnum, op_index, round)`` of the first timing-dependent
        #: wildcard receive, when divergent (diagnostics).
        self.divergence = divergence
        self._schedules: dict[int, list[list[tuple]]] = {}

    @property
    def messages(self) -> int:
        """Total messages the program sends (0 for divergent programs,
        whose schedule is unknown at compile time)."""
        if self.ops is None:
            return 0
        return sum(1 for ops in self.ops for op in ops if op[0] == "send")

    @property
    def n_ops(self) -> int:
        """Total op records across all ranks (0 when divergent)."""
        if self.ops is None:
            return 0
        return sum(len(ops) for ops in self.ops)

    def schedule(self, ppn: int) -> list[list[tuple]]:
        """The executable per-rank op lists for a machine with *ppn*
        processes per node: sends become ``("send", dst, size, label,
        payload, intra)`` with the intra-node flag precomputed, so the
        hot loop never divides.  Cached per ppn."""
        if self.ops is None:
            raise ValueError("divergent program has no static schedule")
        sched = self._schedules.get(ppn)
        if sched is None:
            sched = []
            for p, ops in enumerate(self.ops):
                node = p // ppn
                out = []
                for op in ops:
                    if op[0] == "send":
                        _k, dst, size, label, payload = op
                        out.append(
                            ("send", dst, size, label, payload,
                             node == dst // ppn)
                        )
                    else:
                        out.append(op)
                sched.append(out)
            self._schedules[ppn] = sched
        return sched

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
    # Structural scoreboard: per-(src, dst) FIFO of (size, payload).
    pending: dict[tuple[int, int], list] = {}
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
            while True:
                try:
                    op = gen.send(resume[p])
                except StopIteration:
                    done[p] = True
                    break
                finally:
                    resume[p] = None
                ops[p].append(op)
                kind = op[0]
                if kind == "serial":
                    continue
                if kind == "send":
                    pending.setdefault((p, op[1]), []).append((op[2], op[4]))
                    continue
                if kind == "recv":
                    blocked[p] = op[1]
                    break
                raise ValueError(f"unknown model operation {op!r}")
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
            size, payload = queue.pop(0)
            resume[p] = MatchInfo(src, size, payload)
            blocked[p] = None
            runnable.append(p)
        if not runnable:
            orphans = [
                ScoreboardEntry(
                    msg_id=i, src=s, dst=d, size=size, depart_time=0.0,
                    payload=payload,
                )
                for i, ((s, d), queue) in enumerate(sorted(pending.items()))
                for size, payload in queue
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
    return CompiledProgram(nprocs, params, ops, program)


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
