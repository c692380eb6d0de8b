"""Interpretation of PEVPM directive IR as model programs.

This is the automated version of the paper's hand step: "The PEVPM
directives listed in Figure 5 were translated into a C language driver
program ... note, however, that this process could be automated by using
appropriate compiler techniques."  :func:`compile_model` turns a directive
tree into the program-factory callable the
:class:`~repro.pevpm.machine.VirtualMachine` executes, with every
directive's symbolic expressions evaluated per process against
``procnum`` / ``numprocs`` / ``iteration`` and user parameters.
"""

from __future__ import annotations

from typing import Callable, Generator

from .directives import (
    Block,
    Collective,
    Directive,
    Loop,
    Message,
    ModelError,
    Runon,
    Serial,
)
from .expr import evaluate
from .machine import ANY_SOURCE, ProcContext

__all__ = ["compile_model", "lower_collective", "model_messages"]


def lower_collective(
    op: str, rank: int, nprocs: int, size: int, root: int = 0
) -> list[tuple]:
    """Rank *rank*'s point-to-point schedule for one collective.

    Returns ``("send", peer, size)`` / ``("recv", peer)`` records in
    execution order, mirroring :mod:`repro.smpi.collectives` operation
    for operation: the dissemination ``barrier`` (0-byte exchanges at
    distance 1, 2, 4, ...), binomial tree for ``bcast``/``reduce`` (the
    same lowest-set-bit parent and mask walk), ``allreduce`` as
    reduce-to-0 followed by bcast-from-0, linear ``gather`` (the root
    posts P-1 wildcard receives) and ``scatter`` (the root sends in rank
    order), the P-1-step ring ``allgather`` and the P-1 shifted pairwise
    exchanges of ``alltoall``.  Every exchange sends before it receives:
    the machine's sends are non-blocking, so the straight-line order
    cannot deadlock.  Exposed so tests can compare the lowered schedules
    against the ``smpi`` generators directly.
    """
    if nprocs < 1:
        raise ModelError("nprocs must be >= 1")
    if not 0 <= rank < nprocs:
        raise ModelError(f"rank {rank} outside 0..{nprocs - 1}")
    if size < 0:
        raise ModelError("collective size must be non-negative")
    if not 0 <= root < nprocs:
        raise ModelError(f"collective root {root} outside 0..{nprocs - 1}")
    P = nprocs
    out: list[tuple] = []
    if P == 1:
        return out
    if op == "barrier":
        mask = 1
        while mask < P:
            out.append(("send", (rank + mask) % P, 0))
            out.append(("recv", (rank - mask) % P))
            mask <<= 1
        return out
    if op == "bcast":
        relative = (rank - root) % P
        if relative != 0:
            lsb = relative & (-relative)
            out.append(("recv", (rank - lsb) % P))
            mask = lsb >> 1
        else:
            mask = 1
            while mask < P:
                mask <<= 1
            mask >>= 1
        while mask >= 1:
            if relative + mask < P:
                out.append(("send", (rank + mask) % P, size))
            mask >>= 1
        return out
    if op == "reduce":
        relative = (rank - root) % P
        mask = 1
        while mask < P:
            if relative & mask:
                out.append(("send", (rank - mask) % P, size))
                return out
            if relative + mask < P:
                out.append(("recv", (rank + mask) % P))
            mask <<= 1
        return out
    if op == "allreduce":
        out.extend(lower_collective("reduce", rank, nprocs, size, root=0))
        out.extend(lower_collective("bcast", rank, nprocs, size, root=0))
        return out
    if op == "gather":
        if rank != root:
            return [("send", root, size)]
        return [("recv", ANY_SOURCE)] * (P - 1)
    if op == "scatter":
        if rank != root:
            return [("recv", root)]
        return [("send", dest, size) for dest in range(P) if dest != root]
    if op == "allgather":
        right = (rank + 1) % P
        left = (rank - 1) % P
        for _ in range(P - 1):
            out.append(("send", right, size))
            out.append(("recv", left))
        return out
    if op == "alltoall":
        for step in range(1, P):
            out.append(("send", (rank + step) % P, size))
            out.append(("recv", (rank - step) % P))
        return out
    raise ModelError(f"unknown collective op {op!r}")


def _require_int(value, what: str, line: int) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelError(f"line {line}: {what} must be numeric, got {value!r}")
    as_int = int(round(value))
    return as_int


def _execute(node: Directive, ctx: ProcContext, names: dict) -> Generator:
    """Yield machine operations for *node* as executed by process
    ``names['procnum']``."""
    if isinstance(node, Block):
        for child in node.children:
            yield from _execute(child, ctx, names)
    elif isinstance(node, Serial):
        seconds = evaluate(node._time_ast, names)
        if seconds < 0:
            raise ModelError(f"line {node.line}: negative Serial time {seconds}")
        yield ctx.serial(float(seconds), label=f"serial@{node.line}")
    elif isinstance(node, Loop):
        n = _require_int(evaluate(node._iter_ast, names), "Loop iterations", node.line)
        if n < 0:
            raise ModelError(f"line {node.line}: negative iteration count {n}")
        outer = names.get("iteration")
        for i in range(n):
            names["iteration"] = i
            yield from _execute(node.body, ctx, names)
        if outer is None:
            names.pop("iteration", None)
        else:
            names["iteration"] = outer
    elif isinstance(node, Runon):
        for cond_ast, block in zip(node._cond_asts, node.blocks):
            if evaluate(cond_ast, names):
                yield from _execute(block, ctx, names)
                break
    elif isinstance(node, Message):
        src = _require_int(evaluate(node._src_ast, names), "Message from", node.line)
        dst = _require_int(evaluate(node._dst_ast, names), "Message to", node.line)
        size = _require_int(evaluate(node._size_ast, names), "Message size", node.line)
        me = ctx.procnum
        if node.kind.is_send:
            if src != me:
                raise ModelError(
                    f"line {node.line}: send directive reached by process "
                    f"{me} but from = {src}; guard it with Runon"
                )
            yield ctx.send(dst, size, label=f"{node.kind.value}@{node.line}")
        else:
            if dst != me:
                raise ModelError(
                    f"line {node.line}: recv directive reached by process "
                    f"{me} but to = {dst}; guard it with Runon"
                )
            yield ctx.recv(src, label=f"{node.kind.value}@{node.line}")
    elif isinstance(node, Collective):
        size = _require_int(
            evaluate(node._size_ast, names), "Collective size", node.line
        )
        root = _require_int(
            evaluate(node._root_ast, names), "Collective root", node.line
        )
        if size < 0:
            raise ModelError(f"line {node.line}: negative collective size {size}")
        if node.op in ("bcast", "reduce") and not 0 <= root < ctx.numprocs:
            raise ModelError(
                f"line {node.line}: collective root {root} outside "
                f"0..{ctx.numprocs - 1}"
            )
        label = f"coll_{node.op}@{node.line}"
        for prim in lower_collective(
            node.op, ctx.procnum, ctx.numprocs, size, root
        ):
            if prim[0] == "send":
                yield ctx.send(prim[1], prim[2], label=label)
            else:
                yield ctx.recv(prim[1], label=label)
    else:
        raise ModelError(f"unknown directive node {type(node).__name__}")


def compile_model(
    model: Block, params: dict | None = None
) -> Callable[[ProcContext], Generator]:
    """Compile a directive tree into a VirtualMachine program factory.

    *params* supplies values for free variables in directive expressions
    (the paper's Jacobi model needs ``xsize``; ``sizeof(...)`` is built
    in).  ``procnum``, ``numprocs`` and the innermost ``iteration`` are
    bound automatically.
    """
    params = dict(params or {})

    def program(ctx: ProcContext) -> Generator:
        names = dict(params)
        names["procnum"] = ctx.procnum
        names["numprocs"] = ctx.numprocs
        return _execute(model, ctx, names)

    return program


def model_messages(model: Block, nprocs: int, params: dict | None = None) -> int:
    """Statically count the messages the model will send in total --
    useful for sanity checks and cost estimates before a long run."""
    program = compile_model(model, params)
    count = 0
    for p in range(nprocs):
        ctx = ProcContext(p, nprocs, params)
        for op in program(ctx):
            if op[0] == "send":
                count += 1
    return count
