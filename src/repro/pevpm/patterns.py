"""Collective communication patterns for PEVPM models.

The PEVPM directive language models point-to-point messages; programs
that use MPI collectives are modelled by their constituent messages
(exactly how the runtime implements them).  This module provides the
patterns as reusable generators.  Each emits the schedule of
:func:`~repro.pevpm.interpreter.lower_collective` -- the lowering the
``coll_*`` directives use, which mirrors :mod:`repro.smpi.collectives`
message for message: same algorithms, same rounds, same sizes -- so a
model of a collective-using program stays structurally faithful to its
execution:

    def program(ctx):
        yield from patterns.bcast(ctx, size=1024, root=0)
        yield ctx.serial(work)
        yield from patterns.allreduce(ctx, size=8)

A root outside the communicator raises
:class:`~repro.pevpm.directives.ModelError`.  The lowering is checked
against the ``smpi`` generators in
``tests/smpi/test_collective_lowering.py``, and the patterns against the
measured runtime collectives in ``tests/pevpm/test_patterns.py``.
"""

from __future__ import annotations

from .interpreter import lower_collective
from .machine import ProcContext

__all__ = [
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "gather",
    "scatter",
    "allgather",
    "alltoall",
]


def _emit(ctx: ProcContext, op: str, size: int, root: int = 0):
    """This rank's lowered schedule of collective *op*, labelled *op*."""
    for prim in lower_collective(op, ctx.procnum, ctx.numprocs, size, root):
        if prim[0] == "send":
            yield ctx.send(prim[1], prim[2], label=op)
        else:
            yield ctx.recv(prim[1], label=op)


def barrier(ctx: ProcContext):
    """Dissemination barrier: ceil(log2 P) rounds of 0-byte exchanges."""
    yield from _emit(ctx, "barrier", 0)


def bcast(ctx: ProcContext, size: int, root: int = 0):
    """Binomial-tree broadcast from *root*."""
    yield from _emit(ctx, "bcast", size, root)


def reduce(ctx: ProcContext, size: int, root: int = 0):
    """Binomial-tree reduction to *root*."""
    yield from _emit(ctx, "reduce", size, root)


def allreduce(ctx: ProcContext, size: int):
    """Reduce to rank 0, then broadcast from it."""
    yield from _emit(ctx, "allreduce", size)


def gather(ctx: ProcContext, size: int, root: int = 0):
    """Linear gather to *root* (its receives take any source)."""
    yield from _emit(ctx, "gather", size, root)


def scatter(ctx: ProcContext, size: int, root: int = 0):
    """Linear scatter from *root*."""
    yield from _emit(ctx, "scatter", size, root)


def allgather(ctx: ProcContext, size: int):
    """Ring allgather: P-1 forwarding steps."""
    yield from _emit(ctx, "allgather", size)


def alltoall(ctx: ProcContext, size: int):
    """Shifted pairwise exchange: P-1 rounds."""
    yield from _emit(ctx, "alltoall", size)
