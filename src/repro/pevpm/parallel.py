"""Monte Carlo evaluation of run groups, serially in the caller's process.

The paper's Section 6 cost claim ("PEVPM simulated the Jacobi program on
Perseus at about 67.5 times its actual execution speed") is a statement
about evaluation *throughput* for one evaluator.  Every Monte Carlo run
is an independent evaluation with its own RNG stream, derived from
:class:`numpy.random.SeedSequence` children at absolute run indices, so
a run's numbers depend on ``(seed, index)`` alone and a batched chunk's
on ``(seed, start)`` alone -- never on how the runs were scheduled
(the constraint MPI benchmarking work such as Hunold & Carpen-Amarie's
*MPI Benchmarking Revisited* puts on any speed-up: faster must not mean
different).  More cores serve more requests through ``repro serve
--shards N``; one evaluation always runs in the process that asks for
it.

Every group's model is compiled first (:mod:`repro.pevpm.compile`), and
the compiled program decides how its runs are evaluated: a *static*
program runs as batched-VM chunks, while a *divergent* one (a wildcard
receive whose winner depends on sampled times) runs run by run on the
per-run VM.  :func:`evaluate_groups` is the only place that choice is
made.

The module does no file I/O: caching finished evaluations is
:mod:`repro.pevpm.predict`'s job.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

import numpy as np

from ..obs.profile import PhaseProfiler
from .compile import CompiledProgram, compiled_program_for
from .machine import MachineResult, VirtualMachine
from .vector import BatchedVirtualMachine

__all__ = [
    "RunGroup",
    "RunOutcome",
    "VECTOR_BATCH",
    "as_seed_sequence",
    "chunk_seed",
    "run_seeds",
    "group_run_seeds",
    "keyed_batch",
    "evaluate_groups",
]

#: maximum Monte Carlo runs evaluated per batched-VM chunk.  Chunk
#: boundaries and chunk seed streams depend only on (seed, runs,
#: vector_batch), so batch-mode output is fixed by those alone.
VECTOR_BATCH = 64


# -- seeding ----------------------------------------------------------------------
def as_seed_sequence(seed) -> np.random.SeedSequence:
    """Normalise an integer seed (or a SeedSequence) to a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def run_seeds(root: np.random.SeedSequence, runs: int) -> list[np.random.SeedSequence]:
    """*runs* independent child streams of *root*, idempotently.

    Equivalent to ``root.spawn(runs)`` but without mutating the parent's
    spawn counter, so the same root yields the same children on every
    call -- repeated ``predict`` invocations with one seed stay
    deterministic, and the prediction cache can key on the root alone.
    """
    return [
        np.random.SeedSequence(entropy=root.entropy, spawn_key=root.spawn_key + (i,))
        for i in range(runs)
    ]


# -- run groups -----------------------------------------------------------------
@dataclass
class RunGroup:
    """One (model, machine size, timing source) evaluation of *runs* MC runs."""

    model: object  #: directive Block or program callable(ctx) -> generator
    nprocs: int
    timing: object  #: TimingModel
    seed: np.random.SeedSequence
    runs: int
    params: dict | None = None
    trace_last: bool = False
    nic_serialisation: str = "tx"
    ppn: int = 1
    #: selects nothing -- the program's shape picks the engine (see
    #: :func:`evaluate_groups`); accepted because ``bench/`` still passes it
    vector_runs: bool = False
    #: runs per batched-VM chunk of a static program
    vector_batch: int = VECTOR_BATCH
    #: collect per-phase host-time attribution (sweep/match/sample) for
    #: every run -- wall-clock measurement only; the seeded RNG streams
    #: are untouched, so profiled and unprofiled runs are bit-identical.
    profile: bool = False
    #: absolute index of this group's first run in its seed stream:
    #: scalar run *i* draws child stream ``run_offset + i`` and batch
    #: chunks are seeded at absolute starts, so a group covering runs
    #: ``[offset, offset+runs)`` is bit-identical to the same slice of a
    #: larger one-shot group (provided chunk boundaries line up) -- the
    #: property adaptive (precision-targeted) evaluation extends runs
    #: through.  0, the default, is the ordinary whole-evaluation group.
    run_offset: int = 0


def chunk_seed(root: np.random.SeedSequence, start: int) -> np.random.SeedSequence:
    """Batch-mode seed convention: the chunk covering runs ``[start,
    start+size)`` draws from the child stream scalar run *start* would
    use.  Chunks therefore stay independent of each other, and the
    convention needs no new state beyond the per-run streams of
    :func:`run_seeds`."""
    return np.random.SeedSequence(
        entropy=root.entropy, spawn_key=root.spawn_key + (start,)
    )


def group_run_seeds(group: "RunGroup") -> list[np.random.SeedSequence]:
    """Per-run child streams of one group at **absolute** run indices.

    Scalar run *i* of a group draws child ``run_offset + i`` -- the same
    stream run ``run_offset + i`` of a zero-offset group would draw, so
    evaluating runs in offset slices (the adaptive extension scheme)
    reproduces a one-shot evaluation bit for bit."""
    return [chunk_seed(group.seed, group.run_offset + i) for i in range(group.runs)]


@dataclass
class RunOutcome:
    """One Monte Carlo run's result plus its host cost."""

    elapsed: float  #: virtual completion time (the prediction)
    result: MachineResult = field(repr=False)
    wall: float = 0.0  #: host seconds this run took to evaluate
    #: per-phase host seconds (``{"sweep": ..., "match": ..., "sample":
    #: ...}``) when the group asked for profiling; ``None`` otherwise.
    phases: dict | None = None


def _program_for(group: RunGroup) -> CompiledProgram:
    """A group's model compiled once: a static schedule, or a divergent
    program that carries its generator form (see
    :mod:`repro.pevpm.compile`)."""
    return compiled_program_for(group.model, group.nprocs, group.params)


def _execute_run(
    group: RunGroup,
    program: CompiledProgram,
    child: np.random.SeedSequence,
    trace: bool,
) -> RunOutcome:
    t0 = _time.perf_counter()
    profiler = PhaseProfiler() if group.profile else None
    vm = VirtualMachine(
        group.nprocs,
        group.timing,
        seed=child,
        params=group.params,
        trace=trace,
        nic_serialisation=group.nic_serialisation,
        ppn=group.ppn,
        profiler=profiler,
    )
    result = vm.run(program)
    return RunOutcome(
        elapsed=result.elapsed,
        result=result,
        wall=_time.perf_counter() - t0,
        phases=None if profiler is None else profiler.snapshot(),
    )


def _execute_batch(
    group: RunGroup,
    program: CompiledProgram,
    start: int,
    size: int,
    trace: bool,
) -> list[RunOutcome]:
    """Evaluate runs ``[start, start+size)`` through the batched VM.

    Host wall time is shared by all runs of a chunk, so each outcome is
    attributed an equal share.
    """
    t0 = _time.perf_counter()
    profiler = PhaseProfiler() if group.profile else None
    vm = BatchedVirtualMachine(
        group.nprocs,
        group.timing,
        seed=chunk_seed(group.seed, group.run_offset + start),
        runs=size,
        nic_serialisation=group.nic_serialisation,
        ppn=group.ppn,
        profiler=profiler,
        trace=trace,
    )
    results = vm.run(program)
    share = (_time.perf_counter() - t0) / size
    # Phase time, like wall time, is a property of the whole chunk; each
    # run is attributed an equal share.
    phase_share = None if profiler is None else profiler.scaled(1.0 / size)
    return [
        RunOutcome(
            elapsed=res.elapsed,
            result=res,
            wall=share,
            phases=None if phase_share is None else dict(phase_share),
        )
        for res in results
    ]


# -- the engine ---------------------------------------------------------------
def keyed_batch(runs: int | None, vector_batch: int) -> int:
    """The chunk size as cache keys record it: the size of the first
    chunk :func:`evaluate_groups` cuts, since up to one chunk of runs
    draws alike whatever the chunk size (a chunk's stream depends on its
    start alone).  ``runs=None``, an adaptive total the stopping rule
    has yet to decide, keys the chunk size itself.  A divergent program
    is keyed the same way although its runs are not chunked: requests
    are keyed before their program is compiled."""
    batch = max(1, vector_batch)
    return batch if runs is None else min(batch, runs)


def evaluate_groups(
    groups: list[RunGroup], workers: int = 1
) -> list[list[RunOutcome]]:
    """Evaluate every Monte Carlo run of every group in this process.

    Returns one ``RunOutcome`` list per group, run-ordered.  Every
    group's model is compiled before any run starts, which validates
    them all.  A static program then runs in chunks of up to
    ``vector_batch`` runs on the batched VM, at boundaries fixed by
    (runs, vector_batch) alone, each chunk seeded by :func:`chunk_seed`
    at its absolute start.  A divergent program, whose structure depends
    on sampled arrival times and so cannot advance as one congruent
    batch, runs one run at a time on the per-run VM, run *i* on child
    stream ``run_offset + i``.  The chunk or run holding a group's last
    run carries its ``trace_last`` flag.

    *workers* accepts only 1, the value ``bench/`` passes: evaluation is
    serial, and more cores serve through ``repro serve --shards N``.
    """
    if workers != 1:
        raise ValueError(
            f"workers={workers!r}: evaluation is serial and accepts only "
            "workers=1; use more cores with 'repro serve --shards N'"
        )
    programs = [_program_for(g) for g in groups]
    results: list[list[RunOutcome]] = []
    for group, program in zip(groups, programs):
        last = group.runs - 1
        outcomes: list[RunOutcome] = []
        if program.divergent:
            for run, child in enumerate(group_run_seeds(group)):
                trace = group.trace_last and run == last
                outcomes.append(_execute_run(group, program, child, trace))
        else:
            batch = max(1, group.vector_batch)
            for start in range(0, group.runs, batch):
                size = min(batch, group.runs - start)
                trace = group.trace_last and start + size > last
                outcomes.extend(_execute_batch(group, program, start, size, trace))
        results.append(outcomes)
    return results
