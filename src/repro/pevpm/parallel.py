"""Parallel Monte Carlo prediction engine.

The paper's Section 6 cost claim ("PEVPM simulated the Jacobi program on
Perseus at about 67.5 times its actual execution speed") is a statement
about evaluation *throughput*.  Monte Carlo runs of the virtual machine
are embarrassingly parallel -- every run is an independent evaluation
with its own RNG stream -- so this module fans them out over a
:class:`concurrent.futures.ProcessPoolExecutor`, with three guarantees:

* **Reproducibility** -- per-run streams are derived from
  :class:`numpy.random.SeedSequence` children, so serial and parallel
  execution produce bit-identical ``Prediction.times`` for the same seed
  (the constraint MPI benchmarking work such as Hunold &
  Carpen-Amarie's *MPI Benchmarking Revisited* puts on any speed-up:
  faster must not mean different).
* **Graceful degradation** -- single-core hosts, one-run evaluations and
  unpicklable model callables (closures) all fall back to the serial
  path with identical results.
* **Amortised setup** -- the model/timing payload is shipped to each
  worker once (pool initializer), not once per run, and each worker
  compiles directive models once per run group.

Every group's model is compiled first (:mod:`repro.pevpm.compile`), and
the compiled program decides what a work unit is: a *static* program
runs as batched-VM chunks, while a *divergent* one (a wildcard receive
whose winner depends on sampled times) runs run by run on the per-run
VM.  :func:`_work_units` is the only place that choice is made.

The module does no file I/O: caching finished evaluations is
:mod:`repro.pevpm.predict`'s job.
"""

from __future__ import annotations

import os
import pickle
import signal
import time as _time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..obs.profile import PhaseProfiler
from .compile import CompiledProgram, compiled_program_for
from .machine import MachineResult, VirtualMachine
from .vector import BatchedVirtualMachine

__all__ = [
    "RunGroup",
    "RunOutcome",
    "POOL_REBUILD_LIMIT",
    "POOL_WEDGE_TIMEOUT",
    "VECTOR_BATCH",
    "as_seed_sequence",
    "chunk_seed",
    "install_fault_injector",
    "run_seeds",
    "group_run_seeds",
    "keyed_batch",
    "resolve_workers",
    "evaluate_groups",
]

#: maximum Monte Carlo runs evaluated per batched-VM chunk.  Fixed (not a
#: function of the worker count) so batch-mode output is bit-identical
#: under any ``workers`` setting: chunk boundaries and chunk seed streams
#: depend only on (seed, runs, vector_batch).
VECTOR_BATCH = 64

#: how many times a broken process pool is rebuilt before the remaining
#: work units finish on the serial path instead
POOL_REBUILD_LIMIT = 2

#: watchdog interval for the dispatch loop: if *no* work unit completes
#: for this many seconds the pool is considered wedged (e.g. a child
#: that deadlocked on a lock it inherited across ``fork``), its workers
#: are killed and recovery proceeds as for a crashed worker.  Individual
#: work units are chunks that normally finish in well under a second, so
#: a pool silent for this long is stuck, not slow.
POOL_WEDGE_TIMEOUT = 120.0

#: chaos hook (see :mod:`repro.service.faults`): an object whose
#: ``on_pool_dispatch(pool)`` is called after each round of submissions
_FAULT_INJECTOR = None


def install_fault_injector(injector) -> None:
    """Install (or, with ``None``, remove) the process-pool fault hook."""
    global _FAULT_INJECTOR
    _FAULT_INJECTOR = injector


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
    #: :func:`_work_units`); accepted because ``bench/`` still passes it
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
    use.  Chunks therefore stay independent of each other and of the
    worker count, and the convention needs no new state beyond the
    per-run streams of :func:`run_seeds`."""
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
    #: Plain picklable dict so it rides back from pool workers.
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


# -- worker-side state ---------------------------------------------------------
# The pool initializer unpickles the group list once per worker; compiled
# programs are cached per group index so a worker evaluating several runs
# of one group compiles its directives once.
_WORKER_GROUPS: list[RunGroup] | None = None
_WORKER_PROGRAMS: dict[int, CompiledProgram] = {}


def _init_worker(payload: bytes) -> None:
    global _WORKER_GROUPS
    # Forked workers inherit the parent's signal dispositions and -- when
    # the parent runs an asyncio loop with signal handlers -- its signal
    # wakeup fd.  Without a reset, a SIGTERM aimed at a *worker* (e.g.
    # ProcessPoolExecutor terminating the siblings of a crashed worker)
    # is written into the parent's shared wakeup pipe and read there as
    # "the server got SIGTERM", triggering a spurious drain.  Restore the
    # defaults so worker signals stay the worker's own.
    try:
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
    except (ValueError, OSError):
        pass  # non-main thread or restricted host: nothing to undo
    _WORKER_GROUPS = pickle.loads(payload)
    _WORKER_PROGRAMS.clear()


def _worker_program(group_idx: int) -> CompiledProgram:
    program = _WORKER_PROGRAMS.get(group_idx)
    if program is None:
        group = _WORKER_GROUPS[group_idx]
        program = _WORKER_PROGRAMS[group_idx] = _program_for(group)
    return program


def _run_task(group_idx: int, run_idx: int, child, trace: bool):
    group = _WORKER_GROUPS[group_idx]
    outcome = _execute_run(group, _worker_program(group_idx), child, trace)
    return group_idx, run_idx, outcome


def _run_batch_task(group_idx: int, start: int, size: int, trace: bool):
    group = _WORKER_GROUPS[group_idx]
    outcomes = _execute_batch(group, _worker_program(group_idx), start, size, trace)
    return group_idx, start, outcomes


# -- the engine ---------------------------------------------------------------
def resolve_workers(workers: int | None, tasks: int) -> int:
    """Number of pool processes to use for *tasks* independent runs.

    ``None`` means one per host core, never more than there are tasks;
    explicit values are clamped the same way.  A result of 1 selects the
    serial path.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError("workers must be >= 1 (or None for one per core)")
    return max(1, min(workers, tasks))


def _work_units(
    groups: list[RunGroup], programs: list[CompiledProgram]
) -> list[tuple]:
    """Every dispatchable work unit, as a re-submittable descriptor --
    and the one place an engine is chosen.

    A static program runs as ``("batch", gi, start, size, trace)``
    chunks on the batched VM, at boundaries fixed by (runs,
    vector_batch) alone.  A divergent program, whose structure depends
    on sampled arrival times and so cannot advance as one congruent
    batch, runs ``("run", gi, run, child, trace)`` units of one MC run on
    the per-run VM.  The unit holding a group's last run carries its
    ``trace_last`` flag.
    Descriptors carry everything needed to (re-)dispatch, so recovery
    after a pool crash re-runs exactly the lost units -- each with the
    same seed stream it would have used the first time.
    """
    units: list[tuple] = []
    for gi, (group, program) in enumerate(zip(groups, programs)):
        last = group.runs - 1
        if not program.divergent:
            batch = max(1, group.vector_batch)
            for start in range(0, group.runs, batch):
                size = min(batch, group.runs - start)
                trace = group.trace_last and start + size > last
                units.append(("batch", gi, start, size, trace))
            continue
        for run, child in enumerate(group_run_seeds(group)):
            units.append(("run", gi, run, child, group.trace_last and run == last))
    return units


def keyed_batch(runs: int | None, vector_batch: int) -> int:
    """The chunk size as cache keys record it: the size of the first
    chunk :func:`_work_units` cuts, since up to one chunk of runs draws
    alike whatever the chunk size (a chunk's stream depends on its
    start alone).  ``runs=None``, an adaptive total the stopping rule
    has yet to decide, keys the chunk size itself.  A divergent program
    is keyed the same way although its runs are not chunked: requests
    are keyed before their program is compiled."""
    batch = max(1, vector_batch)
    return batch if runs is None else min(batch, runs)


def _submit_unit(pool: ProcessPoolExecutor, unit: tuple):
    if unit[0] == "batch":
        return pool.submit(_run_batch_task, *unit[1:])
    return pool.submit(_run_task, *unit[1:])


def _store_result(results, payload_out) -> None:
    if len(payload_out) == 3 and isinstance(payload_out[2], list):
        gi, start, outcomes = payload_out
        results[gi][start:start + len(outcomes)] = outcomes
    else:
        gi, run, outcome = payload_out
        results[gi][run] = outcome


def _unit_done(results, unit: tuple) -> bool:
    """Whether *unit*'s slot(s) in the result grid are already filled --
    the completion record recovery consults after a pool crash.  A batch
    unit fills its whole slice atomically, so its first slot suffices."""
    return results[unit[1]][unit[2]] is not None


def _evaluate_units_serial(groups, programs, results, units: list[tuple]) -> None:
    """Evaluate *units* in this process: the path for one worker, and
    the terminal fallback when the pool keeps breaking; numbers are
    identical by construction."""
    for unit in units:
        gi = unit[1]
        if unit[0] == "batch":
            _, _, start, size, trace = unit
            outcomes = _execute_batch(groups[gi], programs[gi], start, size, trace)
            results[gi][start:start + len(outcomes)] = outcomes
        else:
            _, _, run, child, trace = unit
            results[gi][run] = _execute_run(groups[gi], programs[gi], child, trace)


def evaluate_groups(
    groups: list[RunGroup],
    workers: int | None = None,
    on_rebuild: Callable[[int], None] | None = None,
) -> list[list[RunOutcome]]:
    """Evaluate every Monte Carlo run of every group, possibly in parallel.

    Returns one ``RunOutcome`` list per group, run-ordered.  A work unit
    is a fixed-size chunk of runs on the batched VM for a static program,
    and a single MC run on the per-run VM for a divergent one (see
    :func:`_work_units`).  Parallelism applies across
    work units *and* across groups (the ``proc_counts`` / timing-mode
    axes of the higher-level helpers).
    Results are bit-identical for any ``workers`` setting: scalar run
    ``i`` always uses child stream ``i`` of the group's seed, and batch
    chunks are seeded by :func:`chunk_seed` at worker-independent
    boundaries.

    **Crash recovery**: a worker process dying mid-evaluation (OOM kill,
    SIGKILL, a crashed interpreter) surfaces as ``BrokenProcessPool``.
    The executor is rebuilt and only the *unfinished* work units are
    re-dispatched -- their seed streams depend on (seed, run index)
    alone, so the recovered evaluation is bit-identical to an undisturbed
    one.  A pool that stops making progress entirely -- no unit finishes
    for :data:`POOL_WEDGE_TIMEOUT` seconds, e.g. a child deadlocked on a
    lock it inherited across ``fork`` -- is killed and recovered the
    same way.  After :data:`POOL_REBUILD_LIMIT` rebuilds the remaining
    units finish serially instead, so the evaluation always terminates.
    *on_rebuild*, when given, is called with the rebuild ordinal each
    time the pool is reconstructed (metrics hook for the serving layer).
    """
    if sum(g.runs for g in groups) == 0:
        return [[] for _ in groups]
    programs = [_program_for(g) for g in groups]  # validates models, too
    units = _work_units(groups, programs)
    results: list[list[RunOutcome | None]] = [[None] * g.runs for g in groups]
    nworkers = resolve_workers(workers, len(units))
    payload = None
    if nworkers > 1:
        try:
            payload = pickle.dumps(groups, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            # Unpicklable model/timing (e.g. a closure program): the pool
            # cannot ship it, but the serial path produces the same numbers.
            pass
    if payload is None:
        _evaluate_units_serial(groups, programs, results, units)
        return results  # type: ignore[return-value]

    remaining = units
    rebuilds = 0
    while remaining:
        pool = None
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(nworkers, len(remaining)),
                initializer=_init_worker,
                initargs=(payload,),
            )
            pending = {_submit_unit(pool, unit): unit for unit in remaining}
            injector = _FAULT_INJECTOR
            if injector is not None:
                injector.on_pool_dispatch(pool)
            while pending:
                done, _ = wait(
                    pending,
                    timeout=POOL_WEDGE_TIMEOUT,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    # Nothing finished for a whole watchdog interval:
                    # the pool is wedged, not slow (a forked child can
                    # deadlock on a lock another thread held at fork
                    # time, and such a child never crashes -- it just
                    # sits there).  Kill the workers outright so the
                    # shutdown below cannot block, then recover exactly
                    # as for a crashed worker.
                    _kill_pool_processes(pool)
                    raise BrokenProcessPool(
                        f"no work unit completed within "
                        f"{POOL_WEDGE_TIMEOUT:g}s; pool presumed wedged"
                    )
                for fut in done:
                    unit = pending.pop(fut)
                    _store_result(results, fut.result())
            remaining = []
        except BrokenProcessPool:
            # A worker died: everything already stored stays; rebuild
            # and re-dispatch only the units without a result.
            remaining = [u for u in remaining if not _unit_done(results, u)]
            rebuilds += 1
            if on_rebuild is not None:
                on_rebuild(rebuilds)
            if rebuilds > POOL_REBUILD_LIMIT:
                _evaluate_units_serial(groups, programs, results, remaining)
                remaining = []
        except (OSError, RuntimeError):
            # Pool creation can fail on restricted hosts (no /dev/shm,
            # fork limits); the evaluation is still well-defined serially.
            remaining = [u for u in remaining if not _unit_done(results, u)]
            _evaluate_units_serial(groups, programs, results, remaining)
            remaining = []
        finally:
            if pool is not None:
                # On the wedge path every worker is already dead, so the
                # join inside shutdown cannot block.
                pool.shutdown(wait=True, cancel_futures=True)
    return results  # type: ignore[return-value]


def _kill_pool_processes(pool: ProcessPoolExecutor) -> None:
    """SIGKILL every worker of *pool* (wedged-pool recovery)."""
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except (OSError, ProcessLookupError):
            pass
