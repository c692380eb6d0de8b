"""Bag-of-tasks (task farm): the paper's irregular example application.

Section 6: "...and a bag of tasks (or task farm) as an example of a
program with irregular communication."  A master (rank 0) owns a bag of
tasks with heterogeneous costs; workers request work, compute, and return
results until the bag drains.  Which worker gets which task depends on
runtime timing -- the *non-deterministic execution* PEVPM's decision-point
machinery exists to model: the master's wildcard receive is a decision
point whose outcome (which worker reported first) steers the rest of the
run.

:func:`taskfarm_smpi` is the executable version; :func:`taskfarm_model`
the PEVPM model, using the machine's ``(source, size) = yield ctx.recv()``
resume values to mirror the master's dynamic dispatch exactly.  Both take
the same per-task cost list so predictions and measurements describe the
same workload.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from ..pevpm.machine import ANY_SOURCE, ProcContext
from ..smpi.status import ANY_SOURCE as MPI_ANY_SOURCE

__all__ = [
    "make_tasks",
    "taskfarm_serial_time",
    "taskfarm_smpi",
    "taskfarm_model",
    "TASK_BYTES",
    "RESULT_BYTES",
    "STOP_BYTES",
]

TASK_BYTES = 2048  #: task-description message size
RESULT_BYTES = 512  #: result message size
STOP_BYTES = 8  #: termination message size (distinguishes stop from task)

TAG_READY = 1
TAG_TASK = 2
TAG_STOP = 3


def make_tasks(n_tasks: int, mean: float = 5e-3, cv: float = 0.5, seed: int = 0) -> list[float]:
    """Generate heterogeneous task costs (seconds): a gamma distribution
    with the given mean and coefficient of variation, fixed by *seed* so
    measurement and model describe the same bag."""
    if n_tasks < 1:
        raise ValueError("need at least one task")
    if not (0 < mean < math.inf and 0 < cv < math.inf):
        raise ValueError(f"mean and cv must be positive and finite, got {mean}, {cv}")
    rng = np.random.default_rng(seed)
    shape = 1.0 / cv**2
    scale = mean / shape
    return [float(t) for t in rng.gamma(shape, scale, size=n_tasks)]


def taskfarm_serial_time(tasks: list[float]) -> float:
    """One-processor time: the whole bag, no messaging."""
    return float(sum(tasks))


def taskfarm_smpi(comm, tasks: list[float]):
    """Executable task farm for the simulated MPI runtime.

    Rank 0 is the master and does no task work (as in the classic
    formulation).  Returns (tasks_done, completion_time) per rank.
    """
    if comm.size < 2:
        raise ValueError("task farm needs a master and at least one worker")
    me = comm.rank

    if me == 0:
        next_task = 0
        active = comm.size - 1
        handed = 0
        while active:
            _payload, st = yield from comm.recv(source=MPI_ANY_SOURCE)
            worker = st.source
            if next_task < len(tasks):
                yield from comm.send(
                    TASK_BYTES, dest=worker, tag=TAG_TASK, payload=tasks[next_task]
                )
                next_task += 1
                handed += 1
            else:
                yield from comm.send(STOP_BYTES, dest=worker, tag=TAG_STOP)
                active -= 1
        return handed, comm.true_time()

    done = 0
    # Announce readiness, then serve until told to stop.
    yield from comm.send(RESULT_BYTES, dest=0, tag=TAG_READY)
    while True:
        payload, st = yield from comm.recv(source=0)
        if st.tag == TAG_STOP:
            break
        yield from comm.compute(payload)
        done += 1
        yield from comm.send(RESULT_BYTES, dest=0, tag=TAG_READY)
    return done, comm.true_time()


def taskfarm_model(tasks: list[float]):
    """PEVPM model of the task farm, mirroring the dynamic dispatch.

    The master reacts to whichever worker's message *arrives* first in the
    virtual machine -- the same decision rule as the real program; the
    assigned task's cost rides on the model message as a payload, and the
    stop message is distinguished by its size, exactly as the runtime
    version distinguishes it by tag.  The program pickles (a
    module-level generator bound with :func:`functools.partial`), so
    the prediction cache and the compile cache can key it.
    """
    return partial(_taskfarm_program, tuple(tasks))


def _taskfarm_program(task_list: tuple, ctx: ProcContext):
    P = ctx.numprocs
    if P < 2:
        raise ValueError("task farm needs a master and at least one worker")
    if ctx.procnum == 0:
        next_task = 0
        active = P - 1
        while active:
            info = yield ctx.recv(ANY_SOURCE, label="worker-report")
            if next_task < len(task_list):
                yield ctx.send(
                    info.src, TASK_BYTES, label="assign",
                    payload=task_list[next_task],
                )
                next_task += 1
            else:
                yield ctx.send(info.src, STOP_BYTES, label="stop")
                active -= 1
        return

    yield ctx.send(0, RESULT_BYTES, label="ready")
    while True:
        info = yield ctx.recv(0, label="await-task")
        if info.size == STOP_BYTES:
            break
        yield ctx.serial(info.payload, label="task")
        yield ctx.send(0, RESULT_BYTES, label="result")
