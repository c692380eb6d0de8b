"""The batched engine's throughput and determinism, measured.

Section 6's cost claim is about evaluation throughput for one evaluator:
simulated processor-seconds per host second.  Every static program runs
on the batched lockstep engine, so this bench reports its throughput
(``simulated_per_wall``) on the jacobi-100it-32p workload and checks
that its output depends on the seed alone:

* a repeat of the same call is bit-identical;
* a chunk's draws depend on its start alone, so the first chunk of a
  two-chunk call equals the one-chunk call.
"""

import time

from conftest import write_figure
from repro._tables import format_table, format_time
from repro.apps.jacobi import parse_jacobi
from repro.pevpm import predict, timing_from_db

ITERATIONS = 100
NPROCS = 32
RUNS = 64


def test_vector_predict(spec, fig6_db, out_dir):
    params = {
        "iterations": ITERATIONS,
        "xsize": 256,
        "serial_time": spec.jacobi_serial_time,
    }
    timing = timing_from_db(fig6_db, mode="distribution")
    model = parse_jacobi()
    kwargs = dict(runs=RUNS, seed=1, params=params)

    t0 = time.perf_counter()
    vector = predict(model, NPROCS, timing, **kwargs)
    vector_wall = time.perf_counter() - t0

    repeat = predict(model, NPROCS, timing, **kwargs)
    two_chunks = predict(model, NPROCS, timing, **dict(kwargs, runs=2 * RUNS))
    first_chunk = two_chunks.times[:RUNS]
    assert repeat.times == vector.times
    assert first_chunk == vector.times

    rows = [
        ["workload", f"Jacobi {ITERATIONS} iters on {NPROCS} procs, "
                     f"{RUNS} MC runs"],
        ["batched engine wall", format_time(vector_wall)],
        ["batched simulated/wall", f"{vector.simulated_per_wall:.1f}x"],
        ["bit-identical repeats", str(repeat.times == vector.times)],
        ["first of two chunks == one chunk", str(first_chunk == vector.times)],
    ]
    write_figure(
        out_dir, "vector_predict",
        format_table(["quantity", "value"], rows,
                     title="Batched vectorised prediction engine"),
    )
