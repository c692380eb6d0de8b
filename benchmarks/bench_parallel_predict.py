"""The parallel prediction engine's two guarantees, measured.

Section 6's cost claim is about evaluation throughput; the engine in
:mod:`repro.pevpm.parallel` raises that throughput by fanning Monte
Carlo runs over host cores.  This bench verifies the contract on the
Jacobi workload:

* ``workers=N`` produces **bit-identical** ``Prediction.times`` to
  ``workers=1`` for the same seed (per-run ``SeedSequence`` streams);
* on a multi-core host the wall time drops (>= 2x with 4 workers --
  asserted only when the host has >= 4 cores, since a pool on a single
  core can only add overhead).  The pool's work unit for a static
  program is a whole batched-VM chunk, so the workload runs one chunk
  per worker;
* a second evaluation with identical arguments is served from the
  on-disk prediction cache without re-simulation;
* the batched lockstep engine, which every static program runs on,
  reports its single-worker throughput (``simulated_per_wall``) on the
  jacobi-100it-32p workload and stays bit-identical across repeats and
  worker counts.
"""

import os
import time

from conftest import CACHE_DIR, write_figure
from repro._tables import format_table, format_time
from repro.apps.jacobi import parse_jacobi
from repro.pevpm import VECTOR_BATCH, predict, timing_from_db

ITERATIONS = 100
NPROCS = 16
WORKERS = 4
RUNS = WORKERS * VECTOR_BATCH  # one batched-VM chunk per worker

VECTOR_NPROCS = 32
VECTOR_RUNS = 64


def test_parallel_predict(spec, fig6_db, out_dir):
    params = {
        "iterations": ITERATIONS,
        "xsize": 256,
        "serial_time": spec.jacobi_serial_time,
    }
    timing = timing_from_db(fig6_db, mode="distribution")
    model = parse_jacobi()
    kwargs = dict(runs=RUNS, seed=1, params=params)

    # Warm this process's compile cache and sampler tables, so neither
    # timed call pays for them here.  Pool workers rebuild both from the
    # pickled payload on every call: that is part of what the pool costs.
    predict(model, NPROCS, timing, workers=1, **kwargs)
    t0 = time.perf_counter()
    serial = predict(model, NPROCS, timing, workers=1, **kwargs)
    serial_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = predict(model, NPROCS, timing, workers=WORKERS, **kwargs)
    parallel_wall = time.perf_counter() - t0

    # Reproducibility: the speed-up must not change the numbers.
    assert parallel.times == serial.times

    # Cache: the same arguments re-evaluate for free.
    cache_dir = CACHE_DIR / "predictions"
    first = predict(model, NPROCS, timing, cache_dir=cache_dir, **kwargs)
    second = predict(model, NPROCS, timing, cache_dir=cache_dir, **kwargs)
    assert second.cached
    assert second.times == first.times

    cores = os.cpu_count() or 1
    speedup = serial_wall / max(parallel_wall, 1e-9)
    rows = [
        ["workload", f"Jacobi {ITERATIONS} iters on {NPROCS} procs, {RUNS} MC runs "
                     f"({RUNS // VECTOR_BATCH} chunks)"],
        ["host cores", str(cores)],
        ["workers=1 wall", format_time(serial_wall)],
        [f"workers={WORKERS} wall", format_time(parallel_wall)],
        ["parallel speedup", f"{speedup:.2f}x"],
        ["bit-identical times", str(parallel.times == serial.times)],
        ["slowest single run", format_time(serial.max_run_wall)],
        ["cache hit on 2nd call", str(second.cached)],
    ]
    write_figure(
        out_dir, "parallel_predict",
        format_table(["quantity", "value"], rows,
                     title="Parallel prediction engine"),
    )

    if cores >= 4:
        assert speedup >= 2.0, f"only {speedup:.2f}x with {WORKERS} workers"
    elif cores >= 2:
        assert speedup >= 1.2, f"only {speedup:.2f}x with {WORKERS} workers"


def test_vector_predict(spec, fig6_db, out_dir):
    """The batched engine's throughput and determinism on jacobi-100it-32p."""
    params = {
        "iterations": ITERATIONS,
        "xsize": 256,
        "serial_time": spec.jacobi_serial_time,
    }
    timing = timing_from_db(fig6_db, mode="distribution")
    model = parse_jacobi()
    kwargs = dict(runs=VECTOR_RUNS, seed=1, params=params)

    t0 = time.perf_counter()
    vector = predict(model, VECTOR_NPROCS, timing, workers=1, **kwargs)
    vector_wall = time.perf_counter() - t0

    # Determinism: repeats and worker counts do not change batch output.
    # A chunk's draws depend on its start alone, so the first chunk of a
    # pooled call over two chunks must equal the one-chunk call.
    repeat = predict(model, VECTOR_NPROCS, timing, workers=1, **kwargs)
    pooled = predict(model, VECTOR_NPROCS, timing, workers=WORKERS,
                     **dict(kwargs, runs=2 * VECTOR_RUNS)).times[:VECTOR_RUNS]
    assert repeat.times == vector.times
    assert pooled == vector.times

    rows = [
        ["workload", f"Jacobi {ITERATIONS} iters on {VECTOR_NPROCS} procs, "
                     f"{VECTOR_RUNS} MC runs"],
        ["batched engine wall", format_time(vector_wall)],
        ["batched simulated/wall", f"{vector.simulated_per_wall:.1f}x"],
        ["bit-identical repeats", str(repeat.times == vector.times)],
        ["bit-identical across workers", str(pooled == vector.times)],
    ]
    write_figure(
        out_dir, "vector_predict",
        format_table(["quantity", "value"], rows,
                     title="Batched vectorised prediction engine"),
    )
