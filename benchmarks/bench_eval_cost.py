"""Section 6's evaluation-cost claim.

"...the 11 hours and 15 minutes of processor time consumed by actually
running the Jacobi Iteration program on Perseus were simulated in just
under 10 minutes by our prototype ... PEVPM simulated the Jacobi program
on Perseus at about 67.5 times its actual execution speed."

Our analogue compares, for the same Jacobi workload:

* the *simulated processor time* PEVPM evaluates per host wall second
  (the paper's 67.5x metric), and
* PEVPM evaluation wall time vs. the discrete-event execution wall time
  (PEVPM must be the cheaper way to obtain the number).
"""

import time

from conftest import write_figure
from repro._tables import format_table, format_time
from repro.apps.jacobi import jacobi_smpi, parse_jacobi
from repro.pevpm import predict, timing_from_db
from repro.smpi import run_program

ITERATIONS = 100
NPROCS = 32
#: one full vector chunk -- the batched engine's natural work unit
BATCHED_RUNS = 64


def test_eval_cost(benchmark, spec, fig6_db, out_dir):
    params = {
        "iterations": ITERATIONS,
        "xsize": 256,
        "serial_time": spec.jacobi_serial_time,
    }
    timing = timing_from_db(fig6_db, mode="distribution")

    # PEVPM evaluation, timed by pytest-benchmark.
    pred = benchmark.pedantic(
        predict,
        args=(parse_jacobi(), NPROCS, timing),
        kwargs={"runs": 3, "seed": 1, "params": params},
        rounds=1,
        iterations=1,
    )

    # The execution-driven simulation of the same workload, hand-timed.
    t0 = time.perf_counter()
    measured = run_program(
        spec, jacobi_smpi, nprocs=NPROCS, ppn=1, seed=42, args=(ITERATIONS,)
    )
    exec_wall = time.perf_counter() - t0

    proc_seconds = measured.elapsed * NPROCS
    rows = [
        ["workload", f"Jacobi {ITERATIONS} iters on {NPROCS} procs"],
        ["simulated processor time", format_time(proc_seconds)],
        ["PEVPM wall time (3 MC runs)", format_time(pred.wall_time)],
        ["PEVPM speed vs execution",
         f"{proc_seconds * 3 / max(pred.wall_time, 1e-9):.1f}x processor-time/wall"
         " (paper: 67.5x)"],
        ["event-simulator wall time", format_time(exec_wall)],
        ["PEVPM wall per MC run", format_time(pred.wall_time / 3)],
        ["PEVPM mean/max single-run wall",
         f"{format_time(pred.mean_run_wall)} / {format_time(pred.max_run_wall)}"],
    ]
    write_figure(
        out_dir, "eval_cost",
        format_table(["quantity", "value"], rows, title="PEVPM evaluation cost"),
    )

    # The claims in shape: PEVPM evaluates more processor-time per wall
    # second than real-time execution would take...
    assert pred.simulated_per_wall > 1.0
    # ...and one PEVPM Monte Carlo run is cheaper than one execution-driven
    # simulation of the same program (the reason to have a model at all).
    assert pred.wall_time / 3 < exec_wall


def test_eval_cost_batched_compiled(benchmark, spec, fig6_db, out_dir):
    """The production configuration: batched engine on compiled static
    schedules with table-driven sampling -- the row the CI eval-cost
    ratchet (``scripts/track_eval_cost.py --check``) enforces a floor on.
    """
    params = {
        "iterations": ITERATIONS,
        "xsize": 256,
        "serial_time": spec.jacobi_serial_time,
    }
    timing = timing_from_db(fig6_db, mode="distribution")

    pred = benchmark.pedantic(
        predict,
        args=(parse_jacobi(), NPROCS, timing),
        kwargs={
            "runs": BATCHED_RUNS, "seed": 1, "params": params, "workers": 1,
        },
        rounds=1,
        iterations=1,
    )

    rows = [
        ["workload", f"Jacobi {ITERATIONS} iters on {NPROCS} procs"],
        ["engine", f"batched+compiled ({BATCHED_RUNS} MC runs, 1 worker)"],
        ["PEVPM wall time", format_time(pred.wall_time)],
        ["PEVPM wall per MC run", format_time(pred.wall_time / BATCHED_RUNS)],
        ["simulated/wall",
         f"{pred.simulated_per_wall:.1f}x processor-time/wall (paper: 67.5x)"],
    ]
    write_figure(
        out_dir, "eval_cost_batched_compiled",
        format_table(
            ["quantity", "value"], rows,
            title="PEVPM evaluation cost (batched + compiled)",
        ),
    )

    # Shape only -- the calibrated floor lives in the ratchet script,
    # where the measurement conditions are pinned.
    assert pred.simulated_per_wall > 1.0
