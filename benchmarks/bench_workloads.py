"""Evaluation cost of the collectives-era workloads and trace replay.

Extends the Section 6 eval-cost study beyond point-to-point Jacobi: the
halo stencil and the AMG-style mix lower their collectives to tree/ring
point-to-point schedules, and an imported trace replays recorded
events.  For each workload this benchmark times the compiled batched
engine (the serving configuration) and reports per-run evaluation cost.
"""

import time

from conftest import write_figure
from repro._tables import format_table, format_time
from repro.apps import amg_model, halo_model
from repro.pevpm import predict, timing_from_db
from repro.trace_import import sample_trace

RUNS = 32
NPROCS = 16


def workloads():
    ring = sample_trace(nprocs=4)
    return [
        ("halo-2d", halo_model(iterations=10, nx=64), NPROCS, None),
        ("halo-3d", halo_model(iterations=5, nx=16, dims=3), NPROCS, None),
        (
            "halo-2d+allreduce",
            halo_model(iterations=10, nx=64, reduce_every=2),
            NPROCS,
            None,
        ),
        ("amg", amg_model(iterations=4, nx=32, coarse_nx=8), NPROCS, None),
        ("imported-ring4", ring.model(), ring.nprocs, None),
    ]


def test_workload_eval_cost(benchmark, fig6_db, out_dir):
    entries = workloads()

    def study():
        out = []
        for name, model, nprocs, params in entries:
            timing = timing_from_db(
                fig6_db, mode="distribution", nprocs=nprocs
            )
            t0 = time.perf_counter()
            predict(model, nprocs, timing, runs=RUNS, seed=1, params=params)
            out.append((name, nprocs, time.perf_counter() - t0))
        return out

    rows = benchmark.pedantic(study, rounds=1, iterations=1)
    table = [
        [name, str(nprocs), format_time(tc / RUNS)]
        for name, nprocs, tc in rows
    ]
    write_figure(
        out_dir,
        "workload_eval_cost",
        format_table(
            ["workload", "procs", "compiled s/run"],
            table,
            title=f"Collective workloads: evaluation cost ({RUNS} MC runs)",
        ),
    )


def test_trace_import_cost(benchmark, out_dir):
    """Parse + validate + fingerprint cost for a trace of a few
    thousand events -- import must stay interactive."""
    big = sample_trace(nprocs=16, hops=64, nbytes=2048)
    text = big.to_jsonl()

    from repro.trace_import import parse_trace

    program = benchmark(parse_trace, text)
    assert program.fingerprint == big.fingerprint
    write_figure(
        out_dir,
        "trace_import_cost",
        format_table(
            ["metric", "value"],
            [
                ["events", str(program.events)],
                ["messages", str(program.messages)],
                ["wire bytes", str(len(text))],
            ],
            title="Trace import: parse+validate+fingerprint benchmark input",
        ),
    )
