#!/usr/bin/env python
"""Append the current eval-cost measurement to BENCH_eval_cost.json.

Run from the repository root (``PYTHONPATH=src python
scripts/track_eval_cost.py``) after a change that could move prediction
throughput.  Each entry records the paper's Section 6 metric (simulated
processor-seconds per host wall second) for a fixed Jacobi workload, so
the performance trajectory is visible across PRs::

    [{"commit": "...", "dirty": false, "engine": "batched"|"adaptive",
      "compiled": true|false, "date": "...", "simulated_per_wall": ...,
      ...}, ...]

Each invocation appends one row per variant: the batched vectorised
machine on the compiled schedule -- the engine every static program
runs on -- and an adaptive row recording how many runs the sequential
stopping rule spends to reach 1% RSE on the same workload.  Rows keep
``"compiled": true`` so they stay comparable with older rows, which
also measured interpreted generators and the per-run machine.
``--only batched-compiled`` measures just the ratchet variant (what CI
appends).

A measurement taken with uncommitted changes is tagged ``dirty`` and a
warning goes to stderr; dirty rows are kept for local trend-spotting but
are **excluded** from the ratchet -- they cannot be attributed to any
commit.

``--check`` is the CI ratchet: it validates that the history parses and
that the most recent *clean* batched+compiled row for the reference
workload meets the throughput floor (``--floor``, default 200 simulated
processor-seconds per wall second -- roughly 3x the paper's own 67.5x
claim).  A regression below the floor fails CI.

Uses the cached ``benchmarks/out/cache/fig6.json`` distribution database
when present (the benchmark suite's artefact) and measures a small fresh
sweep otherwise, so the script is runnable on a clean checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.apps.jacobi import parse_jacobi  # noqa: E402
from repro.mpibench import BenchSettings, DistributionDB, MPIBench  # noqa: E402
from repro.pevpm import predict, timing_from_db  # noqa: E402
from repro.simnet import perseus  # noqa: E402

HISTORY = REPO / "BENCH_eval_cost.json"
DB_CACHE = REPO / "benchmarks" / "out" / "cache" / "fig6.json"

ITERATIONS = 100
NPROCS = 32
WORKLOAD = f"jacobi-{ITERATIONS}it-{NPROCS}p"
#: Monte Carlo runs for the batched engine: one full vector chunk, so
#: the measurement is a single-core single-batch number -- no pool
#: scheduling noise in the ratchet.
RUNS_BATCHED = 64
#: Ratchet floor (simulated processor-seconds per host wall second) for
#: the clean batched+compiled reference row.
DEFAULT_FLOOR = 200.0

#: Precision target for the adaptive row: runs-to-1%-RSE on the
#: reference workload -- how much of the fixed spend the sequential
#: stopping rule actually needs.
ADAPTIVE_RSE = 0.01

#: (name, runs, workers, target_rse) variants; ``target_rse`` is None
#: for the fixed-runs measurement.
VARIANTS = {
    "batched-compiled": ("batched", RUNS_BATCHED, 1, None),
    "adaptive": ("adaptive", None, 1, ADAPTIVE_RSE),
}


def _load_db() -> DistributionDB:
    if DB_CACHE.exists():
        return DistributionDB.load(DB_CACHE)
    bench = MPIBench(perseus(64), seed=1, settings=BenchSettings(reps=20, warmup=5))
    return bench.sweep_isend(
        [(1, 2), (2, 1), (8, 1), (16, 1)], sizes=[0, 512, 1024, 2048]
    )


def _git_state() -> tuple[str, bool]:
    """The commit actually checked out (``git rev-parse HEAD``, short)
    plus whether the working tree is dirty -- a measurement taken with
    uncommitted changes must not be attributed to the clean commit."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO, capture_output=True, text=True, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=REPO, capture_output=True, text=True, check=True,
        ).stdout.strip()
        return commit, bool(status)
    except (OSError, subprocess.CalledProcessError):
        return "unknown", False


def measure(variant: str, db: DistributionDB) -> dict:
    engine, runs, workers, target_rse = VARIANTS[variant]
    spec = perseus(64)
    params = {
        "iterations": ITERATIONS,
        "xsize": 256,
        "serial_time": spec.jacobi_serial_time,
    }
    timing = timing_from_db(db, mode="distribution")
    kwargs = (
        {"target_rse": target_rse} if target_rse is not None else {"runs": runs}
    )
    t0 = time.perf_counter()
    pred = predict(
        parse_jacobi(), NPROCS, timing, seed=1, params=params,
        workers=workers,
        **kwargs,
    )
    wall = time.perf_counter() - t0
    commit, dirty = _git_state()
    entry = {
        "commit": commit,
        "dirty": dirty,
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "workload": WORKLOAD,
        "engine": engine,
        "compiled": True,
        "runs": pred.runs,
        "wall_seconds": round(wall, 4),
        "mean_run_wall": round(pred.mean_run_wall, 4),
        "simulated_per_wall": round(pred.simulated_per_wall, 2),
        "mean_time": pred.mean_time,
    }
    if target_rse is not None:
        # The adaptive row answers "how many runs does 1% RSE cost?" --
        # spend, convergence, and the precision actually achieved.
        entry["target_rse"] = target_rse
        entry["converged"] = bool(pred.precision["converged"])
        entry["achieved_rse"] = pred.precision["achieved_rse"]
    return entry


def ratchet_row(history: list) -> dict | None:
    """The newest clean batched+compiled row for the reference workload.

    Dirty rows are skipped: a number measured on an uncommitted tree says
    nothing about the commit CI is judging.  Rows from before the engine
    and compiled tags existed (no ``engine`` key) are skipped too.
    """
    for row in reversed(history):
        if not isinstance(row, dict) or row.get("dirty"):
            continue
        if (
            row.get("workload") == WORKLOAD
            and row.get("engine") == "batched"
            and row.get("compiled") is True
        ):
            return row
    return None


def check(history: list, floor: float) -> int:
    dirty = sum(1 for row in history if isinstance(row, dict) and row.get("dirty"))
    if dirty:
        print(
            f"note: ignoring {dirty} dirty row(s) "
            "(measured on an uncommitted tree)",
            file=sys.stderr,
        )
    row = ratchet_row(history)
    if row is None:
        print(
            f"{HISTORY.name}: no clean batched+compiled row for {WORKLOAD}; "
            "run scripts/track_eval_cost.py on a clean tree first",
            file=sys.stderr,
        )
        return 1
    value = float(row.get("simulated_per_wall", 0.0))
    if value < floor:
        print(
            f"{HISTORY.name}: eval-cost ratchet FAILED: latest clean "
            f"batched+compiled row ({row.get('commit')}, {row.get('date')}) "
            f"reaches {value:.2f}x simulated/wall, floor is {floor:.2f}x",
            file=sys.stderr,
        )
        return 1
    print(
        f"{HISTORY.name}: {len(history)} entries, ok; ratchet row "
        f"{row.get('commit')} at {value:.2f}x >= {floor:.2f}x"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="validate the history file and enforce the throughput floor "
             "on the latest clean batched+compiled row (no measurement)",
    )
    parser.add_argument(
        "--floor", type=float, default=DEFAULT_FLOOR, metavar="X",
        help="minimum simulated/wall ratio the ratchet row must reach "
             f"(default {DEFAULT_FLOOR:g})",
    )
    parser.add_argument(
        "--only", choices=sorted(VARIANTS), metavar="VARIANT",
        help="measure a single variant "
             f"({', '.join(sorted(VARIANTS))}) instead of all of them",
    )
    args = parser.parse_args()

    history = []
    if HISTORY.exists():
        history = json.loads(HISTORY.read_text())
        if not isinstance(history, list):
            print(f"{HISTORY} is not a JSON list", file=sys.stderr)
            return 1
    if args.check:
        return check(history, args.floor)

    _, tree_dirty = _git_state()
    if tree_dirty:
        print(
            "warning: working tree is dirty -- rows will be tagged "
            "dirty and excluded from the ratchet",
            file=sys.stderr,
        )
    db = _load_db()
    variants = [args.only] if args.only else list(VARIANTS)
    for variant in variants:
        entry = measure(variant, db)
        history.append(entry)
        print(json.dumps(entry, indent=2))
    HISTORY.write_text(json.dumps(history, indent=2) + "\n")
    print(f"appended to {HISTORY}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
