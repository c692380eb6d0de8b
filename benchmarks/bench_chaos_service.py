"""Chaos benchmark: the serving stack under injected faults.

Fault tolerance is only worth its complexity if the recovery paths hold
up under sustained load *and* keep the reproducibility contract.  This
benchmark runs the closed-loop load generator against a chaos-mode
server three times -- healthy baseline, faulted without client retries,
faulted with retries -- while a seeded :class:`FaultPlan` worth of
worker kills, cache corruptions and evaluator stalls is re-armed
throughout the run, and asserts the acceptance bar:

* zero malformed responses (transport errors) in every mode -- a fault
  may surface as a well-formed 429/503/504, never as a hang or a reset;
* with client retries, every logical request ends in a 200;
* a prediction served mid-chaos is bit-identical to the direct
  ``predict(...)`` call.
"""

import threading
import time

from conftest import write_figure
from repro._tables import format_table
from repro.apps.jacobi import parse_jacobi
from repro.pevpm import predict, timing_from_db
from repro.service import (
    FaultInjector,
    FaultPlan,
    LoadGenerator,
    PredictionService,
    RetryPolicy,
    ServiceClient,
    ServiceThread,
)

ITERATIONS = 20
NPROCS = 8
RUNS = 8
DISTINCT_SEEDS = 8
CONCURRENCY = 4
DURATION = 2.0  # seconds per mode
CHAOS_SEED = 7


def _request(sequence: int) -> dict:
    return {
        "model": "jacobi",
        "model_params": {"iterations": ITERATIONS},
        "nprocs": NPROCS,
        "runs": RUNS,
        "seed": sequence % DISTINCT_SEEDS,
    }


def _drive(db, spec, tmp_dir, *, chaos: bool, retries: int) -> dict:
    injector = FaultInjector(seed=CHAOS_SEED) if chaos else None
    service = PredictionService(
        db, spec=spec, workers=2, cache_dir=tmp_dir,
        queue_limit=8, deadline_s=5.0, breaker_cooldown=0.2,
        fault_injector=injector,
    )
    retry = (
        RetryPolicy(retries=retries, base=0.02, cap=0.5, seed=CHAOS_SEED)
        if retries
        else None
    )
    stop = threading.Event()

    def keep_arming():
        # Re-arm the same seeded plan for the whole run so faults keep
        # firing as their site events accrue.
        while not stop.wait(0.25):
            injector.arm_plan(FaultPlan.seeded(CHAOS_SEED, length=4))

    arm_thread = threading.Thread(target=keep_arming, daemon=True)
    with ServiceThread(service) as thread:
        host, port = thread.address
        if chaos:
            injector.arm_plan(FaultPlan.seeded(CHAOS_SEED, length=4))
            arm_thread.start()
        gen = LoadGenerator(
            host, port, _request, concurrency=CONCURRENCY, retry=retry
        )
        result = gen.run(duration=DURATION)
        stop.set()
        if arm_thread.is_alive():
            arm_thread.join(timeout=5)
        time.sleep(0.05)  # let any armed stall fire before the probe
        client = ServiceClient(
            host, port, retry=RetryPolicy(retries=5, base=0.05)
        )
        record = client.predict(**_request(3))
        client.close()
    summary = result.summary()
    summary["record"] = record
    summary["injected"] = injector.snapshot()["injected"] if chaos else {}
    summary["pool_rebuilds"] = service.metrics.counter(
        "repro_pool_rebuilds_total"
    )
    summary["cache_corrupt"] = service.metrics.total(
        "repro_cache_corrupt_total"
    )
    return summary


def test_service_under_chaos(spec, fig6_db, out_dir, tmp_path):
    healthy = _drive(
        fig6_db, spec, tmp_path / "healthy", chaos=False, retries=0
    )
    chaotic = _drive(fig6_db, spec, tmp_path / "chaos", chaos=True, retries=0)
    masked = _drive(fig6_db, spec, tmp_path / "masked", chaos=True, retries=4)

    # Reproducibility under fire: the mid-chaos spot checks all match a
    # direct predict() call bit for bit.
    direct = predict(
        parse_jacobi(),
        NPROCS,
        timing_from_db(fig6_db, mode="distribution", nprocs=NPROCS),
        runs=RUNS,
        seed=3,
        params={
            "iterations": ITERATIONS,
            "xsize": 256,
            "serial_time": spec.jacobi_serial_time,
        },
        vector_runs=True,
    )
    for mode in (healthy, chaotic, masked):
        assert mode["record"]["times"] == direct.times

    rows = []
    for name, mode in (
        ("healthy", healthy), ("chaos", chaotic), ("chaos+retry", masked)
    ):
        shed = sum(
            count
            for code, count in mode["status_counts"].items()
            if code != "200"
        )
        rows.append([
            name, str(mode["requests"]), str(mode["ok"]), str(shed),
            str(mode["errors"]), str(mode["retries"]),
            f"{mode['throughput_rps']:.0f}", f"{mode['p99_ms']:.1f}",
        ])
    table = format_table(
        ["mode", "requests", "200s", "shed", "malformed", "retries", "rps",
         "p99 ms"],
        rows,
        title=(
            f"chaos: jacobi {ITERATIONS} iters x{NPROCS}, {RUNS} MC runs, "
            f"{CONCURRENCY} clients, plan seed {CHAOS_SEED} "
            f"(kill/corrupt/delay/stall), {DURATION:g}s per mode"
        ),
    )
    write_figure(out_dir, "chaos_service", table)

    # The acceptance bar: zero malformed responses in every mode.  A
    # fault shows up as a well-formed 429/503/504 at worst.
    for mode in (healthy, chaotic, masked):
        assert mode["errors"] == 0, mode
        assert mode["ok"] > 0, mode
    # Client-side retries mask the shedding completely.
    assert masked["status_counts"].keys() == {"200"}, masked
