"""Integration tests: the full MPIBench -> PEVPM -> prediction pipeline.

These are the test-scale version of the paper's Figure 6 experiment: a
small benchmark campaign on the simulated Perseus, a PEVPM model of the
Jacobi iteration, and a comparison of predicted vs. actually-simulated
execution time.
"""

import numpy as np
import pytest

from repro.apps.jacobi import jacobi_serial_time, jacobi_smpi, parse_jacobi
from repro.mpibench import BenchSettings, MPIBench
from repro.pevpm import (
    HockneyTiming,
    compare_timing_modes,
    predict,
    predict_speedups,
    timing_from_db,
)
from repro.simnet import perseus
from repro.smpi import run_program

SPEC = perseus(16)
ITER = 60


@pytest.fixture(scope="module")
def db():
    bench = MPIBench(SPEC, seed=3, settings=BenchSettings(reps=40, warmup=4))
    return bench.sweep_isend(
        [(1, 2), (2, 1), (8, 1), (16, 1)], sizes=[0, 512, 1024, 2048]
    )


@pytest.fixture(scope="module")
def jacobi_params():
    return {
        "iterations": ITER,
        "xsize": 256,
        "serial_time": SPEC.jacobi_serial_time,
    }


class TestPredictionAccuracy:
    @pytest.mark.parametrize("nprocs,ppn", [(4, 1), (8, 1), (16, 2)])
    def test_distribution_prediction_close_to_measurement(
        self, db, jacobi_params, nprocs, ppn
    ):
        """The headline claim, at test scale: distribution-based PEVPM
        predicts the simulated execution within ~10%."""
        measured = run_program(
            SPEC, jacobi_smpi, nprocs=nprocs, ppn=ppn, seed=42, args=(ITER,)
        ).elapsed
        timing = timing_from_db(db, mode="distribution")
        pred = predict(
            parse_jacobi(), nprocs, timing, runs=4, seed=1,
            params=jacobi_params, ppn=ppn,
        )
        err = abs(pred.mean_time - measured) / measured
        assert err < 0.12, f"prediction off by {err * 100:.1f}%"

    def test_monte_carlo_spread_is_small(self, db, jacobi_params):
        timing = timing_from_db(db, mode="distribution")
        pred = predict(
            parse_jacobi(), 8, timing, runs=6, seed=2, params=jacobi_params
        )
        assert pred.std_time / pred.mean_time < 0.05
        assert pred.stderr < pred.std_time

    def test_prediction_deterministic_given_seed(self, db, jacobi_params):
        timing = timing_from_db(db, mode="distribution")
        a = predict(parse_jacobi(), 4, timing, runs=2, seed=9, params=jacobi_params)
        b = predict(parse_jacobi(), 4, timing, runs=2, seed=9, params=jacobi_params)
        assert a.times == b.times


class TestTimingModeOrdering:
    def test_min_below_avg_below_distribution(self, db, jacobi_params):
        """Minimum-based predictions are the most optimistic; averages in
        between; distributions account for the most delay."""
        preds = compare_timing_modes(
            parse_jacobi(), 16, db, runs=3, seed=5, params=jacobi_params
        )
        t_min = preds["minimum-2x1"].mean_time
        t_avg = preds["average-2x1"].mean_time
        t_dist = preds["distribution-nxp"].mean_time
        assert t_min <= t_avg <= t_dist * 1.001

    def test_speedup_helper(self, db, jacobi_params):
        serial = jacobi_serial_time(SPEC, ITER)
        model = parse_jacobi()
        speedups = predict_speedups(
            model_factory=lambda n: model,
            proc_counts=[2, 4, 8],
            timing_factory=lambda n: timing_from_db(db, "distribution"),
            serial_time=serial,
            runs=2,
            seed=3,
            params=jacobi_params,
        )
        # Speedup grows with procs at these sizes and stays below ideal.
        assert speedups[2] < speedups[4] < speedups[8]
        for n, s in speedups.items():
            assert 1.0 < s < n


class TestPredictionArtifacts:
    def test_loss_report_from_traced_prediction(self, db, jacobi_params):
        timing = timing_from_db(db, mode="distribution")
        pred = predict(
            parse_jacobi(), 4, timing, runs=2, seed=1,
            params=jacobi_params, trace_last=True,
        )
        report = pred.loss_report()
        assert report is not None
        per = report.per_process()
        assert len(per) == 4
        # Some compute everywhere, some wait somewhere.
        assert all(p["compute"] > 0 for p in per)
        assert any(p["wait"] > 0 for p in per)

    def test_loss_report_none_without_trace(self, db, jacobi_params):
        timing = timing_from_db(db, mode="distribution")
        pred = predict(parse_jacobi(), 4, timing, runs=1, seed=1, params=jacobi_params)
        assert pred.loss_report() is None

    def test_evaluation_cost_metric(self, db, jacobi_params):
        """The paper's Section 6 cost claim: PEVPM evaluates far more
        simulated processor-time per wall second than 1x."""
        timing = timing_from_db(db, mode="distribution")
        pred = predict(parse_jacobi(), 8, timing, runs=2, seed=1, params=jacobi_params)
        assert pred.wall_time > 0
        assert pred.simulated_per_wall > 1.0

    def test_invalid_runs(self, db, jacobi_params):
        timing = timing_from_db(db, mode="distribution")
        with pytest.raises(ValueError):
            predict(parse_jacobi(), 2, timing, runs=0, params=jacobi_params)

    @pytest.mark.parametrize("runs", [0, -3])
    def test_every_entry_point_rejects_runs_below_one(self, db, jacobi_params, runs):
        model = parse_jacobi()
        timing = timing_from_db(db, mode="distribution")
        kw = dict(runs=runs, params=jacobi_params)
        with pytest.raises(ValueError, match="runs must be >= 1"):
            predict(model, 2, timing, **kw)
        with pytest.raises(ValueError, match="runs must be >= 1"):
            predict_speedups(lambda n: model, [2, 4], lambda n: timing, 1.0, **kw)
        with pytest.raises(ValueError, match="runs must be >= 1"):
            compare_timing_modes(model, 4, db, **kw)

    def test_adaptive_mode_ignores_runs(self, db, jacobi_params):
        model = parse_jacobi()
        timing = timing_from_db(db, mode="distribution")
        kw = dict(runs=0, params=jacobi_params, target_rse=0.5, max_runs=8)
        assert predict(model, 2, timing, **kw).runs >= 4
        speedups = predict_speedups(lambda n: model, [2, 4], lambda n: timing, 1.0, **kw)
        assert all(np.isfinite(s) and s > 0 for s in speedups.values())
        modes = compare_timing_modes(model, 4, db, **kw)
        assert all(pred.runs >= 4 for pred in modes.values())

    def test_bad_model_type(self, db):
        timing = timing_from_db(db, mode="distribution")
        with pytest.raises(TypeError):
            predict("not a model", 2, timing)

    def test_speedup_validation(self, db, jacobi_params):
        timing = timing_from_db(db, mode="distribution")
        pred = predict(parse_jacobi(), 2, timing, runs=1, params=jacobi_params)
        with pytest.raises(ValueError):
            pred.speedup(0.0)


class TestHockneyBackend:
    def test_hockney_predicts_roughly(self, db, jacobi_params):
        """The analytic l + b/W backend runs end to end and lands within a
        factor of ~2 (it ignores contention entirely)."""
        measured = run_program(
            SPEC, jacobi_smpi, nprocs=8, ppn=1, seed=42, args=(ITER,)
        ).elapsed
        h2 = db.result("isend", 2, 1)
        lat = h2.histograms[0].min
        bw = 1024 / max(1e-12, h2.histograms[1024].min - lat)
        timing = HockneyTiming(latency=lat, bandwidth=bw)
        pred = predict(parse_jacobi(), 8, timing, runs=1, seed=0, params=jacobi_params)
        assert 0.5 < pred.mean_time / measured < 2.0
