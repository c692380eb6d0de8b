"""Tests for the parallel Monte Carlo prediction engine.

The engine's contract (see :mod:`repro.pevpm.parallel`): parallel
evaluation is a pure speed-up -- bit-identical ``times`` to the serial
path for the same seed -- and finished evaluations can be served from
the on-disk cache without re-simulation.
"""

import numpy as np
import pytest

from repro.apps.jacobi import parse_jacobi
from repro.mpibench import BenchSettings, MPIBench
from repro.pevpm import (
    DistributionTiming,
    compare_timing_modes,
    predict,
    predict_speedups,
    resolve_workers,
    run_seeds,
    timing_from_db,
)
from repro.simnet import perseus

SPEC = perseus(16)
ITER = 20


@pytest.fixture(scope="module")
def db():
    bench = MPIBench(SPEC, seed=3, settings=BenchSettings(reps=30, warmup=3))
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


class TestSeedStreams:
    def test_run_seeds_idempotent(self):
        root = np.random.SeedSequence(7)
        a = run_seeds(root, 4)
        b = run_seeds(root, 4)
        assert [s.spawn_key for s in a] == [s.spawn_key for s in b]
        assert all(
            np.random.default_rng(x).random() == np.random.default_rng(y).random()
            for x, y in zip(a, b)
        )

    def test_run_seeds_independent(self):
        children = run_seeds(np.random.SeedSequence(7), 8)
        first = [np.random.default_rng(c).random() for c in children]
        assert len(set(first)) == len(first)

    def test_predict_accepts_seed_sequence(self, db, jacobi_params):
        timing = timing_from_db(db, mode="distribution")
        a = predict(
            parse_jacobi(), 4, timing, runs=2,
            seed=np.random.SeedSequence(9), params=jacobi_params,
        )
        b = predict(parse_jacobi(), 4, timing, runs=2, seed=9, params=jacobi_params)
        assert a.times == b.times

    def test_runs_differ_within_prediction(self, db, jacobi_params):
        timing = timing_from_db(db, mode="distribution")
        pred = predict(parse_jacobi(), 4, timing, runs=4, seed=0, params=jacobi_params)
        assert len(set(pred.times)) > 1


class TestSerialParallelIdentity:
    def test_predict_bit_identical(self, db, jacobi_params):
        timing = timing_from_db(db, mode="distribution")
        serial = predict(
            parse_jacobi(), 4, timing, runs=4, seed=1,
            params=jacobi_params, workers=1,
        )
        parallel = predict(
            parse_jacobi(), 4, timing, runs=4, seed=1,
            params=jacobi_params, workers=2,
        )
        assert parallel.times == serial.times
        assert len(parallel.run_walls) == 4
        assert all(w > 0 for w in parallel.run_walls)

    def test_predict_speedups_bit_identical(self, db, jacobi_params):
        model = parse_jacobi()
        kwargs = dict(
            model_factory=lambda n: model,
            proc_counts=[2, 4],
            timing_factory=lambda n: timing_from_db(db, "distribution"),
            serial_time=1.0,
            runs=2,
            seed=3,
            params=jacobi_params,
        )
        assert predict_speedups(workers=1, **kwargs) == predict_speedups(
            workers=2, **kwargs
        )

    def test_compare_timing_modes_bit_identical(self, db, jacobi_params):
        serial = compare_timing_modes(
            parse_jacobi(), 8, db, runs=2, seed=5, params=jacobi_params, workers=1
        )
        parallel = compare_timing_modes(
            parse_jacobi(), 8, db, runs=2, seed=5, params=jacobi_params, workers=2
        )
        assert {k: p.times for k, p in serial.items()} == {
            k: p.times for k, p in parallel.items()
        }

    def test_unpicklable_program_falls_back_serially(self, db):
        captured = {"n": 10, "t": 1e-4}  # closure state: not picklable as a task

        def program(ctx):
            for _ in range(captured["n"]):
                if ctx.procnum == 0:
                    yield ctx.send(1, 512)
                else:
                    yield ctx.recv(0)
                yield ctx.serial(captured["t"])

        timing = timing_from_db(db, mode="distribution")
        serial = predict(program, 2, timing, runs=3, seed=2, workers=1)
        parallel = predict(program, 2, timing, runs=3, seed=2, workers=2)
        assert parallel.times == serial.times

    def test_resolve_workers(self):
        assert resolve_workers(1, 100) == 1
        assert resolve_workers(16, 3) == 3
        assert resolve_workers(None, 2) <= 2
        with pytest.raises(ValueError):
            resolve_workers(0, 4)


class TestPredictionCache:
    def test_second_call_hits_disk(self, db, jacobi_params, tmp_path):
        timing = timing_from_db(db, mode="distribution")
        first = predict(
            parse_jacobi(), 4, timing, runs=3, seed=5,
            params=jacobi_params, cache_dir=tmp_path,
        )
        second = predict(
            parse_jacobi(), 4, timing, runs=3, seed=5,
            params=jacobi_params, cache_dir=tmp_path,
        )
        assert not first.cached
        assert second.cached
        assert second.times == first.times
        assert second.run_walls == first.run_walls
        assert list(tmp_path.glob("predict-*.json"))

    def test_key_varies_with_arguments(self, db, jacobi_params, tmp_path):
        timing = timing_from_db(db, mode="distribution")
        base = dict(params=jacobi_params, cache_dir=tmp_path)
        predict(parse_jacobi(), 4, timing, runs=3, seed=5, **base)
        other_seed = predict(parse_jacobi(), 4, timing, runs=3, seed=6, **base)
        other_runs = predict(parse_jacobi(), 4, timing, runs=2, seed=5, **base)
        other_timing = predict(
            parse_jacobi(), 4, timing_from_db(db, mode="minimum", source="2x1"),
            runs=3, seed=5, **base,
        )
        assert not other_seed.cached
        assert not other_runs.cached
        assert not other_timing.cached

    def test_trace_bypasses_cache(self, db, jacobi_params, tmp_path):
        timing = timing_from_db(db, mode="distribution")
        predict(
            parse_jacobi(), 4, timing, runs=2, seed=5,
            params=jacobi_params, cache_dir=tmp_path,
        )
        traced = predict(
            parse_jacobi(), 4, timing, runs=2, seed=5,
            params=jacobi_params, cache_dir=tmp_path, trace_last=True,
        )
        assert not traced.cached
        assert traced.loss_report() is not None

    def test_put_leaves_no_temp_files(self, db, jacobi_params, tmp_path):
        timing = timing_from_db(db, mode="distribution")
        predict(
            parse_jacobi(), 4, timing, runs=2, seed=5,
            params=jacobi_params, cache_dir=tmp_path,
        )
        assert list(tmp_path.glob("predict-*.json"))
        assert not list(tmp_path.glob("*.tmp"))

    def test_corrupt_entry_is_recomputed(self, db, jacobi_params, tmp_path):
        timing = timing_from_db(db, mode="distribution")
        first = predict(
            parse_jacobi(), 4, timing, runs=2, seed=5,
            params=jacobi_params, cache_dir=tmp_path,
        )
        for path in tmp_path.glob("predict-*.json"):
            path.write_text("{not json")
        again = predict(
            parse_jacobi(), 4, timing, runs=2, seed=5,
            params=jacobi_params, cache_dir=tmp_path,
        )
        assert not again.cached
        assert again.times == first.times


class TestDistributionTimingBuffers:
    def test_buffers_reset_between_runs(self, db):
        timing = DistributionTiming(db)
        draws = [
            timing.one_way_time(512, 4, np.random.default_rng(11)) for _ in range(5)
        ]
        # Without a reset the pre-sample buffer keeps advancing even when
        # the caller restarts its RNG stream...
        assert len(set(draws)) > 1
        # ...and with one, identical streams draw identically.
        timing.reset()
        assert not timing._buffers
        replay = timing.one_way_time(512, 4, np.random.default_rng(11))
        assert replay == draws[0]

    def test_buffer_grows_geometrically(self, db):
        timing = DistributionTiming(db)
        rng = np.random.default_rng(0)
        for _ in range(timing.BATCH + 1):
            timing.one_way_time(512, 4, rng)
        (buf,) = timing._buffers.values()
        assert len(buf[0]) == 2 * timing.BATCH
        total = timing.BATCH
        while total <= 3 * timing.BATCH_MAX:
            timing.one_way_time(512, 4, rng)
            total += 1
        (buf,) = timing._buffers.values()
        assert len(buf[0]) == timing.BATCH_MAX
