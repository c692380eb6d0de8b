"""Tests for the Monte Carlo prediction engine.

The engine's contract (see :mod:`repro.pevpm.parallel`): every run
draws from a seed stream fixed by ``(seed, index)``, evaluation is
serial in the caller's process, and finished evaluations can be served
from the on-disk cache without re-simulation.
"""

import numpy as np
import pytest

from repro.apps import fft_model, make_tasks, taskfarm_model
from repro.apps.jacobi import parse_jacobi
from repro.mpibench import BenchSettings, MPIBench
from repro.pevpm import (
    VECTOR_BATCH,
    DistributionTiming,
    RunGroup,
    as_seed_sequence,
    evaluate_groups,
    predict,
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


class TestSerialEvaluation:
    def test_evaluate_groups_accepts_only_one_worker(self, db, jacobi_params):
        timing = timing_from_db(db, mode="distribution")
        group = RunGroup(
            model=parse_jacobi(), nprocs=4, timing=timing,
            seed=as_seed_sequence(1), runs=4, params=jacobi_params,
        )
        for workers in (2, 0, None):
            with pytest.raises(ValueError, match="--shards"):
                evaluate_groups([group], workers=workers)
        (outcomes,) = evaluate_groups([group], workers=1)
        direct = predict(
            parse_jacobi(), 4, timing, runs=4, seed=1, params=jacobi_params
        )
        assert [o.elapsed for o in outcomes] == direct.times

    def test_every_run_of_a_two_chunk_call_has_a_wall(self, db, jacobi_params):
        runs = VECTOR_BATCH + 4
        timing = timing_from_db(db, mode="distribution")
        pred = predict(
            parse_jacobi(), 4, timing, runs=runs, seed=1, params=jacobi_params
        )
        assert len(pred.times) == len(pred.run_walls) == runs
        assert all(w > 0 for w in pred.run_walls)


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

    def test_unpicklable_programs_are_never_cached(self, db, tmp_path):
        # Equal reprs, different messages: a repr-based key (a closure's
        # repr is its reusable memory address) would serve one's times
        # to the other.
        class Ring:
            def __init__(self, size):
                self.size = size

            def __call__(self, ctx):
                n, me = ctx.numprocs, ctx.procnum
                yield ctx.send((me + 1) % n, self.size)
                yield ctx.recv((me - 1) % n)

            def __repr__(self):
                return "<ring>"

            def __reduce__(self):
                raise TypeError("not picklable")

        timing = timing_from_db(db, mode="distribution")
        small = predict(Ring(64), 4, timing, runs=8, seed=1, cache_dir=tmp_path)
        large = predict(Ring(65536), 4, timing, runs=8, seed=1, cache_dir=tmp_path)
        again = predict(Ring(64), 4, timing, runs=8, seed=1, cache_dir=tmp_path)
        assert not (small.cached or large.cached or again.cached)
        assert large.times != small.times
        assert again.times == small.times
        assert not list(tmp_path.glob("predict-*.json"))

    def test_fft_and_taskfarm_models_pickle(self, db, tmp_path):
        import pickle

        timing = timing_from_db(db, mode="distribution")
        for model in (fft_model(1024), taskfarm_model(make_tasks(8, seed=1))):
            clone = pickle.loads(pickle.dumps(model))
            direct = predict(model, 4, timing, runs=4, seed=3)
            assert predict(clone, 4, timing, runs=4, seed=3).times == direct.times
            first = predict(model, 4, timing, runs=4, seed=3, cache_dir=tmp_path)
            again = predict(clone, 4, timing, runs=4, seed=3, cache_dir=tmp_path)
            assert not first.cached and again.cached
            assert first.times == again.times == direct.times
        assert not predict(fft_model(4096), 4, timing, runs=4, seed=3,
                           cache_dir=tmp_path).cached


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
