"""Adaptive (precision-targeted) prediction: bit-identity with fixed
runs, stopping behaviour, run savings, and the adaptive cache story.

The load-bearing property is the issue's acceptance criterion: an
adaptive evaluation that stops at N runs is **bit-identical** to a fixed
``runs=N`` evaluation with the same seed, under both timing modes.
That holds because adaptive increments continue the seed streams at
absolute run indices (``run_offset``) and totals stay chunk-aligned.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.jacobi import parse_jacobi
from repro.mpibench import BenchSettings, MPIBench
from repro.pevpm import PrecisionTarget, predict, timing_from_db
from repro.pevpm.predict import (
    AdaptiveResult,
    _adaptive_batch,
    evaluate_with_precision,
)
from repro.pevpm.parallel import RunGroup, as_seed_sequence, evaluate_groups
from repro.simnet import perseus

SPEC = perseus(16)
ITER = 30


@pytest.fixture(scope="module")
def db():
    bench = MPIBench(SPEC, seed=3, settings=BenchSettings(reps=40, warmup=4))
    return bench.sweep_isend(
        [(1, 2), (2, 1), (8, 1)], sizes=[0, 512, 1024, 2048]
    )


@pytest.fixture(scope="module")
def jacobi_params():
    return {
        "iterations": ITER,
        "xsize": 256,
        "serial_time": SPEC.jacobi_serial_time,
    }


def _predict(db, params, **kw):
    timing = timing_from_db(db, mode=kw.pop("mode", "distribution"), nprocs=8)
    return predict(parse_jacobi(), 8, timing, params=params, **kw)


class TestBitIdentity:
    @given(
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from(["distribution", "average"]),
    )
    @settings(max_examples=8, deadline=None)
    def test_adaptive_equals_fixed_at_same_count(
        self, db, jacobi_params, seed, mode
    ):
        """Adaptive stopping at N is bit-identical to runs=N, same seed,
        under both timing modes (adaptive mode's load-bearing property)."""
        target = PrecisionTarget(rse=0.5, min_runs=4, max_runs=16)
        adaptive = _predict(
            db, jacobi_params, mode=mode, seed=seed, precision=target,
        )
        n = adaptive.runs
        timing = timing_from_db(db, mode=mode, nprocs=8)
        group = RunGroup(
            model=parse_jacobi(), nprocs=8, timing=timing,
            seed=as_seed_sequence(seed), runs=n, params=jacobi_params,
            vector_batch=_adaptive_batch(target),
        )
        fixed_times = [o.elapsed for o in evaluate_groups([group])[0]]
        assert adaptive.times == fixed_times

    def test_tight_target_runs_longer_than_loose(self, db, jacobi_params):
        loose = _predict(db, jacobi_params, seed=1, target_rse=0.5, max_runs=64)
        tight = _predict(db, jacobi_params, seed=1, target_rse=1e-7, max_runs=64)
        assert loose.runs < tight.runs
        # Tight is a strict extension of loose: shared prefix bit-identical.
        assert tight.times[: loose.runs] == loose.times

    def test_loose_target_beats_fixed_16(self, db, jacobi_params):
        """Acceptance: a loose-target request spends fewer runs than a
        fixed runs=16 request (the Jacobi MC spread is ~1-2% RSE at 4)."""
        pred = _predict(db, jacobi_params, seed=1, target_rse=0.05)
        assert pred.runs < 16
        assert pred.precision["converged"]


class TestStoppingBehaviour:
    def test_min_runs_floor(self, db, jacobi_params):
        pred = _predict(db, jacobi_params, seed=2, target_rse=10.0, min_runs=6)
        assert pred.runs == 6

    def test_max_runs_cap_reports_nonconvergence(self, db, jacobi_params):
        pred = _predict(
            db, jacobi_params, seed=2, target_rse=1e-9, min_runs=2, max_runs=8
        )
        assert pred.runs == 8
        assert not pred.precision["converged"]
        totals = [r["runs"] for r in pred.precision["rounds"]]
        assert totals == [2, 4, 8]
        assert sum(r["added"] for r in pred.precision["rounds"]) == 8

    def test_precision_block_shape(self, db, jacobi_params):
        pred = _predict(db, jacobi_params, seed=3, target_rse=0.5)
        p = pred.precision
        assert p["target"]["rse"] == 0.5
        assert isinstance(p["achieved_rse"], float)
        assert p["achieved_rse"] <= 0.5
        assert pred.rse <= pred.precision["achieved_rse"] + 1e-12

    def test_trace_last_rejected(self, db, jacobi_params):
        with pytest.raises(ValueError, match="trace_last"):
            _predict(db, jacobi_params, seed=1, target_rse=0.5, trace_last=True)

    def test_precision_and_target_rse_mutually_exclusive(self, db, jacobi_params):
        with pytest.raises(ValueError, match="not both"):
            _predict(
                db, jacobi_params, seed=1,
                precision=PrecisionTarget(rse=0.1), target_rse=0.1,
            )

    def test_fixed_mode_has_no_precision(self, db, jacobi_params):
        pred = _predict(db, jacobi_params, seed=1, runs=2)
        assert pred.precision is None


class TestVectorChunkParity:
    def test_vector_adaptive_uses_min_runs_chunks(self, db, jacobi_params):
        pred = _predict(db, jacobi_params, seed=4, target_rse=0.5)
        # A loose target on the batched engine stops at the first chunk
        # (min_runs), not the full default chunk of 64.
        assert pred.runs == 4

    def test_vector_totals_chunk_aligned_below_cap(self, db, jacobi_params):
        pred = _predict(
            db, jacobi_params, seed=4, target_rse=1e-9,
            min_runs=4, max_runs=24,
        )
        totals = [r["runs"] for r in pred.precision["rounds"]]
        assert totals[-1] == 24
        for t in totals[:-1]:
            assert t % 4 == 0


class TestAdaptiveCache:
    def test_pointer_and_fixed_key_roundtrip(self, db, jacobi_params, tmp_path):
        kw = dict(seed=5, target_rse=0.5, cache_dir=tmp_path)
        first = _predict(db, jacobi_params, **kw)
        assert not first.cached
        again = _predict(db, jacobi_params, **kw)
        assert again.cached
        assert again.times == first.times
        assert again.precision == first.precision

    def test_fixed_request_hits_adaptive_result(self, db, jacobi_params, tmp_path):
        adaptive = _predict(
            db, jacobi_params, seed=6, target_rse=0.5, cache_dir=tmp_path
        )
        fixed = _predict(
            db, jacobi_params, seed=6, runs=adaptive.runs, cache_dir=tmp_path
        )
        assert fixed.cached
        assert fixed.times == adaptive.times
        assert fixed.precision is None  # fixed key serves a plain doc

    def test_different_targets_do_not_collide(self, db, jacobi_params, tmp_path):
        a = _predict(db, jacobi_params, seed=7, target_rse=0.5, cache_dir=tmp_path)
        b = _predict(
            db, jacobi_params, seed=7, target_rse=1e-9, max_runs=8,
            cache_dir=tmp_path,
        )
        assert not b.cached
        assert b.runs != a.runs or b.precision != a.precision


class TestEvaluateWithPrecision:
    def test_mixed_fixed_and_adaptive(self, db, jacobi_params):
        timing = timing_from_db(db, mode="distribution")
        fixed = RunGroup(
            model=parse_jacobi(), nprocs=8, timing=timing,
            seed=as_seed_sequence(11), runs=3, params=jacobi_params,
        )
        adaptive = RunGroup(
            model=parse_jacobi(), nprocs=8, timing=timing,
            seed=as_seed_sequence(12), runs=1, params=jacobi_params,
        )
        target = PrecisionTarget(rse=0.5, min_runs=4, max_runs=16)
        fixed_out, fixed_walls, results = evaluate_with_precision(
            [fixed], [(adaptive, target)]
        )
        assert len(fixed_out[0]) == 3
        assert fixed_walls[0] > 0
        (res,) = results
        assert isinstance(res, AdaptiveResult)
        assert res.runs >= 4
        assert res.wall > 0
        # Fixed group's outcomes match a standalone fixed evaluation.
        standalone = [o.elapsed for o in evaluate_groups([fixed])[0]]
        assert [o.elapsed for o in fixed_out[0]] == standalone

    def test_rejects_offset_group(self, db, jacobi_params):
        timing = timing_from_db(db, mode="distribution")
        g = RunGroup(
            model=parse_jacobi(), nprocs=8, timing=timing,
            seed=as_seed_sequence(1), runs=1, params=jacobi_params,
            run_offset=3,
        )
        with pytest.raises(ValueError, match="run_offset"):
            evaluate_with_precision([], [(g, PrecisionTarget(rse=0.5))])


class TestStderrRegression:
    """Satellite 1: the stderr bugfix (ddof=1; 0.0 when inestimable)."""

    def test_single_run_stderr_zero(self, db, jacobi_params):
        pred = _predict(db, jacobi_params, seed=1, runs=1)
        assert pred.stderr == 0.0
        assert pred.sample_std == 0.0
        assert pred.rse == 0.0

    def test_ddof1_vs_population(self, db, jacobi_params):
        pred = _predict(db, jacobi_params, seed=1, runs=5)
        n = pred.runs
        assert pred.sample_std == pytest.approx(
            pred.std_time * (n / (n - 1)) ** 0.5
        )
        assert pred.stderr == pytest.approx(pred.sample_std / n**0.5)
        assert pred.stderr > pred.std_time / n**0.5  # the old, biased value

    def test_ci_consistent_with_stderr(self, db, jacobi_params):
        pred = _predict(db, jacobi_params, seed=1, runs=6)
        ci = pred.ci(0.95)
        assert ci.estimate == pytest.approx(pred.mean_time)
        assert ci.half_width == pytest.approx(1.959964 * pred.stderr, rel=1e-4)
        assert ci.n == 6
