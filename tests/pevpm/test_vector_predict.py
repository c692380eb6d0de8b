"""Tests for the batched vectorised Monte Carlo engine.

The engine's contract (see :mod:`repro.pevpm.vector` and DESIGN.md §6):
batch mode is deterministic for a given seed -- bit-identical across
repeats *and* worker counts -- and statistically equivalent to the
per-run engine (exactly equal under deterministic timing models, mean
within 1% under distribution sampling).  It runs static schedules only:
divergent programs run per-run, and tracing never changes a time.
"""

import numpy as np
import pytest

from repro.apps.taskfarm import taskfarm_model
from repro.apps.jacobi import parse_jacobi
from repro.mpibench import BenchSettings, MPIBench
from repro.obs import merge_phases
from repro.pevpm import (
    BatchedVirtualMachine,
    HockneyTiming,
    ModelDeadlock,
    RunGroup,
    VectorScoreboard,
    VirtualMachine,
    as_seed_sequence,
    clamp_times,
    compile_program,
    evaluate_groups,
    predict,
    run_seeds,
    timing_from_db,
)
from repro.pevpm import parallel
from repro.pevpm.interpreter import compile_model
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


def _jacobi_program(params):
    return compile_model(parse_jacobi(), params)


def _jacobi_schedule(nprocs, params):
    return compile_program(parse_jacobi(), nprocs, params)


class TestClampTimes:
    def test_scalar(self):
        assert clamp_times(-1.5) == 0.0
        assert clamp_times(0.0) == 0.0
        assert clamp_times(2.5) == 2.5

    def test_array(self):
        out = clamp_times(np.array([-1.0, 0.0, 3.0]))
        assert isinstance(out, np.ndarray)
        assert list(out) == [0.0, 0.0, 3.0]


class TestDeterminism:
    def test_bit_identical_across_repeats(self, db, jacobi_params):
        timing = timing_from_db(db, mode="distribution")
        a = predict(parse_jacobi(), 4, timing, runs=8, seed=5,
                    params=jacobi_params, vector_runs=True)
        b = predict(parse_jacobi(), 4, timing, runs=8, seed=5,
                    params=jacobi_params, vector_runs=True)
        assert a.times == b.times

    def test_bit_identical_across_worker_counts(self, db, jacobi_params):
        timing = timing_from_db(db, mode="distribution")
        one = predict(parse_jacobi(), 4, timing, runs=8, seed=5,
                      params=jacobi_params, vector_runs=True, workers=1)
        two = predict(parse_jacobi(), 4, timing, runs=8, seed=5,
                      params=jacobi_params, vector_runs=True, workers=2)
        assert one.times == two.times

    def test_chunking_gives_prefix_property(self, db, jacobi_params):
        # Chunk boundaries are fixed (VECTOR_BATCH), independent of the
        # total: asking for more runs only appends, never reshuffles.
        timing = timing_from_db(db, mode="distribution")
        short = predict(parse_jacobi(), 4, timing, runs=6, seed=5,
                        params=jacobi_params, vector_runs=True)
        # 6 runs fit one chunk; 6-run prefix of a 10-run call matches
        # only if the chunk draws in run-major order -- it draws in
        # decision-major order, so the *chunk*, not the run, is the
        # reproducibility unit: equal chunk => equal times.
        again = predict(parse_jacobi(), 4, timing, runs=6, seed=5,
                        params=jacobi_params, vector_runs=True)
        assert short.times == again.times

    def test_different_seeds_differ(self, db, jacobi_params):
        timing = timing_from_db(db, mode="distribution")
        a = predict(parse_jacobi(), 4, timing, runs=8, seed=5,
                    params=jacobi_params, vector_runs=True)
        b = predict(parse_jacobi(), 4, timing, runs=8, seed=6,
                    params=jacobi_params, vector_runs=True)
        assert a.times != b.times

    def test_runs_differ_within_batch(self, db, jacobi_params):
        timing = timing_from_db(db, mode="distribution")
        pred = predict(parse_jacobi(), 4, timing, runs=8, seed=0,
                       params=jacobi_params, vector_runs=True)
        assert len(set(pred.times)) > 1


class TestExactParityDeterministicTiming:
    """With a deterministic timing model every run is the same, so the
    batch-mean match order equals the scalar (block time, procnum) order
    and the two engines must agree bit-for-bit -- NIC serialisation
    occupancy chains included."""

    @pytest.mark.parametrize("nic", ["off", "tx", "txrx"])
    def test_hockney_bitwise_equal(self, jacobi_params, nic):
        timing = HockneyTiming(latency=1e-4, bandwidth=1e7)
        program = _jacobi_program(jacobi_params)
        root = np.random.SeedSequence(1)
        serial = [
            VirtualMachine(8, timing, seed=s, nic_serialisation=nic)
            .run(program).elapsed
            for s in run_seeds(root, 4)
        ]
        batch = BatchedVirtualMachine(
            8, timing, seed=root, runs=4, nic_serialisation=nic
        ).run(_jacobi_schedule(8, jacobi_params))
        assert [r.elapsed for r in batch] == serial

    def test_per_proc_accounting_matches(self, jacobi_params):
        timing = HockneyTiming(latency=1e-4, bandwidth=1e7)
        program = _jacobi_program(jacobi_params)
        root = np.random.SeedSequence(2)
        scalar = VirtualMachine(4, timing, seed=run_seeds(root, 1)[0]).run(program)
        batch = BatchedVirtualMachine(4, timing, seed=root, runs=1).run(
            _jacobi_schedule(4, jacobi_params)
        )[0]
        assert batch.finish_times == pytest.approx(scalar.finish_times, abs=0.0)
        assert batch.compute_time == pytest.approx(scalar.compute_time, abs=0.0)
        assert batch.send_time == pytest.approx(scalar.send_time, abs=0.0)
        assert batch.recv_wait_time == pytest.approx(scalar.recv_wait_time, abs=0.0)
        assert batch.messages == scalar.messages
        assert batch.peak_contention == scalar.peak_contention


class TestStatisticalParity:
    def test_mean_within_one_percent(self, db, jacobi_params):
        timing = timing_from_db(db, mode="distribution")
        kw = dict(runs=64, seed=1, params=jacobi_params)
        serial = predict(parse_jacobi(), 8, timing, **kw)
        vector = predict(parse_jacobi(), 8, timing, vector_runs=True, **kw)
        rel = abs(vector.mean_time - serial.mean_time) / serial.mean_time
        assert rel < 0.01

    def test_multinode_ppn_parity(self, db, jacobi_params):
        timing = timing_from_db(db, mode="distribution")
        kw = dict(runs=64, seed=2, params=jacobi_params, ppn=2)
        serial = predict(parse_jacobi(), 16, timing, **kw)
        vector = predict(parse_jacobi(), 16, timing, vector_runs=True, **kw)
        rel = abs(vector.mean_time - serial.mean_time) / serial.mean_time
        assert rel < 0.01


class TestDivergentPrograms:
    """A wildcard receive whose winner depends on sampled arrival times
    makes a program divergent; it runs one unit per run on the per-run
    engine whatever the group asks for."""

    TASKS = [5e-4, 2e-4, 8e-4, 1e-4, 6e-4, 3e-4, 9e-4, 4e-4]

    def test_deadlock_detected(self):
        def bad(ctx):
            # Everyone receives; nobody sends.
            yield ctx.recv(ctx.procnum ^ 1, label="stuck")

        timing = HockneyTiming(latency=1e-4, bandwidth=1e7)
        with pytest.raises(ModelDeadlock):
            predict(bad, 2, timing, runs=4, vector_runs=True)

    def test_evaluate_groups_routes_by_divergence(self, db, jacobi_params, monkeypatch):
        issued = []
        real_batch, real_run = parallel._execute_batch, parallel._execute_run

        def batch(group, program, start, size, *rest):
            issued.append(("batch", group.nprocs, start, size))
            return real_batch(group, program, start, size, *rest)

        def run(group, *rest):
            issued.append(("run", group.nprocs))
            return real_run(group, *rest)

        monkeypatch.setattr(parallel, "_execute_batch", batch)
        monkeypatch.setattr(parallel, "_execute_run", run)
        timing = timing_from_db(db, mode="distribution")
        kw = dict(timing=timing, seed=as_seed_sequence(3), runs=6,
                  vector_runs=True, vector_batch=4)
        evaluate_groups([
            RunGroup(model=parse_jacobi(), nprocs=8, params=jacobi_params, **kw),
            RunGroup(model=taskfarm_model(self.TASKS), nprocs=4, **kw),
        ], workers=1)
        assert issued == [("batch", 8, 0, 4), ("batch", 8, 4, 2)] + [("run", 4)] * 6

    def test_vector_lane_equals_per_run_engine(self, db):
        timing = timing_from_db(db, mode="distribution")
        program = taskfarm_model(self.TASKS)
        pred = predict(program, 4, timing, runs=8, seed=7, vector_runs=True)
        per_run = [
            VirtualMachine(4, timing, seed=s).run(program).elapsed
            for s in run_seeds(np.random.SeedSequence(7), 8)
        ]
        assert pred.times == per_run


class TestCacheComposition:
    def test_batch_and_per_run_keys_do_not_collide(self, db, jacobi_params, tmp_path):
        timing = timing_from_db(db, mode="distribution")
        kw = dict(runs=4, seed=1, params=jacobi_params, cache_dir=tmp_path)
        vector = predict(parse_jacobi(), 4, timing, vector_runs=True, **kw)
        serial = predict(parse_jacobi(), 4, timing, **kw)
        assert not serial.cached  # must not be served the batch result
        assert serial.times != vector.times

    def test_batch_round_trip(self, db, jacobi_params, tmp_path):
        timing = timing_from_db(db, mode="distribution")
        kw = dict(runs=4, seed=1, params=jacobi_params, cache_dir=tmp_path,
                  vector_runs=True)
        first = predict(parse_jacobi(), 4, timing, **kw)
        second = predict(parse_jacobi(), 4, timing, **kw)
        assert not first.cached
        assert second.cached
        assert second.times == first.times


def _static_or_divergent(name, jacobi_params):
    """(model, params): Jacobi compiles static, the task farm divergent."""
    if name == "jacobi":
        return parse_jacobi(), jacobi_params
    return taskfarm_model(TestDivergentPrograms.TASKS), None


class TestTraceLast:
    @pytest.mark.parametrize("model", ["jacobi", "taskfarm"])
    def test_trace_last_keeps_times(self, db, jacobi_params, model):
        timing = timing_from_db(db, mode="distribution")
        program, params = _static_or_divergent(model, jacobi_params)
        kw = dict(runs=6, seed=1, params=params, vector_runs=True)
        traced = predict(program, 4, timing, trace_last=True, **kw)
        assert traced.times == predict(program, 4, timing, **kw).times
        assert traced.loss_report() is not None
        assert all(r.trace is None for r in traced.results[:-1])

    def test_batched_trace_equals_per_run_trace(self, jacobi_params):
        timing = HockneyTiming(latency=1e-4, bandwidth=1e7)
        per_run = VirtualMachine(
            8, timing, seed=0, trace=True, ppn=2
        ).run(_jacobi_program(jacobi_params))
        batch = BatchedVirtualMachine(
            8, timing, seed=0, runs=3, trace=True, ppn=2
        ).run(_jacobi_schedule(8, jacobi_params))
        assert batch[-1].trace.events == per_run.trace.events
        assert len(per_run.trace.events) > 0


class TestPhaseProfile:
    @pytest.mark.parametrize("model", ["jacobi", "taskfarm"])
    def test_buckets_within_wall(self, db, jacobi_params, model):
        # Disjoint buckets: together they never exceed the evaluation's
        # own wall time, on either engine.
        program, params = _static_or_divergent(model, jacobi_params)
        group = RunGroup(
            model=program, nprocs=4, params=params,
            timing=timing_from_db(db, mode="distribution"),
            seed=as_seed_sequence(2), runs=8, vector_runs=True, profile=True,
        )
        outcomes = evaluate_groups([group], workers=1)[0]
        phases = merge_phases(outcomes)
        assert set(phases) <= {"sweep", "match", "sample"}
        assert 0.0 < sum(phases.values()) <= sum(o.wall for o in outcomes)


class TestVectorScoreboard:
    def test_fifo_and_wildcard_heads(self):
        sb = VectorScoreboard()
        d = np.zeros(3)
        first = sb.add(0, 2, 100, d, False, None)
        second = sb.add(0, 2, 100, d + 1.0, False, None)
        other = sb.add(1, 2, 50, d, False, None)
        assert sb.oldest_for(0, 2).msg_id == first.msg_id
        heads = [e.msg_id for e in sb.heads_for_dst(2)]
        assert heads == [first.msg_id, other.msg_id]
        sb.remove(first.msg_id)
        assert sb.oldest_for(0, 2).msg_id == second.msg_id
