"""Tests for the batched vectorised Monte Carlo engine.

The engine's contract (see :mod:`repro.pevpm.vector` and DESIGN.md §6):
batch mode is deterministic for a given seed -- bit-identical across
repeats *and* worker counts -- and a statistically equivalent sampler of
the per-run engine's model: run for run equal to it whenever the draws
do not depend on draw order or contention, NIC occupancy included.  It
runs static schedules only: divergent programs run per-run, and tracing
never changes a time.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.taskfarm import taskfarm_model
from repro.apps.jacobi import parse_jacobi
from repro.mpibench import BenchSettings, MPIBench
from repro.obs import merge_phases
from repro.pevpm import (
    BatchedVirtualMachine,
    HockneyTiming,
    ModelDeadlock,
    RunGroup,
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
from repro.pevpm.timing import LOCAL_OP, ONEWAY_OP, TimingModel
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
                    params=jacobi_params)
        b = predict(parse_jacobi(), 4, timing, runs=8, seed=5,
                    params=jacobi_params)
        assert a.times == b.times

    def test_bit_identical_across_worker_counts(self, db, jacobi_params):
        # Two chunks, so the second worker gets one.
        runs = parallel.VECTOR_BATCH + 8
        timing = timing_from_db(db, mode="distribution")
        one = predict(parse_jacobi(), 4, timing, runs=runs, seed=5,
                      params=jacobi_params, workers=1)
        two = predict(parse_jacobi(), 4, timing, runs=runs, seed=5,
                      params=jacobi_params, workers=2)
        assert one.times == two.times

    def test_chunking_gives_prefix_property(self, db, jacobi_params):
        # Chunk boundaries are fixed (VECTOR_BATCH), independent of the
        # total: asking for more runs only appends, never reshuffles.
        timing = timing_from_db(db, mode="distribution")
        short = predict(parse_jacobi(), 4, timing, runs=6, seed=5,
                        params=jacobi_params)
        # 6 runs fit one chunk; 6-run prefix of a 10-run call matches
        # only if the chunk draws in run-major order -- it draws in
        # decision-major order, so the *chunk*, not the run, is the
        # reproducibility unit: equal chunk => equal times.
        again = predict(parse_jacobi(), 4, timing, runs=6, seed=5,
                        params=jacobi_params)
        assert short.times == again.times

    def test_different_seeds_differ(self, db, jacobi_params):
        timing = timing_from_db(db, mode="distribution")
        a = predict(parse_jacobi(), 4, timing, runs=8, seed=5,
                    params=jacobi_params)
        b = predict(parse_jacobi(), 4, timing, runs=8, seed=6,
                    params=jacobi_params)
        assert a.times != b.times

    def test_runs_differ_within_batch(self, db, jacobi_params):
        timing = timing_from_db(db, mode="distribution")
        pred = predict(parse_jacobi(), 4, timing, runs=8, seed=0,
                       params=jacobi_params)
        assert len(set(pred.times)) > 1


class TestExactParityDeterministicTiming:
    """Under a deterministic, contention-free timing model the draws do
    not depend on the order they are made in, and the batched engine
    chains NIC occupancy in each run's own order, so the two engines
    must agree bit-for-bit -- NIC serialisation included."""

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
    """Under sampled timing the batched engine draws from its own seed
    streams (one block per phase, planned in batch-mean order), so it
    matches the per-run engine in distribution rather than run for run:
    the means agree within 1%."""

    @staticmethod
    def _mean_gap(db, params, nprocs, ppn, seed, runs=64):
        timing = timing_from_db(db, mode="distribution")
        batched = predict(parse_jacobi(), nprocs, timing, runs=runs, seed=seed,
                          params=params, ppn=ppn)
        program = _jacobi_program(params)
        per_run = np.mean([
            VirtualMachine(nprocs, timing, seed=s, ppn=ppn).run(program).elapsed
            for s in run_seeds(np.random.SeedSequence(seed), runs)
        ])
        return abs(batched.mean_time - per_run) / per_run

    def test_mean_within_one_percent(self, db, jacobi_params):
        assert self._mean_gap(db, jacobi_params, 8, ppn=1, seed=1) < 0.01

    def test_multinode_ppn_parity(self, db, jacobi_params):
        assert self._mean_gap(db, jacobi_params, 16, ppn=2, seed=2) < 0.01


class RunIndexedTiming(TimingModel):
    """Contention-free times that depend only on (op, size, intra, run
    index): both engines see the same values whatever their draw order.
    *run* fixes the run for the per-run engine; the batched engine's run
    *j* is its block's column *j*."""

    name = "run-indexed"

    def __init__(self, run: int = 0):
        self.run = run

    @staticmethod
    def value(op, size, intra, run):
        h = (size * 2654435761 + run * 40503 + (op == LOCAL_OP) * 97 + intra * 13) % 1009
        return (1e-6 if intra else 1e-5) * (1.0 + size / 1024.0) * (0.5 + h / 1009.0)

    def one_way_time(self, size, contention, rng, intra=False):
        return self.value(ONEWAY_OP, size, intra, self.run)

    def local_send_time(self, size, contention, rng, intra=False):
        return self.value(LOCAL_OP, size, intra, self.run)

    def draw_block(self, specs, rng, n):
        return np.array([[self.value(op, size, intra, j) for j in range(n)]
                         for op, size, _, intra in specs])

    def serialisation_gap(self, size, intra=False):
        return size * 8e-9


def fan_out(ctx):
    """Rank 0 sends 4 KiB to ranks 1..n-2, which first send 256*rank B to
    the sink n-1 and then receive from rank 0 -- so they block, and
    share rank 0's NIC, in a run-dependent order."""
    n, me = ctx.numprocs, ctx.procnum
    if me == 0:
        for dst in range(1, n - 1):
            yield ctx.send(dst, 4096)
    elif me == n - 1:
        for src in range(1, n - 1):
            yield ctx.recv(src)
    else:
        yield ctx.send(n - 1, 256 * me)
        yield ctx.recv(0)


@st.composite
def hub_programs(draw):
    """Random deadlock-free programs (a global order of messages and
    compute bursts, each process running its slice in order) whose
    messages mostly leave from one or two hub processes, so NIC pipes
    are shared within match phases."""
    nprocs = draw(st.integers(3, 9))
    hubs = draw(st.lists(st.integers(0, nprocs - 1), min_size=1, max_size=2, unique=True))
    events = []
    for _ in range(draw(st.integers(3, 30))):
        if draw(st.integers(0, 4)) == 0:
            events.append(("serial", draw(st.integers(0, nprocs - 1)),
                           draw(st.integers(1, 50)) * 1e-6))
            continue
        src = draw(st.sampled_from(hubs) | st.integers(0, nprocs - 1))
        dst = draw(st.integers(0, nprocs - 1).filter(lambda d: d != src))
        events.append(("msg", src, dst, draw(st.sampled_from([64, 1024, 4096, 6000]))))

    def program(ctx):
        for kind, a, b, *size in events:
            if kind == "serial":
                if a == ctx.procnum:
                    yield ctx.serial(b)
            elif a == ctx.procnum:
                yield ctx.send(b, size[0])
            elif b == ctx.procnum:
                yield ctx.recv(a)

    return program, nprocs


def _assert_runs_equal_per_run_engine(program, nprocs, runs, nic, ppn):
    batch = BatchedVirtualMachine(
        nprocs, RunIndexedTiming(), runs=runs, nic_serialisation=nic, ppn=ppn,
    ).run(compile_program(program, nprocs))
    for j, got in enumerate(batch):
        ref = VirtualMachine(
            nprocs, RunIndexedTiming(j), nic_serialisation=nic, ppn=ppn
        ).run(program)
        assert got.elapsed == ref.elapsed
        assert got.finish_times == ref.finish_times
        assert got.send_time == ref.send_time
        assert got.recv_wait_time == ref.recv_wait_time


class TestPerRunNicOrder:
    """Messages sharing a NIC pipe within one match phase are chained in
    each run's own (block time, procnum) order, as the per-run engine's
    ``arrival_of`` chains them -- not in the batch-mean order."""

    @pytest.mark.parametrize("nic", ["tx", "txrx"])
    @pytest.mark.parametrize("ppn", [1, 2])
    @pytest.mark.parametrize("nprocs", [4, 6])
    def test_batched_run_equals_per_run_engine(self, nprocs, ppn, nic):
        _assert_runs_equal_per_run_engine(fan_out, nprocs, 32, nic, ppn)

    @settings(max_examples=100, deadline=None)
    @given(hub_programs(), st.sampled_from([1, 2, 3]),
           st.sampled_from(["off", "tx", "txrx"]))
    def test_random_shared_pipes(self, spec, ppn, nic):
        program, nprocs = spec
        _assert_runs_equal_per_run_engine(program, nprocs, 8, nic, ppn)


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
            predict(bad, 2, timing, runs=4)

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
        kw = dict(timing=timing, seed=as_seed_sequence(3), runs=6, vector_batch=4)
        evaluate_groups([
            RunGroup(model=parse_jacobi(), nprocs=8, params=jacobi_params, **kw),
            RunGroup(model=taskfarm_model(self.TASKS), nprocs=4, **kw),
        ], workers=1)
        assert issued == [("batch", 8, 0, 4), ("batch", 8, 4, 2)] + [("run", 4)] * 6

    def test_vector_lane_equals_per_run_engine(self, db):
        timing = timing_from_db(db, mode="distribution")
        program = taskfarm_model(self.TASKS)
        pred = predict(program, 4, timing, runs=8, seed=7)
        per_run = [
            VirtualMachine(4, timing, seed=s).run(program).elapsed
            for s in run_seeds(np.random.SeedSequence(7), 8)
        ]
        assert pred.times == per_run


class TestCacheComposition:
    def test_batch_round_trip(self, db, jacobi_params, tmp_path):
        timing = timing_from_db(db, mode="distribution")
        kw = dict(runs=4, seed=1, params=jacobi_params, cache_dir=tmp_path)
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
        kw = dict(runs=6, seed=1, params=params)
        traced = predict(program, 4, timing, trace_last=True, **kw)
        assert traced.times == predict(program, 4, timing, **kw).times
        assert traced.loss_report() is not None
        assert all(r.trace is None for r in traced.results[:-1])

    @pytest.mark.parametrize("nic", ["off", "tx", "txrx"])
    def test_batched_trace_equals_per_run_trace(self, jacobi_params, nic):
        timing = HockneyTiming(latency=1e-4, bandwidth=1e7)
        per_run = VirtualMachine(
            8, timing, seed=0, trace=True, ppn=2, nic_serialisation=nic
        ).run(_jacobi_program(jacobi_params))
        batch = BatchedVirtualMachine(
            8, timing, seed=0, runs=3, trace=True, ppn=2, nic_serialisation=nic
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
            seed=as_seed_sequence(2), runs=8, profile=True,
        )
        outcomes = evaluate_groups([group], workers=1)[0]
        phases = merge_phases(outcomes)
        assert set(phases) <= {"sweep", "match", "sample"}
        assert 0.0 < sum(phases.values()) <= sum(o.wall for o in outcomes)
