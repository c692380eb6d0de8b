"""Tests for the example applications: correctness of the executable
versions and predicted-vs-measured agreement of their PEVPM models."""

import numpy as np
import pytest

from repro.apps.fft import (
    distribute_input,
    fft_local_work,
    fft_model,
    fft_serial_time,
    fft_smpi,
    gather_output,
)
from repro.apps.jacobi import jacobi_smpi
from repro.apps.taskfarm import (
    make_tasks,
    taskfarm_model,
    taskfarm_serial_time,
    taskfarm_smpi,
)
from repro.mpibench import BenchSettings, MPIBench
from repro.pevpm import predict, timing_from_db
from repro.simnet import ideal_cluster, perseus
from repro.smpi import run_program

SPEC = perseus(16)


@pytest.fixture(scope="module")
def db():
    bench = MPIBench(SPEC, seed=3, settings=BenchSettings(reps=30, warmup=3))
    return bench.sweep_isend([(2, 1), (8, 1), (16, 1)], sizes=[0, 512, 1024, 2048])


class TestJacobiSmpi:
    def test_runs_on_one_process(self):
        r = run_program(SPEC, jacobi_smpi, nprocs=1, seed=0, args=(10,))
        assert r.elapsed == pytest.approx(10 * SPEC.jacobi_serial_time, rel=0.01)

    def test_parallel_speedup_below_ideal(self):
        serial = run_program(SPEC, jacobi_smpi, nprocs=1, seed=0, args=(30,)).elapsed
        par = run_program(SPEC, jacobi_smpi, nprocs=8, seed=0, args=(30,)).elapsed
        speedup = serial / par
        assert 1.0 < speedup < 8.0

    def test_odd_process_count_works(self):
        r = run_program(SPEC, jacobi_smpi, nprocs=5, seed=0, args=(10,))
        assert r.elapsed > 0


class TestFft:
    @pytest.mark.parametrize("nprocs,n", [(2, 64), (4, 256), (8, 1024)])
    def test_matches_numpy(self, nprocs, n):
        rng = np.random.default_rng(7)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        chunks = distribute_input(x, nprocs)

        def prog(comm):
            out, _t = yield from fft_smpi(comm, chunks[comm.rank], n)
            return out

        r = run_program(ideal_cluster(8), prog, nprocs=nprocs)
        X = gather_output(r.returns)
        assert np.allclose(X, np.fft.fft(x))

    def test_input_validation(self):
        def prog(comm):
            with pytest.raises(ValueError):
                yield from fft_smpi(comm, np.zeros(3), 12)  # not a power of 2
            return True

        r = run_program(ideal_cluster(4), prog, nprocs=2)
        assert r.returns == [True, True]

    def test_local_work_model(self):
        assert fft_local_work(1024, 1024) == pytest.approx(
            60e-9 * 1024 * 10
        )
        assert fft_serial_time(1 << 16) > fft_serial_time(1 << 12)
        with pytest.raises(ValueError):
            fft_local_work(0, 8)

    def test_model_prediction_close_to_measured(self, db):
        n = 4096
        nprocs = 8
        rng = np.random.default_rng(1)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        chunks = distribute_input(x, nprocs)

        def prog(comm):
            _out, t = yield from fft_smpi(comm, chunks[comm.rank], n)
            return t

        measured = run_program(SPEC, prog, nprocs=nprocs, seed=42).elapsed
        pred = predict(
            fft_model(n), nprocs, timing_from_db(db, "distribution"),
            runs=4, seed=2,
        )
        err = abs(pred.mean_time - measured) / measured
        assert err < 0.2, f"FFT prediction off by {err * 100:.0f}%"

    def test_model_message_structure(self):
        from repro.pevpm.machine import ProcContext

        program = fft_model(1024)
        ops = list(program(ProcContext(0, 4)))
        sends = [op for op in ops if op[0] == "send"]
        recvs = [op for op in ops if op[0] == "recv"]
        serials = [op for op in ops if op[0] == "serial"]
        assert len(sends) == len(recvs) == 3  # P-1 exchange rounds
        assert len(serials) == 3  # step1, twiddle, step4


class TestTaskfarm:
    def test_all_tasks_done_exactly_once(self):
        tasks = make_tasks(40, seed=2)
        r = run_program(SPEC, taskfarm_smpi, nprocs=5, seed=1, args=(tasks,))
        handed, _ = r.returns[0]
        done = sum(d for d, _t in r.returns[1:])
        assert handed == done == 40

    def test_parallel_beats_one_worker(self):
        tasks = make_tasks(60, seed=3)
        t2 = run_program(SPEC, taskfarm_smpi, nprocs=2, seed=1, args=(tasks,)).elapsed
        t8 = run_program(SPEC, taskfarm_smpi, nprocs=8, seed=1, args=(tasks,)).elapsed
        assert t8 < t2

    def test_needs_two_ranks(self):
        with pytest.raises(ValueError):
            run_program(SPEC, taskfarm_smpi, nprocs=1, args=(make_tasks(3),))

    def test_make_tasks_properties(self):
        tasks = make_tasks(500, mean=4e-3, cv=0.5, seed=9)
        assert len(tasks) == 500
        assert np.mean(tasks) == pytest.approx(4e-3, rel=0.15)
        assert all(t > 0 for t in tasks)
        assert make_tasks(10, seed=1) == make_tasks(10, seed=1)
        with pytest.raises(ValueError):
            make_tasks(0)
        with pytest.raises(ValueError):
            make_tasks(5, mean=-1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_make_tasks_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            make_tasks(5, mean=bad)
        with pytest.raises(ValueError, match="finite"):
            make_tasks(5, cv=bad)

    def test_model_prediction_close_to_measured(self, db):
        tasks = make_tasks(80, seed=5)
        measured = run_program(
            SPEC, taskfarm_smpi, nprocs=8, seed=1, args=(tasks,)
        ).elapsed
        pred = predict(
            taskfarm_model(tasks), 8, timing_from_db(db, "distribution"),
            runs=4, seed=2,
        )
        err = abs(pred.mean_time - measured) / measured
        assert err < 0.15, f"task farm prediction off by {err * 100:.0f}%"

    def test_model_makespan_dominated_by_bag(self, db):
        """With many workers the makespan approaches the critical task."""
        tasks = make_tasks(10, seed=6)
        pred = predict(
            taskfarm_model(tasks), 12, timing_from_db(db, "distribution"),
            runs=3, seed=1,
        )
        assert pred.mean_time >= max(tasks)
        assert pred.mean_time < taskfarm_serial_time(tasks)
