"""Tests for static-schedule compilation (:mod:`repro.pevpm.compile`).

The compiled executor's contract: bit-identical to the generator
interpreter -- under deterministic *and* distribution timing, on the
scalar and the batched engine, across NIC serialisation modes -- because
it replaces only the source of ops, never the runtime match phase or the
RNG draw order.  Structurally timing-dependent programs (wildcard
receives with racing senders) are detected at compile time and fall back
to the interpreter unchanged.
"""

import numpy as np
import pytest

from repro.apps.fft import fft_model
from repro.apps.jacobi import parse_jacobi
from repro.apps.taskfarm import taskfarm_model
from repro.mpibench import BenchSettings, MPIBench
from repro.pevpm import (
    ANY_SOURCE,
    BatchedVirtualMachine,
    CompiledProgram,
    HockneyTiming,
    ModelDeadlock,
    RunGroup,
    VirtualMachine,
    clear_compile_cache,
    compile_program,
    compiled_program_for,
    model_messages,
    predict,
    timing_from_db,
)
from repro.pevpm.predict import prediction_key
from repro.simnet import perseus

SPEC = perseus(16)
ITER = 12
TASKS = [5e-4, 2e-4, 8e-4, 1e-4, 6e-4, 3e-4, 9e-4, 4e-4]

NIC_MODES = ("off", "tx", "txrx")


@pytest.fixture(scope="module")
def db():
    bench = MPIBench(SPEC, seed=3, settings=BenchSettings(reps=30, warmup=3))
    return bench.sweep_isend(
        [(1, 2), (2, 1), (8, 1), (16, 1)], sizes=[0, 512, 1024, 2048]
    )


def jacobi_params(iterations=ITER):
    return {
        "iterations": iterations,
        "xsize": 256,
        "serial_time": SPEC.jacobi_serial_time,
    }


class TestCompileStructure:
    def test_jacobi_compiles_static(self):
        model = parse_jacobi()
        compiled = compile_program(model, 8, jacobi_params())
        assert isinstance(compiled, CompiledProgram)
        assert not compiled.divergent
        assert compiled.nprocs == 8
        assert compiled.n_ops > 0
        # The static schedule's message count is the interpreter's.
        assert compiled.messages == model_messages(model, 8, jacobi_params())

    def test_fft_compiles_static(self):
        compiled = compile_program(fft_model(256), 4)
        assert not compiled.divergent
        # P-1 pairwise exchanges per rank.
        assert compiled.messages == 4 * 3

    def test_taskfarm_is_divergent(self):
        compiled = compile_program(taskfarm_model(TASKS), 4)
        assert compiled.divergent
        assert compiled.ops is None
        # Rank 0's wildcard receive is the decision point.
        procnum, op_index, rnd = compiled.divergence
        assert procnum == 0
        assert rnd >= 1
        assert callable(compiled.fallback)
        with pytest.raises(ValueError):
            compiled.schedule(1)
        assert compiled.messages == 0 and compiled.n_ops == 0

    def test_single_candidate_wildcard_is_static(self):
        # A wildcard receive with exactly one possible sender at its
        # match phase is structural: no race, no divergence.
        def program(ctx):
            if ctx.procnum == 0:
                info = yield ctx.recv(ANY_SOURCE, label="any")
                yield ctx.serial(info.size * 1e-9, label="react")
            else:
                yield ctx.send(0, 128, label="only-sender")

        compiled = compile_program(program, 2)
        assert not compiled.divergent
        assert compiled.messages == 1

    def test_deadlock_detected_at_compile_time(self):
        def program(ctx):
            if ctx.procnum == 0:
                yield ctx.recv(1, label="never-comes")
            else:
                yield ctx.recv(0, label="never-comes-either")

        with pytest.raises(ModelDeadlock):
            compile_program(program, 2)

    def test_deadlock_names_rank_and_op_index(self):
        """The diagnostic must name each stuck rank AND the directive
        (op) index it is parked on -- 'proc 0 is stuck' alone is not
        actionable in a thousand-op compiled schedule."""

        def program(ctx):
            if ctx.procnum == 0:
                yield ctx.serial(1e-6, label="warmup")
                yield ctx.recv(1, label="never-comes")
            else:
                yield ctx.recv(0, label="never-comes-either")

        with pytest.raises(ModelDeadlock) as err:
            compile_program(program, 2)
        exc = err.value
        assert exc.sites == {0: 1, 1: 0}
        message = str(exc)
        assert "proc 0 waiting on proc 1 at op 1" in message
        assert "proc 1 waiting on proc 0 at op 0" in message

    def test_schedule_precomputes_intra_flags(self):
        def program(ctx):
            if ctx.procnum == 0:
                yield ctx.send(1, 64, label="near")  # same node at ppn=2
                yield ctx.send(2, 64, label="far")   # other node at ppn=2
            elif ctx.procnum == 1:
                yield ctx.recv(0, label="a")
            elif ctx.procnum == 2:
                yield ctx.recv(0, label="b")

        compiled = compile_program(program, 3)
        sched = compiled.schedule(2)
        sends = [op for op in sched[0] if op[0] == "send"]
        assert [op[5] for op in sends] == [True, False]
        # ppn=1 separates everything; and schedules are cached per ppn.
        assert all(not op[5] for op in compiled.schedule(1)[0] if op[0] == "send")
        assert compiled.schedule(2) is sched

    def test_compile_cache_hits_for_picklable_models(self):
        clear_compile_cache()
        model = parse_jacobi()
        first = compiled_program_for(model, 8, jacobi_params())
        again = compiled_program_for(model, 8, jacobi_params())
        assert again is first
        other = compiled_program_for(model, 16, jacobi_params())
        assert other is not first

    def test_vm_rejects_mismatched_nprocs(self):
        compiled = compile_program(parse_jacobi(), 8, jacobi_params())
        vm = VirtualMachine(4, HockneyTiming(1e-5, 1e-9), seed=1,
                            params=jacobi_params())
        with pytest.raises(ValueError):
            vm.run(compiled)


class TestCompiledParity:
    """compiled=True must reproduce compiled=False bit-for-bit."""

    @pytest.mark.parametrize("nic", NIC_MODES)
    @pytest.mark.parametrize("nprocs", [8, 16])
    def test_jacobi_deterministic_all_nic_modes(self, nic, nprocs):
        timing = HockneyTiming(1e-5, 1e-9)
        kw = dict(runs=4, seed=5, params=jacobi_params(),
                  nic_serialisation=nic)
        for vector in (False, True):
            a = predict(parse_jacobi(), nprocs, timing,
                        vector_runs=vector, compiled=True, **kw)
            b = predict(parse_jacobi(), nprocs, timing,
                        vector_runs=vector, compiled=False, **kw)
            assert a.times == b.times

    @pytest.mark.parametrize("nprocs", [4, 8])
    def test_fft_deterministic(self, nprocs):
        timing = HockneyTiming(1e-5, 1e-9)
        a = predict(fft_model(256), nprocs, timing, runs=4, seed=2,
                    compiled=True)
        b = predict(fft_model(256), nprocs, timing, runs=4, seed=2,
                    compiled=False)
        assert a.times == b.times

    @pytest.mark.parametrize("nic", NIC_MODES)
    def test_jacobi_distribution_same_rng_order(self, db, nic):
        # Stronger than the statistical-equivalence requirement: the
        # compiled path shares the runtime match phase and draw sites,
        # so even sampled timing is bit-identical.
        timing = timing_from_db(db, mode="distribution", nprocs=8)
        kw = dict(runs=6, seed=11, params=jacobi_params(),
                  nic_serialisation=nic)
        for vector in (False, True):
            a = predict(parse_jacobi(), 8, timing,
                        vector_runs=vector, compiled=True, **kw)
            b = predict(parse_jacobi(), 8, timing,
                        vector_runs=vector, compiled=False, **kw)
            assert a.times == b.times

    def test_divergent_taskfarm_falls_back_identically(self, db):
        timing = timing_from_db(db, mode="distribution", nprocs=4)
        kw = dict(runs=8, seed=9)
        a = predict(taskfarm_model(TASKS), 4, timing, compiled=True, **kw)
        b = predict(taskfarm_model(TASKS), 4, timing, compiled=False, **kw)
        assert a.times == b.times
        # ... and the batched engine's sub-batch splitting still fires.
        va = predict(taskfarm_model(TASKS), 4, timing, vector_runs=True,
                     compiled=True, **kw)
        vb = predict(taskfarm_model(TASKS), 4, timing, vector_runs=True,
                     compiled=False, **kw)
        assert va.times == vb.times

    def test_batched_vm_accepts_compiled_and_splits(self, db):
        timing = timing_from_db(db, mode="distribution", nprocs=4)
        compiled = compile_program(taskfarm_model(TASKS), 4)
        bvm = BatchedVirtualMachine(
            4, timing, seed=3, runs=16,
        )
        results = bvm.run(compiled)  # divergent -> generator fallback
        assert bvm.splits > 0
        assert len(results) == 16
        assert all(r.elapsed > 0 for r in results)


class TestCacheKeying:
    def test_compiled_flag_is_part_of_the_cache_key(self):
        kw = dict(
            model=parse_jacobi(), params=jacobi_params(), nprocs=8,
            timing=HockneyTiming(1e-5, 1e-9), seed=np.random.SeedSequence(1),
            runs=4,
        )
        assert prediction_key(RunGroup(compiled=True, **kw)) != prediction_key(
            RunGroup(compiled=False, **kw)
        )

    def test_cached_predictions_respect_the_flag(self, tmp_path):
        timing = HockneyTiming(1e-5, 1e-9)
        kw = dict(runs=3, seed=4, params=jacobi_params(),
                  cache_dir=tmp_path)
        first = predict(parse_jacobi(), 8, timing, compiled=True, **kw)
        assert not first.cached
        hit = predict(parse_jacobi(), 8, timing, compiled=True, **kw)
        assert hit.cached and hit.times == first.times
        # The interpreted evaluation is a distinct entry -- a miss --
        # yet produces the same bits.
        other = predict(parse_jacobi(), 8, timing, compiled=False, **kw)
        assert not other.cached
        assert other.times == first.times
