"""Tests for static-schedule compilation (:mod:`repro.pevpm.compile`).

The schedule's contract: it holds exactly the ops the generator
interpreter yields, so the batched engine running it matches the per-run
engine running the generator bit for bit under deterministic timing,
across NIC serialisation modes.  Structurally timing-dependent programs
(wildcard receives with racing senders) are detected at compile time and
run per-run on the interpreter unchanged.
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
    VirtualMachine,
    clear_compile_cache,
    compile_model,
    compile_program,
    compiled_program_for,
    model_messages,
    predict,
    run_seeds,
    timing_from_db,
)
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
            compiled.plan(1, "tx")
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
        plan = compiled.plan(2, "tx")
        sweep, _ = plan.rounds[0]
        assert sweep.intra.tolist() == [True, False]
        # ppn=1 separates everything; and plans are cached per shape.
        assert not compiled.plan(1, "tx").rounds[0][0].intra.any()
        assert compiled.plan(2, "tx") is plan
        assert compiled.plan(2, "txrx") is not plan

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
    """The batched engine on the schedule must reproduce the per-run
    interpreter bit-for-bit under deterministic timing."""

    @pytest.mark.parametrize("nic", NIC_MODES)
    @pytest.mark.parametrize("nprocs", [8, 16])
    def test_jacobi_deterministic_all_nic_modes(self, nic, nprocs):
        timing = HockneyTiming(1e-5, 1e-9)
        params = jacobi_params()
        program = compile_model(parse_jacobi(), params)
        compiled = compile_program(parse_jacobi(), nprocs, params)
        ref = VirtualMachine(nprocs, timing, seed=5, nic_serialisation=nic).run(program)
        batch = BatchedVirtualMachine(
            nprocs, timing, seed=5, runs=4, nic_serialisation=nic
        ).run(compiled)
        assert [r.elapsed for r in batch] == [ref.elapsed] * 4

    @pytest.mark.parametrize("nprocs", [4, 8])
    def test_fft_deterministic(self, nprocs):
        timing = HockneyTiming(1e-5, 1e-9)
        ref = VirtualMachine(nprocs, timing, seed=2).run(fft_model(256))
        compiled = compile_program(fft_model(256), nprocs)
        batch = BatchedVirtualMachine(nprocs, timing, seed=2, runs=4).run(compiled)
        assert [r.elapsed for r in batch] == [ref.elapsed] * 4

    def test_divergent_taskfarm_falls_back_identically(self, db):
        timing = timing_from_db(db, mode="distribution", nprocs=4)
        program = taskfarm_model(TASKS)
        per_run = [
            VirtualMachine(4, timing, seed=s).run(program).elapsed
            for s in run_seeds(np.random.SeedSequence(9), 8)
        ]
        pred = predict(program, 4, timing, runs=8, seed=9)
        assert pred.times == per_run

    def test_batched_vm_refuses_divergent_program(self, db):
        timing = timing_from_db(db, mode="distribution", nprocs=4)
        compiled = compile_program(taskfarm_model(TASKS), 4)
        bvm = BatchedVirtualMachine(4, timing, seed=3, runs=16)
        with pytest.raises(ValueError, match="proc 0, op 0"):
            bvm.run(compiled)
        with pytest.raises(TypeError):
            bvm.run(taskfarm_model(TASKS))
