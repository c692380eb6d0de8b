"""Property-based engine parity for collective directives and the
collectives-era workloads.

Random directive models mixing serial bursts and the four collective
directives (bcast / reduce / allreduce / allgather, with random sizes
and roots), plus random halo-stencil configurations, are evaluated on
the per-run virtual machine through the generator interpreter and on
the batched virtual machine through the compiled static schedules.  The
lowered collectives are straight-line point-to-point code (sends are
non-blocking; only receives are decision points), so every config must
compile non-divergent and a one-run batch must match the per-run
interpreter bit-for-bit, under deterministic Hockney timing *and* under
measured distribution timing.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import amg_model, halo_model
from repro.mpibench import BenchSettings, MPIBench
from repro.pevpm import (
    BatchedVirtualMachine,
    Block,
    Collective,
    HockneyTiming,
    Loop,
    Serial,
    VirtualMachine,
    compile_model,
    compile_program,
    timing_from_db,
)
from repro.simnet import perseus

OPS = ["bcast", "reduce", "allreduce", "allgather"]


@pytest.fixture(scope="module")
def db():
    bench = MPIBench(
        perseus(16), seed=3, settings=BenchSettings(reps=30, warmup=3)
    )
    return bench.sweep_isend(
        [(1, 2), (2, 1), (8, 1), (16, 1)], sizes=[0, 512, 1024, 2048]
    )


@st.composite
def collective_models(draw):
    """(Block, nprocs): 1..5 serial/collective directives, maybe looped."""
    nprocs = draw(st.integers(min_value=1, max_value=6))
    body = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        if draw(st.booleans()):
            micros = draw(st.integers(min_value=1, max_value=40))
            body.append(Serial(repr(micros * 1e-6)))
        else:
            op = draw(st.sampled_from(OPS))
            size = draw(st.sampled_from([0, 8, 512, 4096]))
            root = draw(st.integers(min_value=0, max_value=nprocs - 1))
            body.append(Collective(op, str(size), root=str(root)))
    block = Block(body)
    if draw(st.booleans()):
        block = Block([Loop(str(draw(st.integers(1, 3))), block)])
    return block, nprocs


@st.composite
def halo_configs(draw):
    """(Block, nprocs) for a random (valid) halo stencil."""
    dims = draw(st.integers(min_value=1, max_value=3))
    px = draw(st.sampled_from([1, 2]))
    nprocs = draw(st.sampled_from([2, 4, 6]))
    try:
        model = halo_model(
            iterations=draw(st.integers(min_value=1, max_value=3)),
            nx=draw(st.sampled_from([4, 8, 16])),
            halo=draw(st.integers(min_value=1, max_value=2)),
            dims=dims,
            px=px,
            reduce_every=draw(st.sampled_from([0, 1, 2])),
        )
    except ValueError:
        model = None
    return model, nprocs, px


def _one_draw_per_call(timing):
    """*timing* with the scalar path's per-key draw buffers cut to one
    draw, so the scalar engine consumes the RNG stream exactly as a
    one-run batch does (the buffers are the only difference between the
    engines' draws of one run)."""
    unbuffered = copy.copy(timing)
    unbuffered.BATCH = unbuffered.BATCH_MAX = 1
    return unbuffered


def assert_engine_parity(model, nprocs, timing, seed):
    program = compile_model(model)
    compiled = compile_program(model, nprocs)
    # Straight-line lowerings: fixed-source receives only, so the
    # compiler can never mark the program divergent.
    assert not compiled.divergent
    ref = VirtualMachine(nprocs, _one_draw_per_call(timing), seed=seed).run(program)
    (vb,) = BatchedVirtualMachine(nprocs, timing, seed=seed, runs=1).run(compiled)
    assert vb.elapsed == ref.elapsed
    assert vb.finish_times == ref.finish_times
    assert vb.messages == ref.messages


@settings(max_examples=25, deadline=None)
@given(collective_models(), st.integers(min_value=0, max_value=2**31 - 1))
def test_collective_hockney_parity(spec, seed):
    model, nprocs = spec
    timing = HockneyTiming(1e-5, 1e8)
    assert_engine_parity(model, nprocs, timing, seed)


@settings(max_examples=15, deadline=None)
@given(collective_models(), st.integers(min_value=0, max_value=2**31 - 1))
def test_collective_distribution_parity(db, spec, seed):
    model, nprocs = spec
    timing = timing_from_db(db, mode="distribution", nprocs=max(nprocs, 2))
    assert_engine_parity(model, nprocs, timing, seed)


@settings(max_examples=15, deadline=None)
@given(halo_configs(), st.integers(min_value=0, max_value=2**31 - 1))
def test_halo_distribution_parity(db, spec, seed):
    model, nprocs, px = spec
    if model is None or nprocs % px:
        return  # invalid (dims, px, nprocs) draw
    timing = timing_from_db(db, mode="distribution", nprocs=nprocs)
    try:
        assert_engine_parity(model, nprocs, timing, seed)
    except ValueError:
        return  # decomposition rejected at trace time for this nprocs


@settings(max_examples=8, deadline=None)
@given(
    st.sampled_from([2, 4]),
    st.sampled_from([8, 16]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_amg_distribution_parity(db, nprocs, nx, seed):
    model = amg_model(iterations=1, nx=nx, coarse_nx=4)
    timing = timing_from_db(db, mode="distribution", nprocs=nprocs)
    assert_engine_parity(model, nprocs, timing, seed)
