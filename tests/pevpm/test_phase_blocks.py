"""Phase-block draws of the batched engine, and the scalar draws of the
per-run engine.

The batched VM draws runs of plan-order phases as one window, one call
of the sampler ``TimingModel.bind`` returns (see
:mod:`repro.pevpm.vector`).  These tests pin the things that make that
bit-identical to one draw per decision:

* ``draw_block`` rows, and the bound sampler's rows for random DBs and
  draws, equal successive ``one_way_times`` / ``local_send_times``
  calls on an identically seeded generator, and leave the generator in
  the same state;
* a window draws the rows its phases draw one at a time, in the same
  order, and leaves the generator in the same state;
* the engine asks for the same ``(kind, size, contention, intra)``
  sequence it asked for one draw at a time -- pinned as literals
  recorded from the one-draw-per-decision engine, because an off-by-one
  contention often resolves to the same benchmark config and the
  goldens' times would not notice.

The per-run engine's ``DistributionTiming`` buffers a key's first 64
uniforms and inverts each one when it is used, then inverts the key's
refills whole: the scalar inversion equals the table's vectorised one
bit for bit, and the buffers advance the generator as
``rng.random(64)``, ``rng.random(128)``, ... do.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import amg_model, jacobi_model, make_tasks, parse_jacobi, taskfarm_model
from repro.mpibench import BenchmarkResult, DistributionDB, Histogram
from repro.mpibench.results import _SampleTable
from repro.pevpm import (
    BatchedVirtualMachine,
    DistributionTiming,
    HockneyTiming,
    ParametricTiming,
    TimingModel,
    VirtualMachine,
    compile_program,
)
from repro.pevpm import vector
from repro.pevpm.interpreter import compile_model
from repro.pevpm.timing import LOCAL_OP, ONEWAY_OP

# -- draw_block == one batch draw per spec ----------------------------------------

#: the degenerate cell's constant (every sample identical)
CONST = 7.000000000000001e-05


def _db(keep_samples: bool = True) -> DistributionDB:
    """Inter configs 2x1 and 32x1, intra config 1x2; sizes 0, 512, 1024,
    4096.  Size 0 on 2x1 is degenerate."""
    rng = np.random.default_rng(0)
    db = DistributionDB(cluster="synthetic")
    for op, scale in [(ONEWAY_OP, 1.0), (LOCAL_OP, 0.2)]:
        for nodes, ppn, base in [(2, 1, 100e-6), (32, 1, 300e-6), (1, 2, 20e-6)]:
            hists = {}
            for size in (0, 512, 1024, 4096):
                if (nodes, size) == (2, 0):
                    samples = [CONST * scale] * 50
                else:
                    samples = base * scale * (1 + size / 2048) + rng.gamma(
                        4.0, base * scale / 40, size=200
                    )
                hists[size] = Histogram.from_samples(
                    samples, bins=30, keep_samples=keep_samples
                )
            db.add(BenchmarkResult(op=op, nodes=nodes, ppn=ppn,
                                   cluster="synthetic", histograms=hists))
    return db


DB = _db()
BINNED_DB = _db(keep_samples=False)

CASES = {
    "exact-size": (DistributionTiming(DB), [
        (ONEWAY_OP, 1024, 2, False), (ONEWAY_OP, 1024, 40, False),
        (LOCAL_OP, 1024, 2, False), (ONEWAY_OP, 1024, 3, False),
    ]),
    "interpolated-768": (DistributionTiming(DB), [
        (ONEWAY_OP, 768, 2, False), (LOCAL_OP, 768, 40, False),
        (ONEWAY_OP, 768, 2, False),
    ]),
    "intra-node": (DistributionTiming(DB), [
        (ONEWAY_OP, 1024, 4, True), (LOCAL_OP, 768, 0, True),
        (ONEWAY_OP, 1024, 9, False),
    ]),
    "binned-no-samples": (DistributionTiming(BINNED_DB), [
        (ONEWAY_OP, 1024, 2, False), (ONEWAY_OP, 768, 40, False),
        (LOCAL_OP, 512, 1, True),
    ]),
    "degenerate": (DistributionTiming(DB), [
        (ONEWAY_OP, 0, 2, False), (LOCAL_OP, 0, 1, False),
        (ONEWAY_OP, 512, 2, False),
    ]),
    "fixed-contention-2": (DistributionTiming(DB, fixed_contention=2), [
        (ONEWAY_OP, 1024, 40, False), (LOCAL_OP, 768, 7, False),
        (ONEWAY_OP, 0, 33, False),
    ]),
    "parametric-default": (ParametricTiming(DB), [
        (ONEWAY_OP, 1024, 2, False), (LOCAL_OP, 768, 40, True),
    ]),
    "hockney-default": (HockneyTiming(1e-5, 1e8), [
        (ONEWAY_OP, 1024, 2, False), (LOCAL_OP, 0, 40, True),
    ]),
}
CASES["mixed"] = (DistributionTiming(DB), [
    spec for name in ("exact-size", "interpolated-768", "intra-node", "degenerate")
    for spec in CASES[name][1]
])


def _per_op(timing, specs, rng, n):
    rows = []
    for op, size, contention, intra in specs:
        draw = timing.one_way_times if op == ONEWAY_OP else timing.local_send_times
        rows.append(draw(size, contention, rng, n, intra=intra))
    return np.array(rows)


@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize("case", sorted(CASES))
def test_draw_block_equals_per_op_draws(case, n):
    timing, specs = CASES[case]
    block_rng = np.random.default_rng(2024)
    per_op_rng = np.random.default_rng(2024)
    block = timing.draw_block(specs, block_rng, n)
    expected = _per_op(timing, specs, per_op_rng, n)
    assert block.shape == (len(specs), n)
    assert block.dtype == np.float64
    assert block.tobytes() == expected.tobytes()  # bit for bit
    assert block_rng.bit_generator.state == per_op_rng.bit_generator.state


@st.composite
def sampling_cases(draw):
    """A random DB -- retained, binned and degenerate histograms, intra
    and inter configs, sometimes a ring pattern -- a DistributionTiming
    over it, the kinds of a plan and up to three phases of draws."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ring = draw(st.booleans())
    configs = draw(st.lists(
        st.sampled_from([(1, 2), (2, 1), (8, 1), (32, 1)]), min_size=1,
        max_size=4, unique=True,
    ))
    sizes = sorted(draw(st.lists(
        st.sampled_from([0, 256, 1024, 4096]), min_size=1, max_size=4, unique=True,
    )))
    # Any binned histogram sends every phase down the cell-by-cell path,
    # so most DBs keep every histogram's samples.
    forms = draw(st.sampled_from([
        ["retained"], ["retained", "degenerate"], ["retained", "binned", "degenerate"],
    ]))
    db = DistributionDB(cluster="synthetic")
    ops = [ONEWAY_OP, LOCAL_OP] + ([f"{ONEWAY_OP}:ring", f"{LOCAL_OP}:ring"] if ring else [])
    for op in ops:
        for nodes, ppn in configs:
            hists = {}
            for size in sizes:
                form = draw(st.sampled_from(forms))
                count = draw(st.integers(1, 60))
                base = (20e-6 if nodes == 1 else 100e-6 * nodes ** 0.3) * (1 + size / 2048)
                samples = (
                    [base] * count if form == "degenerate"
                    else base + rng.gamma(2.0, base / 10, size=count)
                )
                hists[size] = Histogram.from_samples(
                    samples, bins=draw(st.integers(1, 20)),
                    keep_samples=form != "binned",
                )
            db.add(BenchmarkResult(op=op, nodes=nodes, ppn=ppn,
                                   cluster="synthetic", histograms=hists))
    timing = DistributionTiming(
        db, fixed_contention=draw(st.none() | st.integers(1, 64)),
        pattern="ring" if draw(st.booleans()) else "pairs",
    )
    kinds = draw(st.lists(
        st.tuples(
            st.sampled_from([ONEWAY_OP, LOCAL_OP]),
            st.sampled_from(sizes + [100, 700, 3000, 9000]),  # exact and blended
            st.booleans(),
        ),
        min_size=1, max_size=6, unique=True,
    ))
    phases = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 12))
        phases.append((
            np.array(draw(st.lists(st.integers(0, len(kinds) - 1), min_size=k, max_size=k)),
                     dtype=np.intp),
            np.array(draw(st.lists(st.integers(0, 70), min_size=k, max_size=k)),
                     dtype=np.intp),
        ))
    return timing, kinds, phases


def _histogram_draw(timing, op, size, contention, intra, u):
    """One row from the histograms' own inverse CDFs: the reference the
    flat table is held to."""
    db = timing.db
    op = timing._oneway_op if op == ONEWAY_OP else timing._local_op
    if timing.fixed_contention is not None:
        contention = timing.fixed_contention
    nodes, ppn = db.nearest_config(op, max(2, contention), intra=intra)
    lo, hi = db.bracketing_sizes(op, size, nodes, ppn)
    hists = db.result(op, nodes, ppn).histograms
    if lo == hi:
        return np.maximum(hists[lo].quantiles(u), 0.0)
    w = (size - lo) / (hi - lo)
    return np.maximum((1.0 - w) * hists[lo].quantiles(u) + w * hists[hi].quantiles(u), 0.0)


@settings(max_examples=60, deadline=None)
@given(case=sampling_cases(), n=st.sampled_from([1, 64]))
def test_bound_sampler_equals_per_op_draws(case, n):
    timing, kinds, phases = case
    sample = timing.bind(kinds)
    block_rng = np.random.default_rng(7)
    per_op_rng = np.random.default_rng(7)
    for kind, level in phases:
        replay = np.random.default_rng()
        replay.bit_generator.state = block_rng.bit_generator.state
        block = sample(kind, level, block_rng, n)
        specs = [(op, size, c, intra) for (op, size, intra), c in
                 zip(map(kinds.__getitem__, kind.tolist()), level.tolist())]
        expected = _per_op(timing, specs, per_op_rng, n)
        assert block.shape == (len(kind), n) and block.dtype == np.float64
        assert block.tobytes() == expected.tobytes()  # bit for bit
        assert block_rng.bit_generator.state == per_op_rng.bit_generator.state
        # The same uniforms through each histogram's own inverse CDF.
        u = replay.random((len(kind), n))
        reference = np.array([
            _histogram_draw(timing, *spec, u[i]) for i, spec in enumerate(specs)
        ])
        assert block.tobytes() == reference.tobytes()


def _lookups(timing, kinds, phases):
    """The distinct ``(op, size, contention, intra)`` DB lookups the
    phases' draws resolve to under *timing*."""
    ops = {ONEWAY_OP: timing._oneway_op, LOCAL_OP: timing._local_op}
    fixed = timing.fixed_contention
    return sorted({
        (ops[op], size, level if fixed is None else fixed, intra)
        for kind, levels in phases
        for (op, size, intra), level in zip(
            map(kinds.__getitem__, kind.tolist()), levels.tolist()
        )
    })


@settings(max_examples=60, deadline=None)
@given(
    case=sampling_cases(),
    u=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=8),
)
def test_scalar_inversion_equals_table_values(case, u):
    # Retained, blended, degenerate and binned cells alike; the ends of
    # [0, 1) always included.
    timing, kinds, phases = case
    db = timing.db
    u = np.array(u + [0.0, np.nextafter(1.0, 0.0)])
    for lookup in _lookups(timing, kinds, phases):
        cell = db.cell(*lookup)
        want = db._sample_table().values(cell, u)
        got = np.array([db.cell_quantile(cell, x) for x in u.tolist()])
        assert got.tobytes() == want.tobytes()  # bit for bit


@pytest.mark.parametrize("batch_max", [DistributionTiming.BATCH_MAX, 256])
@pytest.mark.parametrize("case", ["interpolated-768", "binned-no-samples", "degenerate"])
def test_scalar_buffers_advance_the_stream_as_batch_draws(case, batch_max):
    # Each key draws rng.random(64) on first use, then twice the last
    # refill up to BATCH_MAX when its buffer runs dry; every draw is the
    # clamped table value of its uniform.
    timing, specs = CASES[case]
    timing = DistributionTiming(timing.db)
    timing.BATCH_MAX = batch_max
    op, size, contention, intra = specs[1]
    draw = timing.one_way_time if op == ONEWAY_OP else timing.local_send_time
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    got, uniforms = [], []
    for batch in (64, 128, 256, min(512, batch_max), min(1024, batch_max)):
        got += [draw(size, contention, rng, intra=intra) for _ in range(batch)]
        uniforms.append(ref.random(batch))
        assert rng.bit_generator.state == ref.bit_generator.state
    cell = timing.db.cell(op, size, contention, intra)
    want = np.maximum(timing.db._sample_table().values(cell, np.concatenate(uniforms)), 0.0)
    assert np.array(got).tobytes() == want.tobytes()
    # reset() starts every key over at BATCH uniforms.
    timing.reset()
    draw(size, contention, rng, intra=intra)
    ref.random(64)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_per_run_draws_invert_what_they_use(monkeypatch):
    # A 16-proc, 64-task farm run: every message draws its local send
    # time and its one-way time once.  A key's first 64 uniforms are
    # inverted one at a time as they are used, not the look-ahead; the
    # one key drawn 65 times takes the 65th from a 128-draw refill,
    # inverted whole.
    scalar, refills = [], []
    value, values = _SampleTable.value, _SampleTable.values
    monkeypatch.setattr(
        _SampleTable, "value", lambda *a: scalar.append(1) or value(*a)
    )
    monkeypatch.setattr(
        _SampleTable, "values", lambda t, c, u: refills.append(u.size) or values(t, c, u)
    )
    result = VirtualMachine(16, DistributionTiming(DB), seed=5).run(
        taskfarm_model(make_tasks(64, seed=1))
    )
    assert result.messages == 158
    assert len(scalar) == 2 * result.messages - 1
    assert refills == [128]  # 443 inversions in all, not 3,264


def test_degenerate_rows_are_the_exact_constant():
    timing, specs = CASES["degenerate"]
    block = timing.draw_block(specs, np.random.default_rng(1), 5)
    assert np.all(block[0] == CONST)
    assert np.all(block[1] == CONST * 0.2)


class TestSharedSamplers:
    """Lookups resolving to the same config, bracketing sizes and blend
    weight share one cell id of the DB's sampling table."""

    def test_same_config_different_contention(self):
        cell = _db().cell
        # 30 and 40 both resolve to the 32x1 config.
        assert cell(ONEWAY_OP, 1024, 30) == cell(ONEWAY_OP, 1024, 40)
        assert cell(ONEWAY_OP, 1024, 2) != cell(ONEWAY_OP, 1024, 40)

    def test_blend_weight_is_part_of_the_cell(self):
        cell = _db().cell
        assert cell(ONEWAY_OP, 768, 2) != cell(ONEWAY_OP, 800, 2)
        # Beyond the largest measured size both clamp to one table.
        assert cell(ONEWAY_OP, 5000, 2) == cell(ONEWAY_OP, 9000, 2)

    def test_ops_and_intra_stay_apart(self):
        cell = _db().cell
        assert cell(ONEWAY_OP, 1024, 2) != cell(LOCAL_OP, 1024, 2)
        assert cell(ONEWAY_OP, 1024, 2) != cell(ONEWAY_OP, 1024, 2, intra=True)


# -- the planner's draw sequence ----------------------------------------------------


class RecordingTiming(TimingModel):
    """Stochastic timing that logs ``(kind, size, contention, intra)``
    for every ``(r,)`` row it draws."""

    name = "recording-test"

    def __init__(self):
        self.log = []

    def one_way_time(self, size, contention, rng, intra=False):
        raise AssertionError("the batched engine draws vectors")

    local_send_time = one_way_time

    def one_way_times(self, size, contention, rng, n, intra=False):
        self.log.append(("one_way", size, contention, bool(intra)))
        return 2e-5 * (1.0 + 0.05 * contention) + rng.random(n) * 1e-5

    def local_send_times(self, size, contention, rng, n, intra=False):
        self.log.append(("local", size, contention, bool(intra)))
        return 1e-6 + rng.random(n) * 1e-6


# Recorded from the engine that drew one (r,) vector per decision.
JACOBI_8P_DRAWS = [
    ('local', 256, 0, True), ('local', 256, 0, False), ('local', 256, 1, True),
    ('local', 256, 1, False), ('local', 256, 2, True), ('local', 256, 2, False),
    ('local', 256, 3, True), ('one_way', 256, 3, False), ('one_way', 256, 2, False),
    ('one_way', 256, 1, False), ('one_way', 256, 0, True), ('local', 256, 0, True),
    ('one_way', 256, 0, True), ('one_way', 256, 0, True), ('one_way', 256, 0, True),
    ('one_way', 256, 0, True), ('local', 256, 0, True), ('local', 256, 0, False),
    ('local', 256, 1, True), ('local', 256, 1, False), ('local', 256, 2, True),
    ('local', 256, 2, False), ('one_way', 256, 3, True), ('one_way', 256, 3, True),
    ('one_way', 256, 3, True), ('one_way', 256, 3, False), ('local', 256, 2, True),
    ('local', 256, 2, False), ('local', 256, 3, True), ('one_way', 256, 3, False),
    ('one_way', 256, 2, False), ('one_way', 256, 1, True), ('one_way', 256, 1, False),
    ('local', 256, 0, False), ('local', 256, 1, True), ('local', 256, 1, False),
    ('local', 256, 2, True), ('local', 256, 2, True), ('one_way', 256, 2, False),
    ('one_way', 256, 1, False), ('one_way', 256, 0, True), ('one_way', 256, 0, True),
    ('local', 256, 0, True), ('local', 256, 0, False), ('one_way', 256, 1, True),
    ('one_way', 256, 1, True), ('one_way', 256, 1, True), ('one_way', 256, 1, False),
    ('local', 256, 0, True), ('local', 256, 0, False), ('local', 256, 1, True),
    ('local', 256, 1, False), ('one_way', 256, 2, True), ('one_way', 256, 2, True),
    ('one_way', 256, 2, False), ('one_way', 256, 1, False),
]

@pytest.mark.parametrize("form", ["compiled", "generator"])
def test_jacobi_draw_sequence_is_pinned(form):
    # ppn=2 mixes intra-node sends, which must not move the contention.
    # The schedule is traced from the directive Block or from the
    # interpreter's generator form of it; both must plan the same draws.
    model = jacobi_model(iterations=2, xsize=64)
    params = {"serial_time": 1e-3}
    source = model if form == "compiled" else compile_model(model, params)
    timing = RecordingTiming()
    BatchedVirtualMachine(8, timing, seed=3, runs=4, ppn=2).run(
        compile_program(source, 8, params)
    )
    assert timing.log == JACOBI_8P_DRAWS


# -- draw windows ---------------------------------------------------------------------


class LoggedTiming(DistributionTiming):
    """DistributionTiming whose bound sampler logs each call's rows."""

    def bind(self, kinds):
        sample = super().bind(kinds)
        self.calls = []

        def logged(kind, level, rng, n):
            self.calls.append(list(zip(kind.tolist(), level.tolist())))
            return sample(kind, level, rng, n)

        return logged


#: the engine's window cap, read before any test patches it
WINDOW = vector.WINDOW
AMG = amg_model(iterations=1, nx=8, coarse_nx=4)


def _run_logged(program, window, monkeypatch):
    monkeypatch.setattr(vector, "WINDOW", window)
    timing = LoggedTiming(DB)
    vm = BatchedVirtualMachine(program.nprocs, timing, seed=5, runs=8)
    results = vm.run(program)
    return timing.calls, vm.rng.bit_generator.state, results


def test_windows_draw_the_phases_rows_in_order(monkeypatch):
    # amg at 16 procs has run-time-ordered phases between plan-order
    # ones, so its windows end before them as well as at the cap.
    program = compile_program(AMG, 16)
    phased, phased_state, phased_results = _run_logged(program, 1, monkeypatch)
    calls, state, results = _run_logged(program, WINDOW, monkeypatch)
    assert [row for call in calls for row in call] == [
        row for call in phased for row in call
    ]
    assert state == phased_state
    assert results == phased_results
    windows = program.plan(1, "tx").windows(WINDOW // 8)
    run_time = len(calls) - len(windows)
    assert run_time > 0 and len(windows) > 1
    assert len(calls) < len(phased)


@pytest.mark.parametrize("max_rows", [1, 40, 256, 10**6])
def test_windows_hold_at_most_the_cap_or_one_phase(max_rows):
    plan = compile_program(AMG, 16).plan(1, "tx")
    windows = plan.windows(max_rows)
    for kind, level, bounds in windows:
        assert bounds[0] == 0 and bounds[-1] == len(kind) == len(level)
        assert bounds[-1] <= max_rows or len(bounds) == 2
    assert plan.windows(max_rows) is windows  # cached


class CountingTiming(HockneyTiming):
    """Hockney timing that counts its bound sampler's calls."""

    def bind(self, kinds):
        sample = super().bind(kinds)
        self.calls = 0

        def counted(kind, level, rng, n):
            self.calls += 1
            return sample(kind, level, rng, n)

        return counted


def test_fig6_shape_draw_calls_are_pinned(monkeypatch):
    # predict() of the Figure 6 Jacobi at 64 procs runs one 64-run
    # batch: 360 phase draws, drawn in 53 windowed calls.
    params = {"iterations": 50, "xsize": 256, "serial_time": 1e-3}
    program = compile_program(parse_jacobi(), 64, params)
    counts = {}
    for window in (1, WINDOW):
        monkeypatch.setattr(vector, "WINDOW", window)
        timing = CountingTiming(1e-5, 1e8)
        BatchedVirtualMachine(64, timing, seed=1, runs=64).run(program)
        counts[window] = timing.calls
    assert counts == {1: 360, WINDOW: 53}
