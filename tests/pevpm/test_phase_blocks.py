"""Phase-block draws of the batched engine.

The batched VM draws each sweep/match phase as one
``TimingModel.draw_block`` call (see :mod:`repro.pevpm.vector`).  These
tests pin the two things that make that bit-identical to one draw per
decision:

* ``draw_block`` rows equal successive ``one_way_times`` /
  ``local_send_times`` calls on an identically seeded generator, and
  leave the generator in the same state;
* the engine asks for the same ``(kind, size, contention, intra)``
  sequence it asked for one draw at a time -- pinned as literals
  recorded from the one-draw-per-decision engine, because an off-by-one
  contention often resolves to the same benchmark config and the
  goldens' times would not notice.
"""

import numpy as np
import pytest

from repro.apps import jacobi_model
from repro.mpibench import BenchmarkResult, DistributionDB, Histogram
from repro.pevpm import (
    BatchedVirtualMachine,
    DistributionTiming,
    HockneyTiming,
    ParametricTiming,
    TimingModel,
    compile_program,
)
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


def test_distribution_timing_overrides_the_default():
    # The parity cases above would pass trivially through the base loop.
    assert DistributionTiming.draw_block is not TimingModel.draw_block
    assert ParametricTiming.draw_block is TimingModel.draw_block
    assert HockneyTiming.draw_block is TimingModel.draw_block


def test_degenerate_rows_are_the_exact_constant():
    timing, specs = CASES["degenerate"]
    block = timing.draw_block(specs, np.random.default_rng(1), 5)
    assert np.all(block[0] == CONST)
    assert np.all(block[1] == CONST * 0.2)


class TestSharedSamplers:
    """Lookups resolving to the same config, bracketing sizes and blend
    weight share one sampler object -- what draw_block groups rows by."""

    def test_same_config_different_contention(self):
        make = _db().make_sampler
        # 30 and 40 both resolve to the 32x1 config.
        assert make(ONEWAY_OP, 1024, 30) is make(ONEWAY_OP, 1024, 40)
        assert make(ONEWAY_OP, 1024, 2) is not make(ONEWAY_OP, 1024, 40)

    def test_blend_weight_is_part_of_the_cell(self):
        make = _db().make_sampler
        assert make(ONEWAY_OP, 768, 2) is not make(ONEWAY_OP, 800, 2)
        # Beyond the largest measured size both clamp to one table.
        assert make(ONEWAY_OP, 5000, 2) is make(ONEWAY_OP, 9000, 2)

    def test_ops_and_intra_stay_apart(self):
        make = _db().make_sampler
        assert make(ONEWAY_OP, 1024, 2) is not make(LOCAL_OP, 1024, 2)
        assert make(ONEWAY_OP, 1024, 2) is not make(ONEWAY_OP, 1024, 2, intra=True)


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
