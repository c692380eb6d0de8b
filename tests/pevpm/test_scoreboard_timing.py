"""Tests for the contention scoreboard and the timing models."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import amg_model, make_tasks, taskfarm_model
from repro.mpibench import BenchmarkResult, DistributionDB, Histogram
from repro.pevpm import VirtualMachine
from repro.pevpm.scoreboard import Scoreboard, ScoreboardEntry
from repro.pevpm.timing import (
    AverageTiming,
    DistributionTiming,
    HockneyTiming,
    MinimumTiming,
    ParametricTiming,
    timing_from_db,
)


class TestScoreboard:
    def test_add_remove_roundtrip(self):
        sb = Scoreboard()
        e = sb.add(src=0, dst=1, size=128, depart_time=1.0)
        assert sb.contention == 1
        assert e.msg_id in sb
        removed = sb.remove(e.msg_id)
        assert removed is e
        assert sb.contention == 0

    def test_remove_unknown_raises(self):
        with pytest.raises(KeyError):
            Scoreboard().remove(42)

    def test_intra_messages_not_counted_as_contention(self):
        sb = Scoreboard()
        sb.add(0, 1, 64, 0.0, intra=True)
        sb.add(0, 2, 64, 0.0, intra=False)
        assert sb.contention == 1
        assert len(sb) == 2

    def test_oldest_for_fifo_order(self):
        sb = Scoreboard()
        late = sb.add(0, 1, 8, depart_time=5.0)
        early = sb.add(0, 1, 8, depart_time=2.0)
        assert sb.oldest_for(0, 1) is early
        sb.remove(early.msg_id)
        assert sb.oldest_for(0, 1) is late

    def test_oldest_for_ignores_other_pairs(self):
        sb = Scoreboard()
        sb.add(0, 2, 8, 0.0)
        assert sb.oldest_for(0, 1) is None

    def test_heads_for_one_per_source(self):
        sb = Scoreboard()
        late = sb.add(2, 1, 8, 3.0)
        sb.add(2, 1, 8, 4.0)
        early = sb.add(0, 1, 8, 1.0)
        sb.add(3, 9, 8, 0.0)
        assert sorted(sb.heads_for(1), key=lambda e: e.src) == [early, late]
        assert sb.sources_for(1) == 2
        assert sb.heads_for(5) == [] and sb.sources_for(5) == 0

    def test_peak_and_total(self):
        sb = Scoreboard()
        ids = [sb.add(0, 1, 8, 0.0).msg_id for _ in range(5)]
        for i in ids:
            sb.remove(i)
        assert sb.peak == 5
        assert sb.total_added == 5
        assert sb.contention == 0

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            ScoreboardEntry(0, 0, 1, -8, 0.0)
        with pytest.raises(ValueError):
            ScoreboardEntry(0, 0, 1, 8, -1.0)

    def test_entry_is_an_immutable_value(self):
        entry = ScoreboardEntry(
            msg_id=3, src=0, dst=1, size=8, depart_time=0.5, payload=(1, "a"),
        )
        assert (entry.msg_id, entry.src, entry.dst, entry.size) == (3, 0, 1, 8)
        assert (entry.depart_time, entry.op, entry.intra) == (0.5, "isend", False)
        assert entry.payload == (1, "a")
        assert entry == ScoreboardEntry(3, 0, 1, 8, 0.5, "isend", False, (1, "a"))
        assert entry != ScoreboardEntry(3, 0, 1, 8, 0.5, intra=True, payload=(1, "a"))
        with pytest.raises(AttributeError):
            entry.depart_time = 1.0
        again = pickle.loads(pickle.dumps(entry))
        assert type(again) is ScoreboardEntry and again == entry


@given(
    plan=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=50, deadline=None)
def test_scoreboard_contention_invariant(plan):
    """contention == number of outstanding inter-node entries, always."""
    sb = Scoreboard()
    outstanding = []
    for src, dst, intra in plan:
        e = sb.add(src, dst, 8, 0.0, intra=intra)
        outstanding.append(e)
        assert sb.contention == sum(1 for x in outstanding if not x.intra)
    while outstanding:
        e = outstanding.pop()
        sb.remove(e.msg_id)
        assert sb.contention == sum(1 for x in outstanding if not x.intra)
    assert sb.contention == 0


class BruteScoreboard:
    """The scoreboard as a plain list, every query a scan."""

    def __init__(self):
        self.entries = []
        self.peak = 0
        self.total_added = 0

    def add(self, entry):
        self.entries.append(entry)
        self.total_added += 1
        self.peak = max(self.peak, len(self.entries))

    def remove(self, msg_id):
        self.entries = [e for e in self.entries if e.msg_id != msg_id]

    def oldest_for(self, src, dst):
        pair = [e for e in self.entries if (e.src, e.dst) == (src, dst)]
        return min(pair, key=fifo_order, default=None)

    def heads_for(self, dst):
        srcs = {e.src for e in self.entries if e.dst == dst}
        return sorted((self.oldest_for(s, dst) for s in srcs), key=fifo_order)


def fifo_order(entry):
    return (entry.depart_time, entry.msg_id)


#: one step: add (src, dst, depart, intra) or remove the k-th outstanding
_steps = st.one_of(
    st.tuples(
        st.just("add"), st.integers(0, 3), st.integers(0, 3),
        st.sampled_from([0.0, 1.0, 1.5, 2.0, 5.0]), st.booleans(),
    ),
    st.tuples(st.just("remove"), st.integers(0, 40)),
)


@given(steps=st.lists(_steps, max_size=60))
@settings(max_examples=200, deadline=None)
def test_indexed_scoreboard_matches_brute_force(steps):
    """The per-pair FIFO index answers every query as a scan of all
    outstanding messages would, through adds in and out of departure
    order within one pair, removals of heads and of later messages, and
    intra- and inter-node messages."""
    sb, brute = Scoreboard(), BruteScoreboard()
    for step in steps:
        if step[0] == "add":
            _, src, dst, depart, intra = step
            brute.add(sb.add(src, dst, 8, depart, intra=intra))
        elif brute.entries:
            msg_id = brute.entries[step[1] % len(brute.entries)].msg_id
            brute.remove(msg_id)
            assert sb.remove(msg_id).msg_id == msg_id
            assert msg_id not in sb
        for dst in range(4):
            heads = brute.heads_for(dst)
            assert sorted(sb.heads_for(dst), key=fifo_order) == heads
            assert sb.sources_for(dst) == len(heads)
            for src in range(4):
                assert sb.oldest_for(src, dst) is brute.oldest_for(src, dst)
        assert sb.contention == sum(1 for e in brute.entries if not e.intra)
        assert len(sb) == len(brute.entries)
        assert sb.peak == brute.peak
        assert sb.total_added == brute.total_added
        assert sb.entries() == sorted(brute.entries, key=fifo_order)


def _synthetic_db():
    """A DB with known means/mins: inter configs at two contention levels
    plus one intra (single-node) config."""
    rng = np.random.default_rng(0)
    db = DistributionDB(cluster="synthetic")

    def mk(op, nodes, ppn, base):
        hists = {
            size: Histogram.from_samples(
                base * (1 + size / 2048) + rng.gamma(4.0, base / 40, size=300),
                bins=40,
            )
            for size in (0, 1024, 4096)
        }
        db.add(BenchmarkResult(op=op, nodes=nodes, ppn=ppn,
                               cluster="synthetic", histograms=hists))

    for op, scale in [("isend", 1.0), ("isend_local", 0.2)]:
        mk(op, 2, 1, 100e-6 * scale)
        mk(op, 32, 1, 300e-6 * scale)
        mk(op, 1, 2, 20e-6 * scale)  # intra-node
    return db


class TestTimingModels:
    rng = np.random.default_rng(1)

    def test_distribution_contention_selects_config(self):
        db = _synthetic_db()
        t = DistributionTiming(db)
        low = np.mean([t.one_way_time(1024, 2, self.rng) for _ in range(300)])
        high = np.mean([t.one_way_time(1024, 32, self.rng) for _ in range(300)])
        assert high > 2 * low

    def test_distribution_fixed_contention(self):
        db = _synthetic_db()
        t = DistributionTiming(db, fixed_contention=2)
        samples = [t.one_way_time(1024, 1000, self.rng) for _ in range(100)]
        # Pinned to the 2-proc config: stays at the low scale.
        assert np.mean(samples) < 250e-6

    def test_intra_flag_selects_single_node_config(self):
        db = _synthetic_db()
        t = DistributionTiming(db)
        intra = np.mean([t.one_way_time(1024, 32, self.rng, intra=True) for _ in range(200)])
        inter = np.mean([t.one_way_time(1024, 32, self.rng, intra=False) for _ in range(200)])
        assert intra < inter / 3

    def test_average_and_minimum_are_deterministic(self):
        db = _synthetic_db()
        avg = AverageTiming(db, fixed_contention=2)
        mn = MinimumTiming(db, fixed_contention=2)
        a = [avg.one_way_time(1024, 99, self.rng) for _ in range(5)]
        m = [mn.one_way_time(1024, 99, self.rng) for _ in range(5)]
        assert len(set(a)) == 1
        assert len(set(m)) == 1
        assert m[0] < a[0]

    def test_local_send_cheaper_than_one_way(self):
        db = _synthetic_db()
        avg = AverageTiming(db, fixed_contention=2)
        assert avg.local_send_time(1024, 2, self.rng) < avg.one_way_time(
            1024, 2, self.rng
        )

    def test_parametric_sampling_tracks_data(self):
        db = _synthetic_db()
        t = ParametricTiming(db, fixed_contention=2)
        samples = [t.one_way_time(1024, 2, self.rng) for _ in range(400)]
        data_mean = db.histogram("isend", 1024, 2, 1).mean
        assert np.mean(samples) == pytest.approx(data_mean, rel=0.15)

    def test_serialisation_gap_grows_with_size(self):
        db = _synthetic_db()
        t = DistributionTiming(db)
        g0 = t.serialisation_gap(0)
        g1 = t.serialisation_gap(1024)
        g4 = t.serialisation_gap(4096)
        assert g0 == 0.0
        assert 0.0 <= g1 <= g4

    def test_hockney_model(self):
        t = HockneyTiming(latency=50e-6, bandwidth=10e6)
        assert t.one_way_time(0, 99, self.rng) == pytest.approx(50e-6)
        assert t.one_way_time(10_000_000, 0, self.rng) == pytest.approx(
            50e-6 + 1.0
        )
        assert t.serialisation_gap(10e6) == pytest.approx(1.0)
        assert t.serialisation_gap(10e6, intra=True) == 0.0
        assert t.local_send_time(0, 0, self.rng) < t.one_way_time(0, 0, self.rng)

    def test_hockney_validation(self):
        with pytest.raises(ValueError):
            HockneyTiming(latency=-1, bandwidth=1)
        with pytest.raises(ValueError):
            HockneyTiming(latency=0, bandwidth=0)
        with pytest.raises(ValueError):
            HockneyTiming(latency=0, bandwidth=1, send_fraction=2.0)


class TestScalarBuffers:
    """The per-run draw buffers hold plain values, so a model pickled or
    a DB grown between draws goes on with the draws an untouched model
    gives: the first 64 on a key (uniforms inverted when used) and its
    refills (inverted whole) alike."""

    keys = ((1024, 3), (0, 40))

    def _draws(self, t, rng, n, key=0):
        size, contention = self.keys[key]
        return [t.one_way_time(size, contention, rng) for _ in range(n)]

    def _reference(self):
        t, rng = DistributionTiming(_synthetic_db()), np.random.default_rng(9)
        return (self._draws(t, rng, 10) + self._draws(t, rng, 1, key=1)
                + self._draws(t, rng, 100) + self._draws(t, rng, 90))

    def test_pickled_model_draws_on(self):
        t, rng = DistributionTiming(_synthetic_db()), np.random.default_rng(9)
        got = self._draws(t, rng, 10)
        t, rng = pickle.loads(pickle.dumps((t, rng)))
        got += self._draws(t, rng, 1, key=1)  # takes a cell id first
        got += self._draws(t, rng, 100)  # the rest of the first 64, a refill
        t, rng = pickle.loads(pickle.dumps((t, rng)))
        got += self._draws(t, rng, 90)
        assert got == self._reference()

    def test_draws_go_on_after_the_db_grows(self):
        db = _synthetic_db()
        t, rng = DistributionTiming(db), np.random.default_rng(9)
        got = self._draws(t, rng, 10)
        db.add(BenchmarkResult(
            op="bcast", nodes=2, ppn=1, cluster="synthetic",
            histograms={0: Histogram.from_samples(np.full(8, 1e-5), bins=4)},
        ))
        got += self._draws(t, rng, 1, key=1)
        got += self._draws(t, rng, 190)
        assert got == self._reference()


class TestTimingFactory:
    def test_modes(self):
        db = _synthetic_db()
        assert isinstance(timing_from_db(db, "distribution"), DistributionTiming)
        assert isinstance(timing_from_db(db, "parametric"), ParametricTiming)
        avg = timing_from_db(db, "average", "2x1")
        assert isinstance(avg, AverageTiming)
        assert avg.fixed_contention == 2
        mn = timing_from_db(db, "minimum", "nxp", nprocs=32)
        assert isinstance(mn, MinimumTiming)
        assert mn.fixed_contention == 32

    def test_nxp_average_requires_nprocs(self):
        db = _synthetic_db()
        with pytest.raises(ValueError):
            timing_from_db(db, "average", "nxp")

    def test_unknown_mode_and_source(self):
        db = _synthetic_db()
        with pytest.raises(ValueError):
            timing_from_db(db, "psychic")
        with pytest.raises(ValueError):
            timing_from_db(db, "average", "3x3")


# -- samples below zero -------------------------------------------------------------


def _below_zero_db():
    """:func:`_synthetic_db` with every histogram's samples shifted so
    its minimum is -1 us: a loadable DB whose draws can go negative."""
    db = DistributionDB(cluster="synthetic")
    src = _synthetic_db()
    for op in src.ops():
        for nodes, ppn in src.configs(op):
            result = src.result(op, nodes, ppn)
            db.add(BenchmarkResult(
                op=op, nodes=nodes, ppn=ppn, cluster="synthetic",
                histograms={
                    size: Histogram.from_samples(
                        h.samples - h.min - 1e-6, bins=h.nbins,
                    )
                    for size, h in result.histograms.items()
                },
            ))
    return db


class TestBelowZeroSamples:
    """Per-run draws clamp at zero as batched draws do."""

    def test_scalar_draws_equal_the_clamped_batch_draws(self):
        t = DistributionTiming(_below_zero_db())
        rng = np.random.default_rng(4)
        scalar = [t.local_send_time(1024, 3, rng) for _ in range(64)]
        batch = t.local_send_times(1024, 3, np.random.default_rng(4), 64)
        assert np.array(scalar).tobytes() == batch.tobytes()
        assert min(scalar) == 0.0

    def test_one_run_engine_parity(self):
        from tests.pevpm.test_collective_models_properties import (
            assert_engine_parity,
        )

        timing = timing_from_db(_below_zero_db(), mode="distribution", nprocs=8)
        assert_engine_parity(amg_model(iterations=1, nx=8, coarse_nx=4), 8, timing, 3)

    def test_task_farm_clocks_never_decrease(self):
        t = DistributionTiming(_below_zero_db())
        result = VirtualMachine(6, t, seed=2, trace=True).run(
            taskfarm_model(make_tasks(30, seed=1))
        )
        # Each event ends where that process's clock stands after it.
        clocks: dict[int, float] = {}
        for e in result.trace.events:
            assert e.start <= e.end
            assert e.end >= clocks.get(e.proc, 0.0)
            clocks[e.proc] = e.end
        assert min(result.send_time) >= 0.0
