"""Tests for the virtual parallel machine (sweep/match algorithm)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pevpm.machine import (
    ANY_SOURCE,
    ModelDeadlock,
    ProcContext,
    VirtualMachine,
)
from repro.pevpm.timing import TimingModel
from repro.pevpm.trace import LossReport


class FixedTiming(TimingModel):
    """Deterministic timing for exact assertions."""

    name = "fixed"

    def __init__(self, oneway=100e-6, local=10e-6, gap=0.0, intra_oneway=5e-6):
        self.oneway = oneway
        self.local = local
        self.gap = gap
        self.intra_oneway = intra_oneway

    def one_way_time(self, size, contention, rng, intra=False):
        return self.intra_oneway if intra else self.oneway

    def local_send_time(self, size, contention, rng, intra=False):
        return self.local

    def serialisation_gap(self, size, intra=False):
        return 0.0 if intra else self.gap


class ContentionProbe(TimingModel):
    """Records the contention level passed to every sample."""

    name = "probe"

    def __init__(self):
        self.seen = []

    def one_way_time(self, size, contention, rng, intra=False):
        self.seen.append(contention)
        return 100e-6

    def local_send_time(self, size, contention, rng, intra=False):
        return 10e-6


def run(program, nprocs, timing=None, **kw):
    vm = VirtualMachine(nprocs, timing or FixedTiming(), **kw)
    return vm.run(program)


class TestBasicExecution:
    def test_serial_only(self):
        def program(ctx):
            yield ctx.serial(0.5)
            yield ctx.serial(0.25)

        r = run(program, 3)
        assert r.finish_times == [0.75] * 3
        assert r.compute_time == [0.75] * 3
        assert r.messages == 0

    def test_single_message_timing(self):
        def program(ctx):
            if ctx.procnum == 0:
                yield ctx.send(1, 1024)
            else:
                yield ctx.recv(0)

        r = run(program, 2)
        # Sender: local cost 10us.  Receiver: arrival at depart(0) + 100us.
        assert r.finish_times[0] == pytest.approx(10e-6)
        assert r.finish_times[1] == pytest.approx(100e-6)
        assert r.messages == 1

    def test_recv_posted_late_completes_at_post(self):
        def program(ctx):
            if ctx.procnum == 0:
                yield ctx.send(1, 8)
            else:
                yield ctx.serial(1.0)
                yield ctx.recv(0)

        r = run(program, 2)
        assert r.finish_times[1] == pytest.approx(1.0)

    def test_sender_continues_immediately(self):
        """Sends are nonblocking at the model level: the sender's clock
        advances only by the local send cost."""

        def program(ctx):
            if ctx.procnum == 0:
                for _ in range(5):
                    yield ctx.send(1, 8)
                yield ctx.serial(0.001)
            else:
                for _ in range(5):
                    yield ctx.recv(0)

        r = run(program, 2)
        assert r.finish_times[0] == pytest.approx(5 * 10e-6 + 0.001)

    def test_pingpong_chain(self):
        def program(ctx):
            if ctx.procnum == 0:
                yield ctx.send(1, 8)
                yield ctx.recv(1)
            else:
                yield ctx.recv(0)
                yield ctx.send(0, 8)

        r = run(program, 2)
        # 0 sends (departs t=0), 1 receives at 100us, replies (departs
        # 100us), 0 receives at 200us.
        assert r.finish_times[0] == pytest.approx(200e-6)

    def test_wildcard_recv_matches_earliest_arrival(self):
        def program(ctx):
            if ctx.procnum == 0:
                yield ctx.serial(0.010)  # sends late
                yield ctx.send(2, 8)
            elif ctx.procnum == 1:
                yield ctx.send(2, 8)  # sends immediately
            else:
                yield ctx.recv(ANY_SOURCE)
                yield ctx.recv(ANY_SOURCE)

        r = run(program, 3)
        # First wildcard match must be proc 1's message (arrives 100us),
        # second proc 0's (arrives 10.1ms).
        assert r.finish_times[2] == pytest.approx(0.010 + 100e-6)

    def test_message_order_per_pair_fifo(self):
        """Two messages same pair: arrivals never overtake."""

        class JitterTiming(FixedTiming):
            def __init__(self):
                super().__init__()
                self.calls = 0

            def one_way_time(self, size, contention, rng, intra=False):
                # First message slow, second fast: FIFO must still hold.
                self.calls += 1
                return 500e-6 if self.calls == 1 else 10e-6

        def program(ctx):
            if ctx.procnum == 0:
                yield ctx.send(1, 8)
                yield ctx.send(1, 8)
            else:
                yield ctx.recv(0)
                t_first = None  # noqa: F841 -- documented ordering below
                yield ctx.recv(0)

        r = run(program, 2, timing=JitterTiming())
        # Second arrival clamped to >= first (500us), so receiver finishes
        # at 500us, not at 10us + epsilon.
        assert r.finish_times[1] >= 500e-6


class TestContentionAndNic:
    def test_contention_seen_by_sampler(self):
        """With N simultaneous sender/receiver pairs, samples see the
        scoreboard population."""
        probe = ContentionProbe()

        def program(ctx):
            half = ctx.numprocs // 2
            if ctx.procnum < half:
                yield ctx.send(ctx.procnum + half, 8)
            else:
                yield ctx.recv(ctx.procnum - half)

        run(program, 16, timing=probe)
        assert max(probe.seen) >= 8  # all 8 messages outstanding at match

    def test_nic_tx_serialisation(self):
        def program(ctx):
            if ctx.procnum == 0:
                yield ctx.send(1, 8)
                yield ctx.send(2, 8)
            else:
                yield ctx.recv(0)

        r = run(program, 3, timing=FixedTiming(gap=50e-6))
        # Second message departs at 10us but cannot inject until the NIC
        # drains the first at 50us; it arrives at 50 + 100 us.
        assert r.finish_times[1] == pytest.approx(100e-6)
        assert r.finish_times[2] == pytest.approx(50e-6 + 100e-6, rel=1e-6)

    def test_nic_serialisation_off(self):
        def program(ctx):
            if ctx.procnum == 0:
                yield ctx.send(1, 8)
                yield ctx.send(2, 8)
            else:
                yield ctx.recv(0)

        r = run(program, 3, timing=FixedTiming(gap=50e-6), nic_serialisation="off")
        assert r.finish_times[2] == pytest.approx(10e-6 + 100e-6)

    def test_intra_node_messages_bypass_nic(self):
        def program(ctx):
            if ctx.procnum == 0:
                yield ctx.send(1, 8)  # same node when ppn=2
            elif ctx.procnum == 1:
                yield ctx.recv(0)

        r = run(program, 2, timing=FixedTiming(gap=50e-6), ppn=2)
        assert r.finish_times[1] == pytest.approx(5e-6)  # intra_oneway

    def test_invalid_nic_mode(self):
        with pytest.raises(ValueError):
            VirtualMachine(2, FixedTiming(), nic_serialisation="sideways")


class TestDeadlockAndErrors:
    def test_mutual_recv_deadlock(self):
        def program(ctx):
            yield ctx.recv((ctx.procnum + 1) % ctx.numprocs)

        with pytest.raises(ModelDeadlock) as exc:
            run(program, 3)
        assert set(exc.value.blocked) == {0, 1, 2}

    def test_deadlock_reports_orphans(self):
        def program(ctx):
            if ctx.procnum == 0:
                yield ctx.send(1, 8)  # never received
                yield ctx.recv(1)  # never sent
            else:
                yield ctx.recv(2)

        with pytest.raises(ModelDeadlock) as exc:
            run(program, 3)
        assert len(exc.value.orphans) == 1
        assert exc.value.orphans[0].dst == 1

    def test_op_validation(self):
        ctx = ProcContext(0, 4)
        with pytest.raises(ValueError):
            ctx.send(0, 8)  # self-send
        with pytest.raises(ValueError):
            ctx.send(9, 8)
        with pytest.raises(ValueError):
            ctx.send(1, -1)
        with pytest.raises(ValueError):
            ctx.recv(17)
        with pytest.raises(ValueError):
            ctx.serial(-1.0)

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf")])
    def test_serial_must_be_finite(self, seconds):
        with pytest.raises(ValueError, match="finite"):
            ProcContext(0, 4).serial(seconds)

    def test_unknown_op_rejected(self):
        def program(ctx):
            yield ("teleport", 1)

        with pytest.raises(ValueError, match="unknown model operation"):
            run(program, 1)

    def test_max_sweeps_guard(self):
        def program(ctx):
            if ctx.procnum == 0:
                while True:
                    yield ctx.send(1, 8)
                    yield ctx.recv(1)
            else:
                while True:
                    yield ctx.recv(0)
                    yield ctx.send(0, 8)

        vm = VirtualMachine(2, FixedTiming(), max_sweeps=10)
        with pytest.raises(RuntimeError, match="exceeded"):
            vm.run(program)

    def test_invalid_constructor_args(self):
        with pytest.raises(ValueError):
            VirtualMachine(0, FixedTiming())
        with pytest.raises(ValueError):
            VirtualMachine(2, FixedTiming(), ppn=0)


class TestAccountingAndTrace:
    def test_time_decomposition_sums(self):
        def program(ctx):
            other = 1 - ctx.procnum
            yield ctx.serial(0.001)
            yield ctx.send(other, 64)
            yield ctx.recv(other)
            yield ctx.serial(0.002)

        r = run(program, 2)
        for p in range(2):
            total = r.compute_time[p] + r.send_time[p] + r.recv_wait_time[p]
            assert total == pytest.approx(r.finish_times[p])

    def test_efficiency(self):
        def program(ctx):
            yield ctx.serial(1.0 if ctx.procnum == 0 else 0.5)

        r = run(program, 2)
        eff = r.efficiency()
        assert eff[0] == pytest.approx(1.0)
        assert eff[1] == pytest.approx(1.0)  # it finished everything it had

    def test_trace_and_loss_report(self):
        def program(ctx):
            if ctx.procnum == 0:
                yield ctx.serial(0.001, label="setup")
                yield ctx.send(1, 64, label="edge")
            else:
                yield ctx.recv(0, label="edge-recv")

        vm = VirtualMachine(2, FixedTiming(), trace=True)
        r = vm.run(program)
        assert r.trace is not None and len(r.trace) == 3
        labels = {(e.category, e.label) for e in r.trace.events}
        assert ("serial", "setup") in labels
        assert ("recv", "edge-recv") in labels
        report = LossReport(r.trace, r.elapsed, 2)
        per = report.per_process()
        assert per[0]["compute"] == pytest.approx(0.001)
        assert 0.0 <= report.total_loss_fraction() <= 1.0
        assert report.hotspots()
        text = report.format()
        assert "loss" in text

    def test_peak_contention_recorded(self):
        def program(ctx):
            half = ctx.numprocs // 2
            if ctx.procnum < half:
                yield ctx.send(ctx.procnum + half, 8)
            else:
                yield ctx.recv(ctx.procnum - half)

        r = run(program, 8)
        assert r.peak_contention == 4

    def test_determinism_given_seed(self):
        import numpy as np
        from repro.mpibench import BenchmarkResult, DistributionDB, Histogram
        from repro.pevpm.timing import DistributionTiming

        rng = np.random.default_rng(0)
        db = DistributionDB()
        hists = {
            64: Histogram.from_samples(100e-6 + rng.gamma(3, 10e-6, 500), bins=30)
        }
        db.add(BenchmarkResult(op="isend", nodes=2, ppn=1, cluster="c", histograms=hists))
        db.add(
            BenchmarkResult(
                op="isend_local", nodes=2, ppn=1, cluster="c",
                histograms={
                    64: Histogram.from_samples(10e-6 + rng.gamma(2, 2e-6, 500), bins=30)
                },
            )
        )

        def program(ctx):
            other = 1 - ctx.procnum
            for _ in range(20):
                if ctx.procnum == 0:
                    yield ctx.send(other, 64)
                    yield ctx.recv(other)
                else:
                    yield ctx.recv(other)
                    yield ctx.send(other, 64)

        a = VirtualMachine(2, DistributionTiming(db), seed=5).run(program)
        b = VirtualMachine(2, DistributionTiming(db), seed=5).run(program)
        c = VirtualMachine(2, DistributionTiming(db), seed=6).run(program)
        assert a.elapsed == b.elapsed
        assert a.elapsed != c.elapsed


@given(
    nprocs=st.integers(2, 6),
    rounds=st.integers(1, 6),
    seed=st.integers(0, 5),
)
@settings(max_examples=30, deadline=None)
def test_ring_program_always_completes(nprocs, rounds, seed):
    """Property: a ring pass-the-token program never deadlocks and time
    grows with the number of rounds."""

    def program(ctx):
        right = (ctx.procnum + 1) % ctx.numprocs
        left = (ctx.procnum - 1) % ctx.numprocs
        for _ in range(rounds):
            if ctx.procnum == 0:
                yield ctx.send(right, 64)
                yield ctx.recv(left)
            else:
                yield ctx.recv(left)
                yield ctx.send(right, 64)

    r = run(program, nprocs)
    assert r.messages == rounds * nprocs
    assert r.elapsed >= rounds * nprocs * 100e-6 * 0.99
    assert not r.orphans
