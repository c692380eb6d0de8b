"""Tests for end-to-end transport across the simulated fabric."""

import numpy as np
import pytest

from repro.simnet import (
    Network,
    NetworkMonitor,
    RngRegistry,
    Simulator,
    TransmissionAborted,
    ideal_cluster,
    perseus,
)
from repro.simnet.topology import TcpModel


def _run_sends(spec, sends, seed=0):
    """Run a batch of (src, dst, payload) sends started at t=0; return the
    (network, [Delivery]) pair."""
    sim = Simulator()
    net = Network(sim, spec, RngRegistry(seed))
    out = []

    def sender(src, dst, size):
        d = yield net.send(src, dst, size)
        out.append(d)

    for src, dst, size in sends:
        sim.spawn(sender(src, dst, size))
    sim.run()
    return net, out


class StepCounter(Simulator):
    """A kernel that counts the events it processes."""

    steps = 0

    def step(self):
        self.steps += 1
        super().step()


class TestKernelEvents:
    def _steps(self, src, dst):
        sim = StepCounter()
        net = Network(sim, perseus(64), RngRegistry(0))
        net.send(src, dst, 1024)
        sim.run()
        return sim.steps, len(net.path_resources(src, dst))

    def test_one_completion_event_per_attempt_whatever_the_path(self):
        """A message costs the kernel the same events across the switch
        stack as within one switch: the attempt schedules one completion
        at its slowest pipe's drain time, not one event per pipe."""
        far, far_pipes = self._steps(0, 63)
        near, near_pipes = self._steps(0, 1)
        assert (far_pipes, near_pipes) == (6, 3)
        assert far == near


class TestIdealDeterminism:
    def test_single_transfer_matches_analytic_time(self):
        spec = ideal_cluster(4)
        net, [d] = _run_sends(spec, [(0, 1, 16384)])
        expected = (
            spec.tcp.wire_bytes(16384) / spec.link_bandwidth
            + net.path_latency(0, 1)
        )
        assert d.transit_time == pytest.approx(expected, rel=1e-12)
        assert d.attempts == 1
        assert d.rto_stall == 0.0

    def test_zero_byte_message_still_takes_latency(self):
        spec = ideal_cluster(4)
        net, [d] = _run_sends(spec, [(0, 1, 0)])
        assert d.transit_time > net.path_latency(0, 1)  # one header frame

    def test_intra_node_message_uses_shared_memory(self):
        spec = ideal_cluster(4)
        _, [d] = _run_sends(spec, [(2, 2, 4096)])
        expected = spec.host.smp_latency + 4096 / spec.host.smp_bandwidth
        assert d.transit_time == pytest.approx(expected, rel=1e-12)

    def test_intra_node_faster_than_inter_node(self):
        spec = ideal_cluster(4)
        _, [dsm] = _run_sends(spec, [(1, 1, 8192)])
        _, [dnet] = _run_sends(spec, [(0, 1, 8192)])
        assert dsm.transit_time < dnet.transit_time

    def test_transfer_time_monotonic_in_size(self):
        spec = ideal_cluster(4)
        times = []
        for size in [0, 64, 1024, 16384, 262144]:
            _, [d] = _run_sends(spec, [(0, 1, size)])
            times.append(d.transit_time)
        assert times == sorted(times)

    def test_reproducible_given_seed(self):
        spec = perseus(8)
        _, a = _run_sends(spec, [(0, 1, 1024), (2, 3, 1024)], seed=5)
        _, b = _run_sends(spec, [(0, 1, 1024), (2, 3, 1024)], seed=5)
        assert [d.arrive_time for d in a] == [d.arrive_time for d in b]


class TestContention:
    def test_shared_nic_serialises_two_senders(self):
        """Two processes on one node sending at once share the 100 Mbit
        uplink: the second message finishes roughly one service time later."""
        spec = ideal_cluster(4)
        _, out = _run_sends(spec, [(0, 1, 16384), (0, 2, 16384)])
        t1, t2 = sorted(d.transit_time for d in out)
        service = spec.tcp.wire_bytes(16384) / spec.link_bandwidth
        assert t2 - t1 == pytest.approx(service, rel=1e-9)

    def test_distinct_nics_do_not_contend(self):
        spec = ideal_cluster(8)
        _, out = _run_sends(spec, [(0, 1, 16384), (2, 3, 16384)])
        times = [d.transit_time for d in out]
        assert times[0] == pytest.approx(times[1], rel=1e-12)

    def test_receiver_nic_is_a_bottleneck(self):
        """Many senders to one receiver queue at its RX pipe (incast)."""
        spec = ideal_cluster(8)
        _, out = _run_sends(spec, [(i, 7, 16384) for i in range(4)])
        finish = sorted(d.arrive_time for d in out)
        service = spec.tcp.wire_bytes(16384) / spec.link_bandwidth
        # Arrivals are spaced by at least one RX service time.
        gaps = np.diff(finish)
        assert np.all(gaps >= service * 0.999)

    def test_contention_raises_mean_transit_on_perseus(self):
        """Sustained traffic from 32 pairs is slower on average than the
        same traffic pattern run by a single pair (Figure 1's effect)."""
        spec = perseus(64)

        def repeated(pairs, seed, reps=30):
            sim = Simulator()
            net = Network(sim, spec, RngRegistry(seed))
            times = []

            def sender(src, dst):
                for _ in range(reps):
                    d = yield net.send(src, dst, 1024)
                    times.append(d.transit_time)

            for src, dst in pairs:
                sim.spawn(sender(src, dst))
            sim.run()
            return float(np.mean(times))

        solo = repeated([(0, 1)], seed=2)
        crowd = repeated([(2 * i, 2 * i + 1) for i in range(32)], seed=2)
        assert crowd > solo * 1.05

    def test_backplane_crossing_uses_stack_links(self):
        spec = perseus(64)
        net, _ = _run_sends(spec, [(0, 40, 65536)])  # switch 0 -> switch 1
        stats = net.stack[(0, "+")].stats
        assert stats.messages == 1
        assert stats.bytes == spec.tcp.wire_bytes(65536)
        assert net.stack[(0, "-")].stats.messages == 0

    def test_reverse_direction_uses_minus_link(self):
        spec = perseus(64)
        net, _ = _run_sends(spec, [(40, 0, 65536)])
        assert net.stack[(0, "-")].stats.messages == 1


class TestLossAndRto:
    def _lossy_spec(self):
        # Negative threshold: even an empty queue (backlog 0) is "over
        # threshold", so every attempt is dropped.
        return perseus(8).with_(
            tcp=TcpModel(
                loss_max_probability=1.0,
                loss_backlog_threshold=-1.0,
                loss_backlog_scale=1e-12,
                max_retransmits=2,
                rto_jitter=0.0,
            )
        )

    def test_total_loss_aborts_after_max_retransmits(self):
        spec = self._lossy_spec()
        sim = Simulator()
        net = Network(sim, spec, RngRegistry(0))
        failures = []

        def sender():
            try:
                yield net.send(0, 1, 1024)
            except TransmissionAborted as exc:
                failures.append(exc.attempts)

        sim.spawn(sender())
        sim.run()
        assert failures == [3]  # initial attempt + 2 retransmits

    def test_partial_loss_adds_rto_stalls(self):
        spec = perseus(8).with_(
            tcp=TcpModel(
                loss_max_probability=0.5,
                loss_backlog_threshold=-1.0,
                loss_backlog_scale=1e-12,
                max_retransmits=50,
                rto_jitter=0.0,
            )
        )
        _, out = _run_sends(spec, [(0, 1, 1024) for _ in range(1)] * 1, seed=3)
        # With p=0.5 per attempt some runs stall; run several seeds to find one.
        stalled = False
        for seed in range(10):
            _, out = _run_sends(spec, [(0, 1, 1024)], seed=seed)
            d = out[0]
            if d.attempts > 1:
                stalled = True
                assert d.rto_stall == pytest.approx((d.attempts - 1) * 0.2)
                assert d.transit_time > 0.2
        assert stalled, "expected at least one retransmission across seeds"

    def test_lossless_spec_never_stalls(self):
        spec = ideal_cluster(8)
        _, out = _run_sends(spec, [(0, 1, 65536) for _ in range(4)])
        assert all(d.attempts == 1 and d.rto_stall == 0.0 for d in out)


class TestValidationAndMonitor:
    def test_bad_nodes_rejected(self):
        spec = ideal_cluster(4)
        sim = Simulator()
        net = Network(sim, spec, RngRegistry(0))
        with pytest.raises(ValueError):
            net.send(0, 4, 10)
        with pytest.raises(ValueError):
            net.send(-1, 0, 10)
        with pytest.raises(ValueError):
            net.send(0, 1, -10)

    def test_path_resources_structure(self):
        spec = perseus(64)
        sim = Simulator()
        net = Network(sim, spec, RngRegistry(0))
        same_switch = net.path_resources(0, 1)
        assert len(same_switch) == 3  # tx + switch fabric + rx
        cross = net.path_resources(0, 40)
        assert len(cross) == 5  # tx + fabric + 1 stack link + fabric + rx
        assert net.path_resources(5, 5) == []

    def test_path_latency_grows_with_switch_hops(self):
        spec = perseus(116)
        sim = Simulator()
        net = Network(sim, spec, RngRegistry(0))
        near = net.path_latency(0, 1)
        far = net.path_latency(0, 115)
        assert far > near

    def test_monitor_reports_and_summary(self):
        spec = perseus(16)
        net, _ = _run_sends(spec, [(i, (i + 8) % 16, 16384) for i in range(8)])
        mon = NetworkMonitor(net)
        reports = mon.reports()
        assert reports, "expected per-resource reports"
        assert reports[0].utilisation >= reports[-1].utilisation
        summary = mon.summary()
        # NIC counters see wire bytes (payload + framing).
        assert summary["total_inter_node_bytes"] == 8 * spec.tcp.wire_bytes(16384)
        assert summary["busiest"] is not None

    def test_resource_stats_keys(self):
        spec = ideal_cluster(2)
        net, _ = _run_sends(spec, [(0, 1, 100)])
        stats = net.resource_stats()
        assert "nic_tx[0]" in stats and "nic_rx[1]" in stats
        assert stats["nic_tx[0]"]["messages"] == 1
