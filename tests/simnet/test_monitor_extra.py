"""Additional monitor / transport diagnostics tests."""

import pytest

from repro.simnet import (
    Network,
    NetworkMonitor,
    RngRegistry,
    Simulator,
    gigabit_cluster,
    ideal_cluster,
    perseus,
)


def _flood(spec, sends, seed=0):
    sim = Simulator()
    net = Network(sim, spec, RngRegistry(seed))

    def sender(src, dst, size, reps):
        for _ in range(reps):
            yield from net.send(src, dst, size)

    for src, dst, size, reps in sends:
        sim.spawn(sender(src, dst, size, reps))
    sim.run()
    return net


class TestSaturationDetection:
    def test_saturated_flags_hot_links(self):
        spec = perseus(48)
        # 24 sustained cross-switch flows: the first stacking link chokes.
        net = _flood(spec, [(i, i + 24, 65536, 12) for i in range(24)])
        mon = NetworkMonitor(net)
        sat = mon.saturated()
        assert sat, "expected saturated resources under a cross-switch flood"
        names = {r.name for r in sat}
        assert any("stack[0]" in n for n in names) or any(
            "nic" in n for n in names
        )

    def test_idle_network_reports_nothing_saturated(self):
        net = _flood(ideal_cluster(4), [(0, 1, 1024, 2)])
        mon = NetworkMonitor(net)
        assert mon.saturated() == []

    def test_backplane_reports_cover_all_links(self):
        spec = perseus(116)
        net = _flood(spec, [(0, 100, 1024, 1)])
        mon = NetworkMonitor(net)
        reports = mon.backplane_reports()
        assert len(reports) == 2 * (spec.n_switches - 1)  # both directions

    def test_summary_fields(self):
        net = _flood(perseus(8), [(0, 4, 4096, 3)])
        s = NetworkMonitor(net).summary()
        assert s["elapsed_s"] > 0
        assert s["busiest"] is not None
        assert s["total_inter_node_bytes"] > 3 * 4096  # wire > payload
        assert s["n_saturated"] >= 0

    def test_queued_fraction_rises_under_load(self):
        spec = perseus(8)
        light = _flood(spec, [(0, 4, 1024, 2)])
        heavy = _flood(spec, [(0, 4, 16384, 30), (1, 4, 16384, 30)])
        q_light = max(r.queued_fraction for r in NetworkMonitor(light).reports())
        q_heavy = max(r.queued_fraction for r in NetworkMonitor(heavy).reports())
        assert q_heavy > q_light


class TestGigabitTransport:
    def test_transfer_faster_than_fast_ethernet(self):
        for size in (1024, 65536):
            tg = _one_transfer(gigabit_cluster(4), size)
            tf = _one_transfer(perseus(4), size)
            assert tg < tf

    def test_single_switch_path(self):
        spec = gigabit_cluster(64)
        sim = Simulator()
        net = Network(sim, spec, RngRegistry(0))
        # Single switch: no stacking links on any path.
        path = net.path_resources(0, 63)
        assert len(path) == 3  # tx + fabric + rx
        assert net.stack == {}


def _one_transfer(spec, size):
    sim = Simulator()
    net = Network(sim, spec, RngRegistry(1))
    out = {}

    def sender():
        d = yield from net.send(0, 1, size)
        out["t"] = d.transit_time

    sim.spawn(sender())
    sim.run()
    return out["t"]
