"""Tests for cluster topology specifications."""

import dataclasses

import pytest

from repro.simnet.topology import (
    GBIT,
    MBIT,
    ClusterSpec,
    HostModel,
    TcpModel,
    ideal_cluster,
    perseus,
)

NAN = float("nan")


def _change_id(changes: dict) -> str:
    """``field=value`` for a spec change; ``host.field=value`` when the
    change swaps in a sub-model that differs from its default in one
    field."""
    (name, value), = changes.items()
    if dataclasses.is_dataclass(value):
        default = type(value)()
        field = next(
            f.name for f in dataclasses.fields(value)
            if getattr(value, f.name) != getattr(default, f.name)
        )
        name, value = f"{name}.{field}", getattr(value, field)
    return f"{name}={value}"


class TestPerseus:
    def test_matches_paper_description(self):
        spec = perseus()
        assert spec.n_nodes == 116
        assert spec.processors_per_node == 2
        assert spec.link_bandwidth == pytest.approx(100 * MBIT)
        assert spec.ports_per_switch == 24
        assert spec.n_switches == 5
        assert spec.backplane_bandwidth == pytest.approx(2.1 * GBIT)
        assert spec.eager_threshold == 16 * 1024

    def test_truncation(self):
        assert perseus(8).n_nodes == 8

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            perseus(0)
        with pytest.raises(ValueError):
            perseus(117)

    def test_total_processors(self):
        assert perseus(64).total_processors == 128


class TestPlacement:
    def test_switch_assignment_blocks_of_24(self):
        spec = perseus()
        assert spec.switch_of(0) == 0
        assert spec.switch_of(23) == 0
        assert spec.switch_of(24) == 1
        assert spec.switch_of(115) == 4

    def test_switch_of_out_of_range(self):
        spec = perseus(10)
        with pytest.raises(ValueError):
            spec.switch_of(10)
        with pytest.raises(ValueError):
            spec.switch_of(-1)

    def test_stacking_links_same_switch(self):
        assert perseus().stacking_links(2, 2) == []

    def test_stacking_links_adjacent(self):
        assert perseus().stacking_links(0, 1) == [0]
        assert perseus().stacking_links(1, 0) == [0]

    def test_stacking_links_span(self):
        assert perseus().stacking_links(0, 3) == [0, 1, 2]
        assert perseus().stacking_links(4, 1) == [1, 2, 3]

    def test_stacking_links_out_of_range(self):
        with pytest.raises(ValueError):
            perseus().stacking_links(0, 5)


class TestValidation:
    def test_too_few_switches_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(n_nodes=30, ports_per_switch=24, n_switches=1)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(link_bandwidth=0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(link_latency=-1e-6)

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(n_nodes=0)

    @pytest.mark.parametrize("changes", [
        {"link_latency": NAN},
        {"switch_latency": NAN},
        {"link_bandwidth": NAN},
        {"backplane_bandwidth": NAN},
        {"switch_fabric_bandwidth": NAN},
        {"jitter_base_sigma": -1.0},
        {"jitter_base_sigma": NAN},
        {"jitter_contention_sigma": -0.1},
        {"jitter_contention_sigma": NAN},
        {"congestion_delay_mean": -1.0},
        {"congestion_delay_mean": NAN},
        {"host": HostModel(send_overhead=NAN)},
        {"host": HostModel(smp_bandwidth=NAN)},
        {"tcp": TcpModel(rto=NAN)},
        {"tcp": TcpModel(rto_jitter=-0.5)},
        {"tcp": TcpModel(loss_backlog_scale=0.0)},
        {"tcp": TcpModel(loss_backlog_scale=NAN)},
        {"tcp": TcpModel(loss_backlog_threshold=NAN)},
    ], ids=_change_id)
    def test_invalid_value_rejected_when_built(self, changes):
        # NaN passes `x < 0` and `x <= 0`; a bad value must fail when
        # the spec is built, not mid-run or silently read as zero.
        with pytest.raises(ValueError):
            perseus(4).with_(**changes)

    def test_with_functional_update(self):
        spec = perseus()
        spec2 = spec.with_(eager_threshold=8192)
        assert spec2.eager_threshold == 8192
        assert spec.eager_threshold == 16 * 1024  # original untouched
        assert spec2.n_nodes == spec.n_nodes


class TestTcpModel:
    def test_frames_for_zero_payload_is_one(self):
        tcp = TcpModel()
        assert tcp.frames_for(0) == 1

    def test_frames_for_exact_multiple(self):
        tcp = TcpModel()
        per = tcp.payload_per_frame
        assert tcp.frames_for(per) == 1
        assert tcp.frames_for(per + 1) == 2
        assert tcp.frames_for(10 * per) == 10

    def test_wire_bytes_monotonic_in_payload(self):
        tcp = TcpModel()
        sizes = [0, 1, 100, 1460, 1461, 16384, 65536]
        wires = [tcp.wire_bytes(s) for s in sizes]
        assert wires == sorted(wires)
        for s, w in zip(sizes, wires):
            assert w > s  # overhead is strictly positive

    def test_wire_bytes_overhead_per_frame(self):
        tcp = TcpModel()
        # One frame carries 78 bytes of overhead: 18 Eth + 20 IP + 20 TCP
        # + 20 preamble/IFG.
        assert tcp.wire_bytes(0) == 78
        assert tcp.wire_bytes(1000) == 1000 + 78

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            TcpModel().frames_for(-1)

    def test_invalid_models_rejected(self):
        with pytest.raises(ValueError):
            TcpModel(mtu=40).validate()
        with pytest.raises(ValueError):
            TcpModel(rto=0).validate()
        with pytest.raises(ValueError):
            TcpModel(loss_max_probability=1.5).validate()
        with pytest.raises(ValueError):
            TcpModel(max_retransmits=-1).validate()


class TestHostModel:
    def test_defaults_validate(self):
        HostModel().validate()

    def test_negative_overhead_rejected(self):
        with pytest.raises(ValueError):
            HostModel(send_overhead=-1e-6).validate()

    def test_zero_smp_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            HostModel(smp_bandwidth=0).validate()


class TestIdealCluster:
    def test_is_deterministic_and_lossless(self):
        spec = ideal_cluster(8)
        assert spec.jitter_base_sigma == 0.0
        assert spec.jitter_contention_sigma == 0.0
        assert spec.congestion_delay_mean == 0.0
        assert spec.tcp.loss_max_probability == 0.0

    def test_enough_switches_for_large_counts(self):
        spec = ideal_cluster(100)
        assert spec.n_switches * spec.ports_per_switch >= 100
