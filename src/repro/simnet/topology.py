"""Cluster topology description.

A :class:`ClusterSpec` captures everything the network simulator needs to
know about a machine: how many nodes, how many processors per node, which
switch each node hangs off, link and backplane capacities, protocol
parameters, and host software overheads.

The :func:`perseus` factory reproduces the machine evaluated in the paper:

    "Perseus has 116 dual processor nodes, each with 500 MHz Pentium III
    processors and 256 MB of RAM.  Individual nodes are connected by
    commodity switched 100 Mbit/s Ethernet, built around five 24 port
    Intel 510T switches with stackable matrix cards that provide
    2.1 Gbit/s of backplane bandwidth per switch."

All bandwidths are stored in **bytes per second** and all times in
**seconds**.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

__all__ = [
    "HostModel",
    "TcpModel",
    "ClusterSpec",
    "perseus",
    "gigabit_cluster",
    "ideal_cluster",
]

MBIT = 1e6 / 8.0  # one megabit per second, in bytes/s
GBIT = 1e9 / 8.0


@dataclass(frozen=True)
class HostModel:
    """Per-host software costs of sending / receiving a message.

    These model the MPICH + TCP/IP stack traversal on a 500 MHz PIII:
    a fixed per-message overhead plus a per-byte memory-copy cost.  The
    values are calibrated so that the contention-free small-message latency
    and the large-message goodput land in the regime the paper reports
    (~81 Mbit/s payload goodput for 16 KB messages, one-way small-message
    latencies of tens of microseconds).
    """

    send_overhead: float = 28e-6  #: fixed CPU cost to initiate a send (s)
    recv_overhead: float = 25e-6  #: fixed CPU cost to complete a receive (s)
    byte_copy_cost: float = 6e-9  #: per-byte memcpy cost through the stack (s/B)
    smp_latency: float = 12e-6  #: fixed latency for intra-node (shared-memory) messages (s)
    smp_bandwidth: float = 160 * MBIT  #: shared-memory transfer bandwidth (B/s)

    def validate(self) -> None:
        for name in ("send_overhead", "recv_overhead", "byte_copy_cost",
                     "smp_latency"):
            if not getattr(self, name) >= 0:  # NaN fails too
                raise ValueError(f"HostModel.{name} must be non-negative")
        if not self.smp_bandwidth > 0:
            raise ValueError("HostModel.smp_bandwidth must be positive")


@dataclass(frozen=True)
class TcpModel:
    """TCP behaviour relevant to communication benchmarking.

    The paper attributes the extreme outliers in Figures 3-4 to dropped
    packets and retransmission timeouts on a saturated Ethernet:

        "Severe contention on an Ethernet network, however, sometimes leads
        to lost messages and thus retransmissions, which leads to outliers
        in the distribution at values related to the network's
        retransmission timeout parameters."

    We model loss as a per-message Bernoulli event whose probability rises
    with the backlog (queueing delay) at the bottleneck resource the message
    crosses; a loss adds one RTO (plus the time to resend).  Linux 2.2's
    minimum RTO was 200 ms.
    """

    mtu: int = 1500  #: Ethernet MTU in bytes
    preamble_gap_bytes: int = 20  #: preamble (8) + inter-frame gap (12)
    rto: float = 0.200  #: retransmission timeout (s)
    rto_jitter: float = 0.020  #: uniform jitter applied to each RTO (s)
    max_retransmits: int = 6  #: give up (error) after this many RTOs
    loss_backlog_threshold: float = 2.5e-3  #: backlog (s) where loss starts
    loss_backlog_scale: float = 20e-3  #: backlog scale of the loss ramp (s)
    loss_max_probability: float = 0.12  #: ceiling on per-message loss prob

    @property
    def payload_per_frame(self) -> int:
        """TCP payload bytes carried by one full-size frame."""
        return self.mtu - 40  # IP (20) + TCP (20) headers inside the MTU

    @property
    def wire_bytes_per_frame(self) -> int:
        """Total bytes a full frame occupies on the wire, incl. preamble/IFG."""
        return self.mtu + 18 + self.preamble_gap_bytes

    def frames_for(self, payload: int) -> int:
        """Number of frames needed to carry *payload* bytes (at least 1)."""
        if payload < 0:
            raise ValueError("payload must be non-negative")
        per = self.payload_per_frame
        return max(1, -(-payload // per))

    def wire_bytes(self, payload: int) -> int:
        """Bytes that *payload* occupies on the wire including all per-frame
        overhead (Ethernet + IP + TCP headers, preamble, inter-frame gap)."""
        frames = self.frames_for(payload)
        overhead = 18 + 20 + 20 + self.preamble_gap_bytes  # per frame
        return payload + frames * overhead

    def validate(self) -> None:
        if self.mtu <= 40:
            raise ValueError("TcpModel.mtu must exceed 40 bytes of headers")
        if not self.rto > 0:
            raise ValueError("TcpModel.rto must be positive")
        if not self.rto_jitter >= 0:
            raise ValueError("TcpModel.rto_jitter must be non-negative")
        if not self.loss_backlog_scale > 0:
            raise ValueError("TcpModel.loss_backlog_scale must be positive")
        # A negative threshold is allowed: loss from zero backlog on.
        if math.isnan(self.loss_backlog_threshold):
            raise ValueError("TcpModel.loss_backlog_threshold must not be NaN")
        if not 0.0 <= self.loss_max_probability <= 1.0:
            raise ValueError("loss_max_probability must be in [0, 1]")
        if self.max_retransmits < 0:
            raise ValueError("max_retransmits must be non-negative")


@dataclass(frozen=True)
class ClusterSpec:
    """Complete description of a simulated cluster.

    Nodes are assigned to switches round-robin in blocks:  node ``i`` hangs
    off switch ``i // ports_per_switch``.  Switches are stacked in a chain;
    traffic between switch ``a`` and switch ``b`` crosses every stacking
    link between them, each of which has ``backplane_bandwidth`` capacity.
    """

    name: str = "cluster"
    n_nodes: int = 16
    processors_per_node: int = 2
    link_bandwidth: float = 100 * MBIT  #: node uplink capacity (B/s), full duplex
    link_latency: float = 25e-6  #: one-way wire + switch port latency (s)
    switch_latency: float = 8e-6  #: store-and-forward latency per switch hop (s)
    ports_per_switch: int = 24
    n_switches: int = 1
    backplane_bandwidth: float = 2.1 * GBIT  #: per stacking link (B/s)
    #: shared switching capacity of each switch's internal fabric (B/s).
    #: 24 ports x 100 Mbit/s = 2.4 Gbit/s offered load against a 2.1 Gbit/s
    #: fabric: a fully busy switch is ~1.14x oversubscribed, which is where
    #: the growing contention with node count (Figure 1) comes from.
    switch_fabric_bandwidth: float = 2.1 * GBIT
    host: HostModel = field(default_factory=HostModel)
    tcp: TcpModel = field(default_factory=TcpModel)
    eager_threshold: int = 16 * 1024  #: MPICH eager->rendezvous switch (B)
    #: multiplicative jitter: service times are scaled by LogNormal(0, sigma)
    #: clamped at >=1, with sigma growing with the number of concurrently
    #: in-flight messages sharing the path -- see transport.py.
    jitter_base_sigma: float = 0.04
    jitter_contention_sigma: float = 0.35
    #: per-message congestion delay: each concurrently in-flight message
    #: sharing a path resource adds an exponential delay with this mean.
    #: Models per-packet OS/interrupt and switch-ASIC contention costs that
    #: a message-granular bandwidth model cannot capture; calibrated so a
    #: 1 KB message with 64 communicating processes runs ~70% slower than
    #: contention-free (the paper's Figure 1 observation).
    congestion_delay_mean: float = 4e-6
    #: serial compute time for one whole-grid Jacobi sweep of the paper's
    #: 256x256 problem, used by apps and the PEVPM Serial directive (s).
    jacobi_serial_time: float = 3.24e-3

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.processors_per_node < 1:
            raise ValueError("processors_per_node must be >= 1")
        # Written as `not x > 0` / `not x >= 0` so NaN fails too.
        if not (
            self.link_bandwidth > 0
            and self.backplane_bandwidth > 0
            and self.switch_fabric_bandwidth > 0
        ):
            raise ValueError("bandwidths must be positive")
        if not (self.link_latency >= 0 and self.switch_latency >= 0):
            raise ValueError("latencies must be non-negative")
        for name in ("jitter_base_sigma", "jitter_contention_sigma",
                     "congestion_delay_mean"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"ClusterSpec.{name} must be non-negative")
        needed = -(-self.n_nodes // self.ports_per_switch)
        if self.n_switches < needed:
            raise ValueError(
                f"{self.n_nodes} nodes need at least {needed} switches of "
                f"{self.ports_per_switch} ports, got {self.n_switches}"
            )
        if self.eager_threshold < 0:
            raise ValueError("eager_threshold must be non-negative")
        self.host.validate()
        self.tcp.validate()

    # -- placement ----------------------------------------------------------
    def switch_of(self, node: int) -> int:
        """Index of the switch that *node* is cabled to."""
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range [0, {self.n_nodes})")
        return node // self.ports_per_switch

    def stacking_links(self, src_switch: int, dst_switch: int) -> list[int]:
        """Indices of the stacking links crossed between two switches.

        Link *k* joins switch *k* and switch *k+1* in the stack chain.
        """
        for s in (src_switch, dst_switch):
            if not 0 <= s < self.n_switches:
                raise ValueError(f"switch {s} out of range [0, {self.n_switches})")
        lo, hi = sorted((src_switch, dst_switch))
        return list(range(lo, hi))

    @property
    def total_processors(self) -> int:
        return self.n_nodes * self.processors_per_node

    def with_(self, **changes) -> "ClusterSpec":
        """Functional update, e.g. ``spec.with_(eager_threshold=8192)``."""
        return replace(self, **changes)


def perseus(n_nodes: int = 116) -> ClusterSpec:
    """The Perseus cluster of the paper (Section 3), possibly truncated.

    116 dual-PIII nodes on switched 100 Mbit/s Fast Ethernet; five 24-port
    Intel 510T switches stacked with 2.1 Gbit/s matrix cards.
    """
    if not 1 <= n_nodes <= 116:
        raise ValueError("perseus has between 1 and 116 nodes")
    return ClusterSpec(
        name="perseus",
        n_nodes=n_nodes,
        processors_per_node=2,
        link_bandwidth=100 * MBIT,
        ports_per_switch=24,
        n_switches=5,
        backplane_bandwidth=2.1 * GBIT,
    )


def gigabit_cluster(n_nodes: int = 64) -> ClusterSpec:
    """A follow-on commodity cluster with Gigabit Ethernet.

    The thesis behind the paper validated PEVPM "on a variety of cluster
    computers with different communication networks"; this factory gives a
    second network point: 1 Gbit/s links into a single large modular
    switch with ample fabric, lower per-message host overheads (faster
    CPUs), and a 200 ms RTO.  Contention effects are far milder than on
    perseus -- which cross-network experiments can demonstrate.
    """
    if not 1 <= n_nodes <= 128:
        raise ValueError("gigabit cluster supports 1-128 nodes")
    return ClusterSpec(
        name="gigabit",
        n_nodes=n_nodes,
        processors_per_node=2,
        link_bandwidth=1000 * MBIT,
        link_latency=15e-6,
        switch_latency=4e-6,
        ports_per_switch=128,
        n_switches=1,
        backplane_bandwidth=32 * GBIT,
        switch_fabric_bandwidth=32 * GBIT,
        host=HostModel(
            send_overhead=12e-6,
            recv_overhead=10e-6,
            byte_copy_cost=2e-9,
            smp_latency=6e-6,
            smp_bandwidth=800 * MBIT,
        ),
        # A 10x faster network drains queues 10x sooner: both the
        # per-message contention cost and its spread scale down.
        congestion_delay_mean=0.4e-6,
        jitter_contention_sigma=0.18,
        jacobi_serial_time=1.1e-3,  # faster CPUs sweep the grid sooner
    )


def ideal_cluster(n_nodes: int = 16, processors_per_node: int = 1) -> ClusterSpec:
    """A contention-light, loss-free cluster for deterministic tests.

    Infinite-ish backplane, no TCP loss, no jitter: message times collapse
    to the deterministic ``l + b/W`` form, which unit tests can predict
    exactly.
    """
    n_switches = max(1, -(-n_nodes // 24))
    return ClusterSpec(
        name="ideal",
        n_nodes=n_nodes,
        processors_per_node=processors_per_node,
        n_switches=n_switches,
        backplane_bandwidth=1e12,
        switch_fabric_bandwidth=1e12,
        jitter_base_sigma=0.0,
        jitter_contention_sigma=0.0,
        congestion_delay_mean=0.0,
        tcp=TcpModel(loss_max_probability=0.0),
    )
