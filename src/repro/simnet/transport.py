"""End-to-end message transport across the simulated cluster fabric.

A message from a process on node *s* to a process on node *d* crosses, in
a pipelined fashion:

* the sending node's NIC transmit pipe (100 Mbit/s on Perseus),
* zero or more inter-switch stacking links (2.1 Gbit/s each),
* the receiving node's NIC receive pipe.

Each of those is a :class:`~repro.simnet.resources.BandwidthResource`; the
message reserves its wire-byte footprint on all of them concurrently and
completes (one kernel event) when the slowest reservation drains, plus the
fixed propagation/switching latency of the path.  This "reserve everywhere,
finish at the max" scheme models store-and-forward pipelining at message
granularity: with empty queues the transfer time is ``latency +
wire_bytes/bottleneck_rate``, and under load each shared pipe contributes
its own queueing delay -- which is exactly the contention MPIBench measures.

Two stochastic effects ride on top:

* **contention jitter** -- the NIC service time is scaled by a lognormal
  factor whose spread grows with the bottleneck backlog, modelling OS
  scheduling, interrupt coalescing and Ethernet back-off variability that
  grow under load (this produces the widening PDFs of Figure 3);
* **TCP loss** -- per-attempt drops with backlog-dependent probability,
  each costing a retransmission timeout (the Figure 4 outliers).

Intra-node messages bypass the fabric entirely and use the host's
shared-memory latency/bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import Process, Simulator
from .resources import BandwidthResource
from .rng import RngRegistry
from .tcp import TcpBehaviour, TransmissionAborted
from .topology import ClusterSpec

__all__ = ["Delivery", "Network"]


@dataclass(frozen=True)
class Delivery:
    """Outcome of one message transit, returned by :meth:`Network.send`."""

    src_node: int
    dst_node: int
    payload: int  #: MPI payload bytes
    depart_time: float  #: true simulated time the message entered the fabric
    arrive_time: float  #: true simulated time the last byte arrived
    attempts: int  #: 1 for a clean transit, >1 if retransmitted
    rto_stall: float  #: total time spent stalled in retransmission timeouts

    @property
    def transit_time(self) -> float:
        return self.arrive_time - self.depart_time


class Network:
    """The cluster fabric: all shared pipes plus the stochastic models."""

    def __init__(self, sim: Simulator, spec: ClusterSpec, rngs: RngRegistry):
        self.sim = sim
        self.spec = spec
        self.tcp = TcpBehaviour(spec.tcp, rngs)
        self._jitter = rngs.stream("link.jitter")

        self.nic_tx = [
            BandwidthResource(sim, spec.link_bandwidth, name=f"nic_tx[{i}]")
            for i in range(spec.n_nodes)
        ]
        self.nic_rx = [
            BandwidthResource(sim, spec.link_bandwidth, name=f"nic_rx[{i}]")
            for i in range(spec.n_nodes)
        ]
        # One resource per stacking link per direction (full duplex).
        n_links = max(0, spec.n_switches - 1)
        self.stack = {
            (k, direction): BandwidthResource(
                sim, spec.backplane_bandwidth, name=f"stack[{k}]{direction}"
            )
            for k in range(n_links)
            for direction in ("+", "-")
        }
        # Each switch's internal fabric is shared by all its ports; with
        # 24 x 100 Mbit/s ports on a 2.1 Gbit/s fabric a fully loaded
        # switch is slightly oversubscribed -- the physical origin of the
        # node-count contention in Figure 1.
        self.fabric = [
            BandwidthResource(sim, spec.switch_fabric_bandwidth, name=f"fabric[{s}]")
            for s in range(spec.n_switches)
        ]
        #: number of inter-node messages currently in transit anywhere in
        #: the fabric.  This is the simulator's contention level -- the same
        #: quantity PEVPM tracks on its contention scoreboard ("the total
        #: number of messages on the scoreboard"), so the ground truth and
        #: the model agree on what contention *is*.
        self.active_transfers = 0
        #: (src, dst) -> (path_resources tuple, path_latency), on first use
        self._routes: dict[tuple[int, int], tuple] = {}

    # -- path construction ---------------------------------------------------
    def path_resources(self, src_node: int, dst_node: int) -> list[BandwidthResource]:
        """All shared pipes a (src -> dst) message reserves, in hop order."""
        if src_node == dst_node:
            return []
        ssw = self.spec.switch_of(src_node)
        dsw = self.spec.switch_of(dst_node)
        direction = "+" if dsw >= ssw else "-"
        path: list[BandwidthResource] = [self.nic_tx[src_node], self.fabric[ssw]]
        for link in self.spec.stacking_links(ssw, dsw):
            path.append(self.stack[(link, direction)])
        if dsw != ssw:
            path.append(self.fabric[dsw])
        path.append(self.nic_rx[dst_node])
        return path

    def path_latency(self, src_node: int, dst_node: int) -> float:
        """Fixed propagation + switching latency of the path (seconds)."""
        if src_node == dst_node:
            return self.spec.host.smp_latency
        ssw = self.spec.switch_of(src_node)
        dsw = self.spec.switch_of(dst_node)
        switch_hops = 1 + abs(dsw - ssw)
        return 2 * self.spec.link_latency + switch_hops * self.spec.switch_latency

    # -- stochastic helpers ----------------------------------------------------
    def _jitter_scale(self, contention: int) -> float:
        """Multiplicative lognormal service-time jitter.

        sigma interpolates from ``jitter_base_sigma`` (idle) towards
        ``jitter_base_sigma + jitter_contention_sigma`` as the number of
        concurrently in-flight messages sharing the path grows; the
        saturating form keeps extreme contention from producing unbounded
        variance.  This is what widens the measured PDFs with n x p
        (Figure 3).
        """
        s = self.spec
        if s.jitter_base_sigma == 0.0 and s.jitter_contention_sigma == 0.0:
            return 1.0
        softness = 12.0  # in-flight count at which half the extra spread applies
        sigma = s.jitter_base_sigma + s.jitter_contention_sigma * (
            contention / (contention + softness)
        )
        # Clamp at 1: jitter only ever slows a transfer down, so the
        # contention-free time is a hard lower bound -- the paper's PDFs
        # "rise from a bounded minimum time".
        return max(1.0, float(self._jitter.lognormal(mean=0.0, sigma=sigma)))

    def _congestion_delay(self, contention: int) -> float:
        """Additive per-message cost of sharing the path with *contention*
        other in-flight messages.

        Models the per-packet costs a message-granular bandwidth model
        cannot see: interrupt handling for interleaved streams, switch-ASIC
        arbitration, Ethernet flow control.  Exponentially distributed with
        mean ``congestion_delay_mean * contention``: zero when alone, and
        growing linearly with the number of simultaneous communicating
        processes -- the Figure 1 effect, and the reason a fixed ping-pong
        'average' mispredicts large machines.
        """
        mean = self.spec.congestion_delay_mean * contention
        if mean <= 0.0:
            return 0.0
        return float(self._jitter.exponential(mean))

    # -- sending -----------------------------------------------------------------
    def send(self, src_node: int, dst_node: int, payload: int) -> Process:
        """Inject a message; returns a Process whose value is a :class:`Delivery`.

        The caller (the simulated MPI layer) typically does::

            delivery = yield network.send(src, dst, nbytes)
        """
        for node in (src_node, dst_node):
            if not 0 <= node < self.spec.n_nodes:
                raise ValueError(f"node {node} outside cluster of {self.spec.n_nodes}")
        if payload < 0:
            raise ValueError("payload must be non-negative")
        return self.sim.spawn(self._transfer(src_node, dst_node, payload), name="xfer")

    def _transfer(self, src_node: int, dst_node: int, payload: int):
        sim = self.sim
        depart = sim.now

        if src_node == dst_node:
            # Shared-memory path: latency + bandwidth, light jitter only.
            host = self.spec.host
            delay = host.smp_latency + payload / host.smp_bandwidth
            delay *= self._jitter_scale(0.0)
            yield sim.timeout(delay)
            return Delivery(src_node, dst_node, payload, depart, sim.now, 1, 0.0)

        wire = self.spec.tcp.wire_bytes(payload)
        key = (src_node, dst_node)
        if key not in self._routes:
            path = tuple(self.path_resources(*key))
            self._routes[key] = (path, self.path_latency(*key))
        path, latency = self._routes[key]
        nic_tx, *switches, nic_rx = path
        attempts = 0
        stall = 0.0

        # Contention seen by this message: every other message currently in
        # transit through the fabric (the PEVPM scoreboard population).
        contention = self.active_transfers
        self.active_transfers += 1
        try:
            while True:
                attempts += 1
                backlog = max([r.backlog for r in path])
                scale = self._jitter_scale(contention)
                # Jitter models host/NIC-side variability; the switch
                # backplane is a deterministic fabric, so only the two
                # NIC pipes get the scaled service time.  The attempt
                # completes when its slowest reservation has drained; that
                # event is scheduled before the congestion timeout, so at
                # equal times it fires first.
                drained = nic_tx.transmit(wire, scale)
                for res in switches:
                    drained = max(drained, res.transmit(wire))
                drained = max(drained, nic_rx.transmit(wire, scale))
                done = sim.event("drained")
                sim._schedule(drained, done, None)
                congestion = self._congestion_delay(contention)
                if congestion > 0.0:
                    yield sim.timeout(congestion)
                yield done

                if not self.tcp.attempt_is_lost(backlog):
                    break
                if attempts > self.spec.tcp.max_retransmits:
                    raise TransmissionAborted(attempts)
                rto = self.tcp.sample_rto()
                stall += rto
                yield sim.timeout(rto)

            yield sim.timeout(latency)
        finally:
            self.active_transfers -= 1
        return Delivery(src_node, dst_node, payload, depart, sim.now, attempts, stall)

    # -- diagnostics -----------------------------------------------------------------
    def resource_stats(self) -> dict[str, dict]:
        """Snapshot of every pipe's counters, keyed by resource name."""
        out = {}
        for res in (*self.nic_tx, *self.nic_rx, *self.fabric, *self.stack.values()):
            out[res.name] = res.stats.as_dict()
        return out
