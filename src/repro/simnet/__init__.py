"""Discrete-event cluster network simulator.

This subpackage is the substitute for the physical Perseus cluster the
paper benchmarked (see DESIGN.md section 2): a seeded, deterministic
discrete-event model of nodes, NICs, stacked Ethernet switches and the TCP
behaviour above them.  The simulated MPI runtime (:mod:`repro.smpi`) runs
on top of it; MPIBench and PEVPM never look inside.
"""

from .clock import ClockManager, NodeClock
from .engine import (
    DeadlockError,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .monitor import NetworkMonitor, ResourceReport
from .resources import BandwidthResource, ResourceStats
from .rng import RngRegistry
from .tcp import TcpBehaviour, TransmissionAborted
from .topology import (
    GBIT,
    MBIT,
    ClusterSpec,
    HostModel,
    TcpModel,
    gigabit_cluster,
    ideal_cluster,
    perseus,
)
from .transport import Delivery, Network

__all__ = [
    "BandwidthResource",
    "ClockManager",
    "ClusterSpec",
    "DeadlockError",
    "Delivery",
    "Event",
    "GBIT",
    "HostModel",
    "MBIT",
    "Network",
    "NetworkMonitor",
    "NodeClock",
    "Process",
    "ResourceReport",
    "ResourceStats",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "TcpBehaviour",
    "TcpModel",
    "Timeout",
    "TransmissionAborted",
    "gigabit_cluster",
    "ideal_cluster",
    "perseus",
]
