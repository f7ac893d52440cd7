"""Unstructured P2P network substrate.

This subpackage implements everything the paper assumes about the
network side of the system:

* :mod:`repro.network.peer` — peer identity and capability model (§3.1);
* :mod:`repro.network.topology` — the immutable connection graph with a
  CSR adjacency hot path and stationary-distribution helpers (§3.3);
* :mod:`repro.network.generators` — synthetic power-law topologies with
  controllable sub-graphs/cut sizes, and a Gnutella-2001-like generator
  (§5.2.1);
* :mod:`repro.network.walker` — the Markov-chain random walk with the
  jump parameter ``j`` (§3.3, §4);
* :mod:`repro.network.spectral` — second-eigenvalue / mixing-time
  pre-processing (§3.3);
* :mod:`repro.network.protocol` — Gnutella-style typed messages (§3.1);
* :mod:`repro.network.simulator` — the in-process message bus with
  latency/bandwidth accounting, tying peers + topology + data together;
* :mod:`repro.network.churn` — peer join/leave dynamics;
* :mod:`repro.network.faults` — deterministic fault injection (crash
  windows, regional outages, reply loss, latency spikes/timeouts).
"""

from .peer import Peer, PeerCapabilities
from .topology import Topology
from .generators import (
    TopologyConfig,
    clustered_power_law,
    gnutella_2001_like,
    power_law_topology,
    random_regular_topology,
    synthetic_paper_topology,
)
from .walker import (
    CollectionStats,
    RandomWalkConfig,
    RandomWalker,
    ResilientCollector,
    RetryPolicy,
    WalkResult,
    WeightedMetropolisWalker,
)
from .faults import (
    CrashWindow,
    FaultDecision,
    FaultPlan,
    FaultState,
    LatencySpike,
    RegionalOutage,
)
from .discovery import (
    NetworkEstimate,
    estimate_average_degree,
    estimate_network,
    samples_for_size_estimate,
)
from .spectral import SpectralProfile, analyze_topology, recommend_jump
from .protocol import (
    AggregateReply,
    AggregateSample,
    Message,
    MessageType,
    Ping,
    Pong,
    Query,
    QueryHit,
    TupleReply,
    WalkerProbe,
)
from .simulator import NetworkSimulator
from .churn import ChurnConfig, ChurnProcess
from .live import LiveNetwork

__all__ = [
    "Peer",
    "PeerCapabilities",
    "Topology",
    "TopologyConfig",
    "clustered_power_law",
    "gnutella_2001_like",
    "power_law_topology",
    "random_regular_topology",
    "synthetic_paper_topology",
    "RandomWalkConfig",
    "RandomWalker",
    "WalkResult",
    "WeightedMetropolisWalker",
    "RetryPolicy",
    "CollectionStats",
    "ResilientCollector",
    "FaultPlan",
    "FaultState",
    "FaultDecision",
    "CrashWindow",
    "RegionalOutage",
    "LatencySpike",
    "NetworkEstimate",
    "estimate_network",
    "estimate_average_degree",
    "samples_for_size_estimate",
    "SpectralProfile",
    "analyze_topology",
    "recommend_jump",
    "Message",
    "MessageType",
    "Ping",
    "Pong",
    "Query",
    "QueryHit",
    "WalkerProbe",
    "AggregateReply",
    "AggregateSample",
    "TupleReply",
    "NetworkSimulator",
    "ChurnConfig",
    "ChurnProcess",
    "LiveNetwork",
]
