"""p2p-aqp: approximate aggregation queries in peer-to-peer networks.

A from-scratch reproduction of Arai, Das, Gunopulos & Kalogeraki,
*"Approximating Aggregation Queries in Peer-to-Peer Networks"*
(ICDE 2006): adaptive two-phase random-walk sampling for approximate
COUNT/SUM/AVG/MEDIAN queries over unstructured P2P databases, together
with the full network/data/query substrate and the paper's experiment
harness.

Quickstart
----------

>>> import repro
>>> topology = repro.synthetic_paper_topology(seed=7, scale=0.05)
>>> dataset = repro.generate_dataset(
...     topology, repro.DatasetConfig(num_tuples=50_000), seed=7)
>>> network = repro.NetworkSimulator(topology, dataset.databases, seed=7)
>>> engine = repro.TwoPhaseEngine(network, seed=7)
>>> query = repro.parse_query(
...     "SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30")
>>> result = engine.execute(query, delta_req=0.1)
>>> abs(result.estimate - repro.evaluate_exact(
...     query, dataset.databases)) / dataset.num_tuples < 0.1
True
"""

from .errors import (
    AdmissionError,
    BudgetExceededError,
    ChurnError,
    ConfigurationError,
    DeadlineExceededError,
    PeerDepartedError,
    ProtocolError,
    QueryError,
    QueryParseError,
    ReproError,
    SamplingError,
    ServiceError,
    StaleReplyError,
    TopologyError,
)
from .network import (
    ChurnConfig,
    ChurnProcess,
    CollectionStats,
    CrashWindow,
    FaultPlan,
    FaultState,
    LatencySpike,
    NetworkEstimate,
    NetworkSimulator,
    Peer,
    PeerCapabilities,
    RandomWalkConfig,
    RandomWalker,
    RegionalOutage,
    ResilientCollector,
    RetryPolicy,
    SpectralProfile,
    Topology,
    TopologyConfig,
    WalkResult,
    WeightedMetropolisWalker,
    analyze_topology,
    clustered_power_law,
    estimate_average_degree,
    estimate_network,
    gnutella_2001_like,
    power_law_topology,
    random_regular_topology,
    recommend_jump,
    samples_for_size_estimate,
    synthetic_paper_topology,
)
from .network.generators import gnutella_paper_topology, subgraph_groups
from .network.live import LiveNetwork
from .data import (
    DatasetConfig,
    GeneratedDataset,
    LocalDatabase,
    PlacementConfig,
    ZipfDistribution,
    generate_dataset,
)
from .query import (
    AggregateOp,
    AggregationQuery,
    Between,
    Comparison,
    evaluate_exact,
    evaluate_exact_groups,
    measured_selectivity,
    parse_query,
)
from .query.exact import rank_of_value
from .core import (
    ApproximateResult,
    BatchEngine,
    BiasedConfig,
    BiasedSamplingEngine,
    DistinctResult,
    ExplainReport,
    explain,
    GroupByConfig,
    GroupByEngine,
    GroupByResult,
    HistogramResult,
    MedianConfig,
    MedianEngine,
    MedianResult,
    PhaseConfig,
    PhaseOneAnalysis,
    PlanCache,
    StatisticsConfig,
    StatisticsEngine,
    TupleBudgetPlan,
    TwoPhaseConfig,
    TwoPhaseEngine,
    biased_engine_for_query,
    hajek_estimate,
    horvitz_thompson,
    optimize_tuple_budget,
    probe_weights,
)
from .sampling import BFSEngine, UniformOracleEngine, dfs_engine
from .service import (
    CostBudget,
    QueryOutcome,
    QueryService,
    QueryTicket,
    ServiceStats,
)
from .metrics import CostModel, QueryCost
from .sim import (
    ChurnTimeline,
    ConstantLatency,
    EventDrivenSimulator,
    ExponentialLatency,
    LatencyModel,
    QueryTiming,
    TimelineEntry,
    UniformLatency,
    VirtualClock,
)
from .obs import (
    MetricsRegistry,
    RunManifest,
    Tracer,
    active_tracer,
    read_trace,
    tracing,
    write_manifest,
)
from .io import load_dataset, load_topology, save_dataset, save_topology

__version__ = "1.0.0"

__all__ = [
    # serving layer
    "QueryService",
    "QueryTicket",
    "QueryOutcome",
    "ServiceStats",
    "CostBudget",
    # errors
    "ReproError",
    "ConfigurationError",
    "TopologyError",
    "QueryError",
    "QueryParseError",
    "ServiceError",
    "AdmissionError",
    "BudgetExceededError",
    "SamplingError",
    "ProtocolError",
    "ChurnError",
    "DeadlineExceededError",
    "PeerDepartedError",
    "StaleReplyError",
    # network
    "Topology",
    "TopologyConfig",
    "Peer",
    "PeerCapabilities",
    "RandomWalker",
    "RandomWalkConfig",
    "WalkResult",
    "SpectralProfile",
    "analyze_topology",
    "recommend_jump",
    "NetworkSimulator",
    "ChurnProcess",
    "ChurnConfig",
    "LiveNetwork",
    "WeightedMetropolisWalker",
    "NetworkEstimate",
    "estimate_network",
    "estimate_average_degree",
    "samples_for_size_estimate",
    "synthetic_paper_topology",
    "gnutella_2001_like",
    "gnutella_paper_topology",
    "clustered_power_law",
    "power_law_topology",
    "random_regular_topology",
    "subgraph_groups",
    # fault injection & resilience
    "FaultPlan",
    "FaultState",
    "CrashWindow",
    "RegionalOutage",
    "LatencySpike",
    "RetryPolicy",
    "ResilientCollector",
    "CollectionStats",
    # data
    "DatasetConfig",
    "GeneratedDataset",
    "generate_dataset",
    "PlacementConfig",
    "LocalDatabase",
    "ZipfDistribution",
    # query
    "AggregateOp",
    "AggregationQuery",
    "Between",
    "Comparison",
    "parse_query",
    "evaluate_exact",
    "evaluate_exact_groups",
    "measured_selectivity",
    "rank_of_value",
    # core
    "TwoPhaseEngine",
    "TwoPhaseConfig",
    "PhaseConfig",
    "MedianEngine",
    "MedianConfig",
    "ApproximateResult",
    "MedianResult",
    "PhaseOneAnalysis",
    "horvitz_thompson",
    "hajek_estimate",
    # extensions (paper §1 statistics + §6 open problems)
    "StatisticsEngine",
    "StatisticsConfig",
    "HistogramResult",
    "DistinctResult",
    "PlanCache",
    "BiasedSamplingEngine",
    "BiasedConfig",
    "biased_engine_for_query",
    "probe_weights",
    "GroupByEngine",
    "GroupByConfig",
    "GroupByResult",
    "TupleBudgetPlan",
    "optimize_tuple_budget",
    "ExplainReport",
    "explain",
    "BatchEngine",
    # baselines
    "BFSEngine",
    "dfs_engine",
    "UniformOracleEngine",
    # metrics
    "CostModel",
    "QueryCost",
    # simulated time
    "EventDrivenSimulator",
    "VirtualClock",
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "ExponentialLatency",
    "ChurnTimeline",
    "TimelineEntry",
    "QueryTiming",
    # observability
    "Tracer",
    "tracing",
    "active_tracer",
    "MetricsRegistry",
    "read_trace",
    "RunManifest",
    "write_manifest",
    # persistence
    "save_topology",
    "load_topology",
    "save_dataset",
    "load_dataset",
]
