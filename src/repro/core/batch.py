"""Multi-query batching: one walk answers a whole dashboard.

Decision-support workloads rarely ask one aggregate — they ask a panel
of them.  Running the two-phase algorithm per query multiplies the
dominant cost (peer visits) by the number of queries, yet every query
could have been evaluated on the *same* visited peers: the walk is
query-independent, and a visit's sub-sample serves any number of
predicates (see :meth:`NetworkSimulator.visit_multi_aggregate`).

:class:`BatchEngine` exploits that:

1. one phase-I walk; every visited peer evaluates all queries on one
   shared sub-sample (one visit overhead, one scan, k tiny replies);
2. per-query sink analysis exactly as in the scalar engine;
3. one phase-II walk sized by the *most demanding* query
   (``m' = max_q m'_q``) — extra observations are free for the easier
   queries and only tighten their estimates;
4. per-query pooled estimates and confidence intervals.

The batch meets every query's requirement at roughly the cost of its
hardest member instead of the sum.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .._util import SeedLike, ensure_rng
from ..errors import (
    ConfigurationError,
    PeerUnavailableError,
    SamplingError,
)
from ..metrics.cost import CostLedger
from ..network.protocol import AggregateReply, AggregateSample, WalkerProbe
from ..network.simulator import NetworkSimulator
from ..network.walker import RandomWalker
from ..query.model import AggregationQuery
from .confidence import query_confidence_interval
from .estimators import (
    estimate_query,
    make_estimator,
    observations_from_replies,
)
from .planner import analyze_phase_one
from .result import ApproximateResult, PhaseReport
from .two_phase import TwoPhaseConfig


__all__ = [
    "BatchEngine",
]


class BatchEngine:
    """Answers a batch of COUNT/SUM/AVG queries from shared walks."""

    def __init__(
        self,
        simulator: NetworkSimulator,
        config: Optional[TwoPhaseConfig] = None,
        seed: SeedLike = None,
    ):
        self._simulator = simulator
        self._config = config or TwoPhaseConfig()
        self._rng = ensure_rng(seed)
        self._walker = RandomWalker(
            simulator.topology,
            config=self._config.walk_config(),
            seed=self._rng.spawn(1)[0],
        )
        self._visit_rng = self._rng.spawn(1)[0]
        self._point, self._variance = make_estimator(
            self._config.estimator, simulator.topology.num_peers
        )

    @property
    def config(self) -> TwoPhaseConfig:
        """The engine configuration."""
        return self._config

    # ------------------------------------------------------------------

    def _collect(
        self,
        sink: int,
        queries: Sequence[AggregationQuery],
        count: int,
        ledger: CostLedger,
    ) -> List[AggregateSample]:
        """One walk; returns one sample per query."""
        walk = self._walker.sample_peers(sink, count)
        probe = WalkerProbe(
            source=sink, destination=sink, sink=sink,
            query_text="; ".join(q.to_sql() for q in queries),
            tuples_per_peer=self._config.tuples_per_peer,
        )
        self._simulator.walk_hops(
            walk.hops, ledger, message_bytes=probe.size_bytes()
        )
        per_query: List[List[AggregateReply]] = [[] for _ in queries]
        for peer in walk.peers:
            try:
                replies = self._simulator.visit_multi_aggregate(
                    int(peer),
                    queries,
                    sink=sink,
                    ledger=ledger,
                    tuples_per_peer=self._config.tuples_per_peer,
                    sampling_method=self._config.sampling_method,
                    seed=self._visit_rng,
                )
            except PeerUnavailableError:
                continue
            for index, reply in enumerate(replies):
                per_query[index].append(reply)
        topology = self._simulator.topology
        return [
            observations_from_replies(
                AggregateSample.from_replies(replies, sink),
                num_edges=topology.num_edges,
                num_peers=topology.num_peers,
                variant=self._config.walk_variant,
            )
            for replies in per_query
        ]

    # ------------------------------------------------------------------

    def execute(
        self,
        queries: Sequence[AggregationQuery],
        delta_req: float,
        sink: Optional[int] = None,
    ) -> List[ApproximateResult]:
        """Answer every query within ``delta_req`` from shared walks.

        Returns one :class:`ApproximateResult` per query, in input
        order.  Each result's ``cost`` is the *shared* batch cost (the
        whole batch paid it once); `total_peers_visited` likewise
        reflects the shared visits.
        """
        if not queries:
            raise ConfigurationError("queries must be non-empty")
        for query in queries:
            if not query.agg.supports_pushdown:
                raise ConfigurationError(
                    f"{query.agg.value} cannot be batched"
                )
            if query.group_by is not None:
                raise ConfigurationError(
                    "GROUP BY queries use GroupByEngine"
                )
        if sink is None:
            sink = int(self._rng.integers(self._simulator.num_peers))
        ledger = self._simulator.new_ledger()
        timing_token = self._simulator.begin_timing()

        # Phase I: one walk serves every query.
        phase_one_samples = self._collect(
            sink, queries, self._config.phase_one_peers, ledger
        )
        analyses = []
        for query, sample in zip(queries, phase_one_samples):
            analyses.append(
                analyze_phase_one(
                    query,
                    sample,
                    delta_req=delta_req,
                    tuples_per_peer=self._config.tuples_per_peer,
                    cross_validation_rounds=(
                        self._config.cross_validation_rounds
                    ),
                    max_phase_two_peers=self._config.max_phase_two_peers,
                    seed=self._rng.spawn(1)[0],
                    estimator=self._config.estimator,
                    num_peers=self._simulator.topology.num_peers,
                )
            )

        # Phase II sized by the hardest query.
        additional = max(
            analysis.plan.additional_peers for analysis in analyses
        )
        phase_two_samples: List[AggregateSample] = []
        if additional > 0:
            phase_two_samples = self._collect(
                sink, queries, additional, ledger
            )

        cost = ledger.snapshot()
        timing = self._simulator.finish_timing(timing_token)
        requested = self._config.phase_one_peers + additional
        results: List[ApproximateResult] = []
        for index, query in enumerate(queries):
            phases = [phase_one_samples[index]]
            if additional > 0:
                phases.append(phase_two_samples[index])
            sample = AggregateSample.concat(phases)
            if not len(sample):
                raise SamplingError(
                    "no observations survived for one of the queries"
                )
            estimate = estimate_query(query, sample, self._point)
            reports = [PhaseReport.of_sample(phase, 0) for phase in phases]
            results.append(
                ApproximateResult(
                    query=query,
                    estimate=estimate,
                    delta_req=delta_req,
                    scale=analyses[index].scale,
                    confidence_interval=query_confidence_interval(
                        query, sample, estimate,
                        self._point, self._variance, self._config.confidence,
                    ),
                    phase_one=reports[0],
                    phase_two=reports[1] if additional > 0 else None,
                    cost=cost,
                    analysis=analyses[index],
                    requested_sample_size=requested,
                    effective_sample_size=len(sample),
                    degraded=len(sample) < requested,
                    timing=timing,
                )
            )
        return results
