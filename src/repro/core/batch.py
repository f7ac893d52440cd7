"""Multi-query batching: one walk answers a whole dashboard.

Decision-support workloads rarely ask one aggregate — they ask a panel
of them.  Running the two-phase algorithm per query multiplies the
dominant cost (peer visits) by the number of queries, yet every query
could have been evaluated on the *same* visited peers: the walk is
query-independent, and a visit's sub-sample serves any number of
predicates (see :class:`~repro.network.visits.PanelVisits`).

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

from typing import Generator, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..metrics.cost import CostLedger
from ..network.protocol import PanelSample
from ..network.visits import PanelVisits
from ..query.model import AggregationQuery
from .confidence import query_confidence_interval
from .estimators import (
    estimate_query,
    make_estimator,
    observations_from_replies,
)
from .planner import PhaseOneAnalysis
from .result import ApproximateResult
from .two_phase import (
    StepCheckpoint,
    TwoPhaseConfig,
    _analyze_aggregate,
    _PhasedEngine,
    _Run,
)


__all__ = [
    "BatchEngine",
]


class BatchEngine(
    _PhasedEngine[
        TwoPhaseConfig, Sequence[AggregationQuery], List[ApproximateResult]
    ]
):
    """Answers a batch of COUNT/SUM/AVG queries from shared walks."""

    _name = "batch"
    _default_config = TwoPhaseConfig

    def execute(
        self, queries: Sequence[AggregationQuery], delta_req: float,
        sink: Optional[int] = None,
    ) -> List[ApproximateResult]:
        """Answer every query within ``delta_req`` from shared walks.

        Returns one :class:`ApproximateResult` per query, in input
        order.  Each result's ``cost`` is the *shared* batch cost (the
        whole batch paid it once); ``total_peers_visited`` likewise
        reflects the shared visits.
        """
        return super().execute(queries, delta_req, sink)

    # ------------------------------------------------------------------
    # The strategy
    # ------------------------------------------------------------------

    def _check(self, query: Sequence[AggregationQuery]) -> None:
        if not query:
            raise ConfigurationError("queries must be non-empty")
        for member in query:
            if not member.agg.supports_pushdown:
                raise ConfigurationError(
                    f"{member.agg.value} cannot be batched"
                )
            if member.group_by is not None:
                raise ConfigurationError("GROUP BY queries use GroupByEngine")

    def _collect(
        self, sink: int, query: Sequence[AggregationQuery], count: int,
        ledger: CostLedger, chunk_peers: Optional[int], phase: str,
    ) -> Generator[StepCheckpoint, None, PanelSample]:
        """One walk; every visited peer answers all queries on one
        shared sub-sample, a lost visit skipped."""
        panel = yield from self._walk_and_visit(
            count, ledger, chunk_peers, phase,
            "; ".join(member.to_sql() for member in query),
            PanelVisits(
                self._simulator, query, sink, self._config.tuples_per_peer,
                self._config.sampling_method, self._visit_rng,
            ),
        )
        topology = self._simulator.topology
        return PanelSample(tuple(
            observations_from_replies(
                sample,
                num_edges=topology.num_edges,
                num_peers=topology.num_peers,
                variant=self._config.walk_variant,
            )
            for sample in panel.samples
        ))

    def _analyze(
        self, query: Sequence[AggregationQuery], panel: PanelSample,
        delta_req: float,
    ) -> Tuple[int, float, List[PhaseOneAnalysis]]:
        """Per-query sink analysis exactly as in the scalar engine;
        phase II is sized by the most demanding query."""
        analyses = [
            _analyze_aggregate(
                self._config, member, sample, delta_req,
                self._seed_seq.spawn(1)[0], self._simulator.topology.num_peers,
            )
            for member, sample in zip(query, panel.samples)
        ]
        hardest = max(
            analyses, key=lambda analysis: analysis.plan.additional_peers
        )
        return (
            hardest.plan.additional_peers,
            hardest.cross_validation.rms_error,
            analyses,
        )

    def _result(self, run: _Run[PanelSample]) -> List[ApproximateResult]:
        point, variance = make_estimator(
            self._config.estimator, self._simulator.num_peers
        )
        results: List[ApproximateResult] = []
        for query, sample, analysis in zip(
            run.query, run.pooled.samples, run.plan
        ):
            estimate = estimate_query(query, sample, point)
            interval = query_confidence_interval(
                query, sample, estimate, point, variance,
                self._config.confidence,
            )
            results.append(run.answer(query, estimate, interval, analysis))
        return results
