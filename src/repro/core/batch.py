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

import dataclasses
from typing import Generator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, PeerUnavailableError
from ..metrics.cost import CostLedger
from ..network.protocol import AggregateReply, AggregateSample
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


@dataclasses.dataclass(frozen=True)
class _Panel:
    """A collection's replies to a batch: a sample per query, over the
    same peers (a multi visit answers every query or none)."""

    samples: Tuple[AggregateSample, ...]

    @classmethod
    def concat(cls, panels: Sequence["_Panel"]) -> "_Panel":
        return cls(tuple(
            AggregateSample.concat(parts)
            for parts in zip(*(panel.samples for panel in panels))
        ))

    def __len__(self) -> int:
        return len(self.samples[0])

    def __getitem__(self, column: str) -> np.ndarray:
        return self.samples[0][column]


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
    ) -> Generator[StepCheckpoint, None, _Panel]:
        """One walk; every visited peer answers all queries on one
        shared sub-sample, a lost visit skipped."""
        topology = self._simulator.topology

        def visit(peers: np.ndarray) -> _Panel:
            per_query: List[List[AggregateReply]] = [[] for _ in query]
            for peer in peers.tolist():
                try:
                    replies = self._simulator.visit_multi_aggregate(
                        peer, query, sink=sink, ledger=ledger,
                        tuples_per_peer=self._config.tuples_per_peer,
                        sampling_method=self._config.sampling_method,
                        seed=self._visit_rng,
                    )
                except PeerUnavailableError:
                    continue
                for index, reply in enumerate(replies):
                    per_query[index].append(reply)
            return _Panel(tuple(
                observations_from_replies(
                    AggregateSample.from_replies(replies, sink),
                    num_edges=topology.num_edges,
                    num_peers=topology.num_peers,
                    variant=self._config.walk_variant,
                )
                for replies in per_query
            ))

        return (yield from self._walk_and_visit(
            sink, count, ledger, chunk_peers, phase,
            "; ".join(member.to_sql() for member in query), visit,
        ))

    def _analyze(
        self, query: Sequence[AggregationQuery], panel: _Panel,
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

    def _result(self, run: _Run[_Panel]) -> List[ApproximateResult]:
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
