"""Median and quantile estimation over the P2P network (paper §5.6).

Medians cannot be pushed down (a median of medians is not the median),
so the paper ships per-peer *local medians* to the sink and combines
them with stationary-probability weights:

1. select ``m`` peers by random walk;
2. each peer returns its local median ``med_j`` and ``prob(s_j)``;
3. the sink randomly splits the medians into two groups;
4. ``med_g1`` = weighted median of group 1 (weights ``1/prob(s_j)``),
   i.e. the value minimizing the imbalance between weight below and
   weight above — the quantity in step 4 of the paper's pseudocode;
5. the rank error ``c`` is how far ``med_g1`` sits from the weighted
   middle of group 2 — a cross-validated, observable stand-in for the
   unknown true rank error;
6. phase II visits ``(m/2) · (c / Δreq)²`` additional peers (the same
   Theorem-2/3 inversion as for COUNT, with rank fractions playing the
   role of the normalized error);
7. the weighted median of the new peers' medians is returned.

Quantiles generalize the same machinery by replacing the 1/2 weight
fraction with an arbitrary ``q``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .._util import SeedLike, ensure_rng, weighted_median
from ..errors import ConfigurationError, SamplingError
from ..metrics.cost import CostLedger
from ..network.protocol import TupleReply, WalkerProbe
from ..network.simulator import NetworkSimulator
from ..network.walker import (
    RandomWalkConfig,
    RandomWalker,
    ResilientCollector,
    RetryPolicy,
)
from ..obs.events import EstimateEvent, PhaseEvent
from ..obs.tracer import emit_if_tracing
from ..query.model import AggregateOp, AggregationQuery
from .result import MedianResult, PhaseReport


__all__ = [
    "MedianConfig",
    "weighted_rank_fraction",
    "MedianEngine",
]


@dataclasses.dataclass(frozen=True)
class MedianConfig:
    """Tunables of the median/quantile algorithm.

    Attributes
    ----------
    phase_one_peers:
        ``m`` — peers visited in phase I.
    tuples_per_peer:
        Sub-sampling budget for computing local medians (0 = all).
    jump, walk_variant, burn_in:
        Walk parameters, as in the COUNT/SUM engine.
    cross_validation_rounds:
        Random group splits averaged in step 5.
    max_phase_two_peers:
        Optional cost cap on the phase-II size.
    pool_phases:
        Return the weighted median over *all* collected medians
        (default) instead of only the phase-II ones (the paper's
        literal step 7).
    retry_policy:
        When set, visits run through a
        :class:`~repro.network.walker.ResilientCollector` (bounded
        retry with backoff on loss/timeout, restart-from-last-good
        on crash); when ``None``, failed probes are dropped.
    """

    phase_one_peers: int = 40
    tuples_per_peer: int = 25
    jump: int = 10
    walk_variant: str = "simple"
    burn_in: Optional[int] = None
    cross_validation_rounds: int = 5
    max_phase_two_peers: Optional[int] = None
    pool_phases: bool = True
    retry_policy: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        if self.phase_one_peers < 4:
            raise ConfigurationError("phase_one_peers must be >= 4")
        if self.tuples_per_peer < 0:
            raise ConfigurationError("tuples_per_peer must be >= 0")
        if self.cross_validation_rounds < 1:
            raise ConfigurationError("cross_validation_rounds must be >= 1")

    def walk_config(self) -> RandomWalkConfig:
        """The walk configuration this config implies."""
        return RandomWalkConfig(
            jump=self.jump, burn_in=self.burn_in, variant=self.walk_variant
        )


@dataclasses.dataclass(frozen=True)
class _MedianObservation:
    """A peer's local median with its stationary weight."""

    peer_id: int
    median: float
    weight: float  # 1 / prob(s)
    tuples_processed: int


def weighted_rank_fraction(
    values: np.ndarray, weights: np.ndarray, pivot: float
) -> float:
    """Weighted rank of ``pivot``: weight below plus half the weight
    tied at ``pivot``, as a fraction of the total.

    The half-tie convention matters: attribute domains are small (the
    paper's data has 100 distinct values), so local medians tie
    heavily — counting ties as zero would report a spurious 0.5 rank
    displacement on perfectly homogeneous data.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    total = float(weights.sum())
    if total <= 0:
        raise SamplingError("weights must have positive total")
    below = float(weights[values < pivot].sum())
    tied = float(weights[values == pivot].sum())
    return (below + 0.5 * tied) / total


class MedianEngine:
    """Answers MEDIAN/QUANTILE queries over a simulator."""

    def __init__(
        self,
        simulator: NetworkSimulator,
        config: Optional[MedianConfig] = None,
        seed: SeedLike = None,
    ):
        self._simulator = simulator
        self._config = config or MedianConfig()
        self._rng = ensure_rng(seed)
        self._walker = RandomWalker(
            simulator.topology,
            config=self._config.walk_config(),
            seed=self._rng.spawn(1)[0],
        )
        self._visit_rng = self._rng.spawn(1)[0]
        self._collector: Optional[ResilientCollector] = None
        if self._config.retry_policy is not None:
            self._collector = ResilientCollector(
                self._walker, simulator, policy=self._config.retry_policy
            )

    @property
    def config(self) -> MedianConfig:
        """The engine configuration."""
        return self._config

    # ------------------------------------------------------------------

    def _collect(
        self,
        sink: int,
        query: AggregationQuery,
        count: int,
        ledger: CostLedger,
    ) -> Tuple[List[_MedianObservation], int, int, int]:
        """Walk and gather local medians; returns (observations, hops,
        tuples processed, replies received)."""
        probe = WalkerProbe(
            source=sink,
            destination=sink,
            sink=sink,
            query_text=query.to_sql(),
            tuples_per_peer=self._config.tuples_per_peer,
        )
        probabilities = self._walker.stationary_probabilities()
        replies: List[TupleReply]
        if self._collector is not None:
            replies, stats = self._collector.collect_values(
                sink,
                query,
                count,
                ledger,
                probe_bytes=probe.size_bytes(),
                tuples_per_peer=self._config.tuples_per_peer,
                ship="median",
                seed=self._visit_rng,
            )
            hops = stats.walk_hops
        else:
            walk = self._walker.sample_peers(sink, count)
            self._simulator.walk_hops(
                walk.hops, ledger, message_bytes=probe.size_bytes()
            )
            hops = walk.hops
            replies = self._simulator.visit_values_batch(
                walk.peers,
                query,
                sink=sink,
                ledger=ledger,
                tuples_per_peer=self._config.tuples_per_peer,
                ship="median",
                seed=self._visit_rng,
            )
        observations: List[_MedianObservation] = []
        tuples_processed = 0
        for reply in replies:
            peer = reply.source
            tuples_processed += min(
                reply.local_tuples,
                self._config.tuples_per_peer or reply.local_tuples,
            )
            if not reply.values:
                continue  # peer had no matching tuples
            observations.append(
                _MedianObservation(
                    peer_id=peer,
                    median=reply.values[0],
                    weight=1.0 / float(probabilities[peer]),
                    tuples_processed=reply.local_tuples,
                )
            )
        return observations, hops, tuples_processed, len(replies)

    @staticmethod
    def _weighted_median_of(
        observations: Sequence[_MedianObservation], fraction: float
    ) -> float:
        if not observations:
            raise SamplingError("no medians collected; empty selection?")
        values = np.asarray([o.median for o in observations])
        weights = np.asarray([o.weight for o in observations])
        return weighted_median(values, weights, fraction=fraction)

    def _cross_validated_rank_error(
        self,
        observations: Sequence[_MedianObservation],
        fraction: float,
    ) -> float:
        """Steps 3–5, averaged over several random splits.

        Each round splits the medians into two halves, takes the
        weighted quantile of group 1, and measures how far (in weight
        fraction) it sits from the target fraction within group 2.
        Returns the RMS of those displacements.
        """
        m = len(observations)
        if m < 4:
            raise SamplingError(
                f"median cross-validation needs >= 4 medians, got {m}"
            )
        squared: List[float] = []
        indices = np.arange(m)
        for _ in range(self._config.cross_validation_rounds):
            order = self._rng.permutation(indices)
            half = m // 2
            group1 = [observations[i] for i in order[:half]]
            group2 = [observations[i] for i in order[half: 2 * half]]
            med_g1 = self._weighted_median_of(group1, fraction)
            values2 = np.asarray([o.median for o in group2])
            weights2 = np.asarray([o.weight for o in group2])
            displacement = (
                weighted_rank_fraction(values2, weights2, med_g1) - fraction
            )
            squared.append(displacement**2)
        return float(math.sqrt(np.mean(squared)))

    # ------------------------------------------------------------------

    def execute(
        self,
        query: AggregationQuery,
        delta_req: float,
        sink: Optional[int] = None,
    ) -> MedianResult:
        """Estimate the median/quantile within rank error ``delta_req``.

        ``delta_req`` is read on the paper's scale: the returned
        value's true rank should be within ``delta_req * N`` of the
        target rank.
        """
        if query.agg not in (AggregateOp.MEDIAN, AggregateOp.QUANTILE):
            raise ConfigurationError(
                f"MedianEngine answers MEDIAN/QUANTILE, not {query.agg.value}"
            )
        if not 0.0 < delta_req <= 1.0:
            raise SamplingError(f"delta_req must be in (0, 1], got {delta_req}")
        if sink is None:
            sink = int(self._rng.integers(self._simulator.num_peers))
        fraction = query.quantile_fraction
        ledger = self._simulator.new_ledger()
        timing_token = self._simulator.begin_timing()

        # Phase I ---------------------------------------------------------
        emit_if_tracing(
            PhaseEvent,
            engine="median",
            phase="one",
            status="start",
            requested=self._config.phase_one_peers,
        )
        observations_one, hops_one, tuples_one, received_one = self._collect(
            sink, query, self._config.phase_one_peers, ledger
        )
        if len(observations_one) < 4:
            raise SamplingError(
                "phase I collected fewer than 4 local medians; "
                "selection too rare for median estimation at this m"
            )
        phase_one_estimate = self._weighted_median_of(
            observations_one, fraction
        )
        emit_if_tracing(
            PhaseEvent,
            engine="median",
            phase="one",
            status="end",
            requested=self._config.phase_one_peers,
            received=received_one,
            estimate=phase_one_estimate,
        )
        rank_error = self._cross_validated_rank_error(
            observations_one, fraction
        )
        phase_one = PhaseReport(
            peers_visited=self._config.phase_one_peers,
            tuples_sampled=tuples_one,
            hops=hops_one,
            estimate=phase_one_estimate,
        )

        # Phase II sizing: m' = (m/2) · (c / Δreq)², the same
        # cross-validation inversion as the COUNT planner with rank
        # fractions as the error scale.
        half = len(observations_one) // 2
        additional = int(math.ceil(half * (rank_error / delta_req) ** 2))
        if self._config.max_phase_two_peers is not None:
            additional = min(additional, self._config.max_phase_two_peers)
        emit_if_tracing(
            PhaseEvent,
            engine="median",
            phase="analysis",
            status="end",
            requested=additional,
            error=rank_error,
        )

        phase_two: Optional[PhaseReport] = None
        observations_two: List[_MedianObservation] = []
        requested = self._config.phase_one_peers
        received = received_one
        if additional > 0:
            requested += additional
            emit_if_tracing(
                PhaseEvent,
                engine="median",
                phase="two",
                status="start",
                requested=additional,
            )
            observations_two, hops_two, tuples_two, received_two = (
                self._collect(sink, query, additional, ledger)
            )
            received += received_two
            estimate_two = (
                self._weighted_median_of(observations_two, fraction)
                if observations_two
                else None
            )
            emit_if_tracing(
                PhaseEvent,
                engine="median",
                phase="two",
                status="end",
                requested=additional,
                received=received_two,
                estimate=estimate_two,
            )
            phase_two = PhaseReport(
                peers_visited=additional,
                tuples_sampled=tuples_two,
                hops=hops_two,
                estimate=estimate_two,
            )

        if self._config.pool_phases or not observations_two:
            pool = list(observations_one) + list(observations_two)
        else:
            pool = list(observations_two)
        estimate = self._weighted_median_of(pool, fraction)
        emit_if_tracing(
            EstimateEvent,
            engine="median",
            agg=query.agg.value,
            estimate=estimate,
            requested=requested,
            received=received,
            degraded=received < requested,
        )
        return MedianResult(
            query=query,
            estimate=estimate,
            delta_req=delta_req,
            rank_error_estimate=rank_error,
            phase_one=phase_one,
            phase_two=phase_two,
            cost=ledger.snapshot(),
            requested_sample_size=requested,
            effective_sample_size=received,
            degraded=received < requested,
            timing=self._simulator.finish_timing(timing_token),
        )
