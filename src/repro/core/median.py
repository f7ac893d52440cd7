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
from typing import Generic, List, Optional, Protocol, Tuple, TypeVar

import numpy as np

from .._util import SeedLike, ensure_rng, weighted_median
from ..errors import ConfigurationError, SamplingError
from ..metrics.cost import CostLedger
from ..network.protocol import ValueSample, WalkerProbe
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
        if self.max_phase_two_peers is not None and self.max_phase_two_peers < 0:
            raise ConfigurationError("max_phase_two_peers must be >= 0")

    def walk_config(self) -> RandomWalkConfig:
        """The walk configuration this config implies."""
        return RandomWalkConfig(
            jump=self.jump, burn_in=self.burn_in, variant=self.walk_variant
        )


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


class _ValuesConfig(Protocol):
    """What :class:`_ValuesEngine` reads of an engine's config."""

    @property
    def tuples_per_peer(self) -> int: ...

    def walk_config(self) -> RandomWalkConfig: ...


_Config = TypeVar("_Config", bound=_ValuesConfig)


class _ValuesEngine(Generic[_Config]):
    """What the engines answering from shipped values share: a seeded
    walker, a visit stream, and one :class:`ValueSample` per phase."""

    def __init__(
        self, simulator: NetworkSimulator, config: _Config, seed: SeedLike
    ):
        self._simulator = simulator
        self._config = config
        self._rng = ensure_rng(seed)
        self._walker = RandomWalker(
            simulator.topology,
            config=config.walk_config(),
            seed=self._rng.spawn(1)[0],
        )
        self._visit_rng = self._rng.spawn(1)[0]
        self._collector: Optional[ResilientCollector] = None

    @property
    def config(self) -> _Config:
        """The engine configuration."""
        return self._config

    def _collect(
        self,
        sink: int,
        query: AggregationQuery,
        count: int,
        ledger: CostLedger,
        ship: str,
        query_text: str,
    ) -> Tuple[ValueSample, int]:
        """Walk to ``count`` peers and gather what they ``ship``;
        returns the replies, their stationary probabilities attached,
        and the hops walked."""
        budget = self._config.tuples_per_peer
        probe_bytes = WalkerProbe(
            source=sink, destination=sink, sink=sink,
            query_text=query_text, tuples_per_peer=budget,
        ).size_bytes()
        if self._collector is not None:
            sample, stats = self._collector.collect_values(
                sink, query, count, ledger, probe_bytes=probe_bytes,
                tuples_per_peer=budget, ship=ship, seed=self._visit_rng,
            )
            hops = stats.walk_hops
        else:
            walk = self._walker.sample_peers(sink, count)
            self._simulator.walk_hops(
                walk.hops, ledger, message_bytes=probe_bytes
            )
            hops = walk.hops
            sample = self._simulator.visit_values_batch(
                walk.peers, query, sink=sink, ledger=ledger,
                tuples_per_peer=budget, ship=ship, seed=self._visit_rng,
            )
        probabilities = self._walker.stationary_probabilities()
        return sample.with_probability(probabilities[sample["source"]]), hops


class MedianEngine(_ValuesEngine[MedianConfig]):
    """Answers MEDIAN/QUANTILE queries over a simulator."""

    def __init__(
        self,
        simulator: NetworkSimulator,
        config: Optional[MedianConfig] = None,
        seed: SeedLike = None,
    ):
        super().__init__(simulator, config or MedianConfig(), seed)
        if self._config.retry_policy is not None:
            self._collector = ResilientCollector(
                self._walker, simulator, policy=self._config.retry_policy
            )

    # ------------------------------------------------------------------

    def _phase(
        self,
        phase: str,
        sink: int,
        query: AggregationQuery,
        count: int,
        ledger: CostLedger,
    ) -> Tuple[ValueSample, ValueSample, PhaseReport]:
        """Steps 1–2 for one phase: visit ``count`` peers for their
        local medians.  Returns the replies, the rows that shipped a
        median (a peer with no matching tuple ships none) and the
        phase's report, whose estimate is their weighted quantile."""
        emit_if_tracing(
            PhaseEvent, engine="median", phase=phase, status="start",
            requested=count,
        )
        sample, hops = self._collect(
            sink, query, count, ledger, "median", query.to_sql()
        )
        medians = sample.take(np.flatnonzero(sample["shipped"]))
        if phase == "one" and len(medians) < 4:
            raise SamplingError(
                "phase I collected fewer than 4 local medians; "
                "selection too rare for median estimation at this m"
            )
        estimate = (
            self._weighted_median_of(medians, query.quantile_fraction)
            if len(medians)
            else None
        )
        emit_if_tracing(
            PhaseEvent, engine="median", phase=phase, status="end",
            requested=count, received=len(sample), estimate=estimate,
        )
        return sample, medians, PhaseReport.of_sample(sample, hops, estimate)

    @staticmethod
    def _weighted_median_of(medians: ValueSample, fraction: float) -> float:
        if not len(medians):
            raise SamplingError("no medians collected; empty selection?")
        return weighted_median(
            medians.values, 1.0 / medians["probability"], fraction=fraction
        )

    def _cross_validated_rank_error(
        self, medians: ValueSample, fraction: float
    ) -> float:
        """Steps 3–5, averaged over several random splits.

        Each round splits the medians into two halves, takes the
        weighted quantile of group 1, and measures how far (in weight
        fraction) it sits from the target fraction within group 2.
        Returns the RMS of those displacements.
        """
        m = len(medians)
        if m < 4:
            raise SamplingError(
                f"median cross-validation needs >= 4 medians, got {m}"
            )
        values, weights = medians.values, 1.0 / medians["probability"]
        half = m // 2
        squared: List[float] = []
        indices = np.arange(m)
        for _ in range(self._config.cross_validation_rounds):
            order = self._rng.permutation(indices)
            group1, group2 = order[:half], order[half: 2 * half]
            med_g1 = weighted_median(
                values[group1], weights[group1], fraction=fraction
            )
            displacement = (
                weighted_rank_fraction(
                    values[group2], weights[group2], med_g1
                )
                - fraction
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

        sample_one, medians_one, phase_one = self._phase(
            "one", sink, query, self._config.phase_one_peers, ledger
        )
        rank_error = self._cross_validated_rank_error(medians_one, fraction)

        # Phase II sizing: m' = (m/2) · (c / Δreq)², the same
        # cross-validation inversion as the COUNT planner with rank
        # fractions as the error scale.
        half = len(medians_one) // 2
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
        pool = medians_one
        requested = self._config.phase_one_peers
        received = len(sample_one)
        if additional > 0:
            requested += additional
            sample_two, medians_two, phase_two = self._phase(
                "two", sink, query, additional, ledger
            )
            received += len(sample_two)
            if self._config.pool_phases:
                pool = ValueSample.concat([medians_one, medians_two])
            elif len(medians_two):
                pool = medians_two

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
