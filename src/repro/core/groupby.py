"""GROUP BY aggregation over the P2P network.

``SELECT Agg(Col) FROM T WHERE ... GROUP BY G`` generalizes the
paper's scalar estimation to a vector of per-group aggregates.  Each
visited peer pushes the grouping down — it ships one scaled
``(group, count, sum)`` triple per group present in its processed
tuples (see :class:`~repro.network.protocol.GroupReply`), so bandwidth
scales with the number of groups, not the data.

Estimation applies the Hájek form of Equation 1 *per group* (a group
absent at a peer contributes zero, which the estimator handles
natively), and the cross-validation step mirrors the scalar algorithm
with the total-variation distance between half-sample group vectors as
the error — the same generalization the histogram engine uses, since a
histogram is a GROUP BY over bucketized values.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._util import SeedLike, ensure_rng
from ..errors import (
    ConfigurationError,
    PeerUnavailableError,
    SamplingError,
)
from ..metrics.cost import CostLedger, QueryCost
from ..network.protocol import GroupReply, WalkerProbe
from ..network.simulator import NetworkSimulator
from ..network.walker import RandomWalkConfig, RandomWalker
from ..query.model import AggregateOp, AggregationQuery
from .result import PhaseReport


__all__ = [
    "GroupByConfig",
    "GroupByResult",
    "GroupByEngine",
]


@dataclasses.dataclass(frozen=True)
class GroupByConfig:
    """Tunables of the GROUP BY engine (mirrors the scalar engine)."""

    phase_one_peers: int = 40
    tuples_per_peer: int = 25
    jump: int = 10
    walk_variant: str = "simple"
    burn_in: Optional[int] = None
    cross_validation_rounds: int = 5
    max_phase_two_peers: Optional[int] = None

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


@dataclasses.dataclass(frozen=True)
class GroupByResult:
    """Estimated per-group aggregates.

    Attributes
    ----------
    groups:
        ``{group value: estimated aggregate}``, sorted iteration order.
    delta_req:
        The requested accuracy (total-variation over the normalized
        group masses for COUNT/SUM).
    """

    query: AggregationQuery
    groups: Dict[float, float]
    delta_req: float
    phase_one: PhaseReport
    phase_two: Optional[PhaseReport]
    cost: QueryCost

    @property
    def num_groups(self) -> int:
        """Number of groups with a nonzero estimate."""
        return len(self.groups)

    @property
    def total(self) -> float:
        """Sum over groups (the scalar answer for COUNT/SUM)."""
        return float(sum(self.groups.values()))

    def top(self, k: int) -> List[Tuple[float, float]]:
        """The ``k`` heaviest groups, largest first.

        Grouping by the value column itself turns this into a
        heavy-hitters query ("which genres dominate the network?").
        """
        if k < 1:
            raise ConfigurationError("k must be >= 1")
        ranked = sorted(
            self.groups.items(), key=lambda item: item[1], reverse=True
        )
        return ranked[:k]

    def total_variation_distance(
        self, reference: Dict[float, float]
    ) -> float:
        """TV distance between normalized group masses — the metric
        ``delta_req`` is read in (COUNT/SUM only)."""
        keys = set(self.groups) | set(reference)
        mine = np.array([self.groups.get(k, 0.0) for k in keys])
        theirs = np.array([reference.get(k, 0.0) for k in keys])
        if mine.sum() <= 0 or theirs.sum() <= 0:
            raise ConfigurationError("cannot compare empty group vectors")
        return 0.5 * float(
            np.abs(mine / mine.sum() - theirs / theirs.sum()).sum()
        )


class _GroupObservation:
    """One peer's group vector with its sampling weight."""

    __slots__ = ("peer_id", "counts", "sums", "weight")

    def __init__(
        self,
        peer_id: int,
        counts: Dict[float, float],
        sums: Dict[float, float],
        weight: float,
    ):
        self.peer_id = peer_id
        self.counts = counts  # Dict[float, float], scaled
        self.sums = sums
        self.weight = weight  # 1 / prob(s)


class GroupByEngine:
    """Answers GROUP BY COUNT/SUM/AVG queries approximately."""

    def __init__(
        self,
        simulator: NetworkSimulator,
        config: Optional[GroupByConfig] = None,
        seed: SeedLike = None,
    ):
        self._simulator = simulator
        self._config = config or GroupByConfig()
        self._rng = ensure_rng(seed)
        self._walker = RandomWalker(
            simulator.topology,
            config=self._config.walk_config(),
            seed=self._rng.spawn(1)[0],
        )
        self._visit_rng = self._rng.spawn(1)[0]

    @property
    def config(self) -> GroupByConfig:
        """The engine configuration."""
        return self._config

    # ------------------------------------------------------------------

    def _collect(
        self,
        sink: int,
        query: AggregationQuery,
        count: int,
        ledger: CostLedger,
    ) -> Tuple[List[_GroupObservation], int]:
        walk = self._walker.sample_peers(sink, count)
        probe = WalkerProbe(
            source=sink, destination=sink, sink=sink,
            query_text=query.to_sql(),
            tuples_per_peer=self._config.tuples_per_peer,
        )
        self._simulator.walk_hops(
            walk.hops, ledger, message_bytes=probe.size_bytes()
        )
        probabilities = self._walker.stationary_probabilities()
        observations: List[_GroupObservation] = []
        for peer in walk.peers:
            peer = int(peer)
            try:
                reply: GroupReply = self._simulator.visit_group_aggregate(
                    peer, query, sink=sink, ledger=ledger,
                    tuples_per_peer=self._config.tuples_per_peer,
                    seed=self._visit_rng,
                )
            except PeerUnavailableError:
                continue
            counts = {}
            sums = {}
            for group, scaled_count, scaled_sum in reply.entries:
                counts[group] = scaled_count
                sums[group] = scaled_sum
            observations.append(
                _GroupObservation(
                    peer_id=peer,
                    counts=counts,
                    sums=sums,
                    weight=1.0 / float(probabilities[peer]),
                )
            )
        return observations, walk.hops

    @staticmethod
    def _estimate_vectors(
        observations: Sequence[_GroupObservation],
        num_peers: int,
    ) -> Tuple[Dict[float, float], Dict[float, float]]:
        """Hájek per-group (count, sum) estimates."""
        if not observations:
            raise SamplingError("no group observations collected")
        weight_total = sum(obs.weight for obs in observations)
        if weight_total <= 0:
            raise SamplingError("degenerate sampling weights")
        counts: Dict[float, float] = {}
        sums: Dict[float, float] = {}
        for obs in observations:
            for group, value in obs.counts.items():
                counts[group] = counts.get(group, 0.0) + value * obs.weight
            for group, value in obs.sums.items():
                sums[group] = sums.get(group, 0.0) + value * obs.weight
        scale = num_peers / weight_total
        return (
            {g: v * scale for g, v in counts.items()},
            {g: v * scale for g, v in sums.items()},
        )

    def _pick_vector(
        self,
        query: AggregationQuery,
        counts: Dict[float, float],
        sums: Dict[float, float],
    ) -> Dict[float, float]:
        if query.agg is AggregateOp.COUNT:
            chosen = counts
        elif query.agg is AggregateOp.SUM:
            chosen = sums
        else:  # AVG
            chosen = {
                g: sums[g] / counts[g]
                for g in counts
                if counts.get(g, 0.0) > 0
            }
        return dict(sorted(chosen.items()))

    def _cross_validated_tv(
        self,
        query: AggregationQuery,
        observations: Sequence[_GroupObservation],
    ) -> Tuple[float, int]:
        """Mean squared TV distance between half-sample group vectors."""
        m = len(observations)
        if m < 4:
            raise SamplingError(
                f"GROUP BY cross-validation needs >= 4 peers, got {m}"
            )
        half = m // 2
        num_peers = self._simulator.num_peers
        squared: List[float] = []
        indices = np.arange(m)
        for _ in range(self._config.cross_validation_rounds):
            order = self._rng.permutation(indices)
            first = [observations[i] for i in order[:half]]
            second = [observations[i] for i in order[half: 2 * half]]
            counts1, sums1 = self._estimate_vectors(first, num_peers)
            counts2, sums2 = self._estimate_vectors(second, num_peers)
            one = self._pick_vector(query, counts1, sums1)
            two = self._pick_vector(query, counts2, sums2)
            keys = set(one) | set(two)
            a = np.array([one.get(k, 0.0) for k in keys])
            b = np.array([two.get(k, 0.0) for k in keys])
            if a.sum() <= 0 or b.sum() <= 0:
                squared.append(1.0)
                continue
            tv = 0.5 * float(np.abs(a / a.sum() - b / b.sum()).sum())
            squared.append(tv**2)
        return float(np.mean(squared)), half

    # ------------------------------------------------------------------

    def execute(
        self,
        query: AggregationQuery,
        delta_req: float = 0.1,
        sink: Optional[int] = None,
    ) -> GroupByResult:
        """Estimate per-group aggregates within ``delta_req``.

        ``delta_req`` is read as a total-variation bound on the
        normalized group masses (COUNT/SUM); AVG reuses the COUNT
        cross-validation for sizing.
        """
        if query.group_by is None:
            raise ConfigurationError("query has no GROUP BY column")
        if not 0.0 < delta_req <= 1.0:
            raise SamplingError(
                f"delta_req must be in (0, 1], got {delta_req}"
            )
        if sink is None:
            sink = int(self._rng.integers(self._simulator.num_peers))
        ledger = self._simulator.new_ledger()

        observations_one, hops_one = self._collect(
            sink, query, self._config.phase_one_peers, ledger
        )
        cv_squared, half = self._cross_validated_tv(query, observations_one)

        additional = 0
        m_prime = half * cv_squared / delta_req**2
        if m_prime >= 1.0:
            additional = int(math.ceil(m_prime))
            if self._config.max_phase_two_peers is not None:
                additional = min(
                    additional, self._config.max_phase_two_peers
                )

        phase_one = PhaseReport(
            peers_visited=len(observations_one),
            tuples_sampled=ledger.snapshot().tuples_processed,
            hops=hops_one,
        )
        phase_two: Optional[PhaseReport] = None
        observations = list(observations_one)
        if additional > 0:
            tuples_before = ledger.snapshot().tuples_processed
            observations_two, hops_two = self._collect(
                sink, query, additional, ledger
            )
            observations.extend(observations_two)
            phase_two = PhaseReport(
                peers_visited=len(observations_two),
                tuples_sampled=(
                    ledger.snapshot().tuples_processed - tuples_before
                ),
                hops=hops_two,
            )

        counts, sums = self._estimate_vectors(
            observations, self._simulator.num_peers
        )
        groups = self._pick_vector(query, counts, sums)
        return GroupByResult(
            query=query,
            groups=groups,
            delta_req=delta_req,
            phase_one=phase_one,
            phase_two=phase_two,
            cost=ledger.snapshot(),
        )
