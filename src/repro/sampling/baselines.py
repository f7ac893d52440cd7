"""Naive peer-sampling baselines (paper §5.5, Figure 7).

* **BFS** — "we collect our sample from the peers in the neighborhood
  of the querying peer": Gnutella flooding from the sink, taking peers
  in breadth-first order.  The sample is *local*: with clustered data
  it sees one region of the value space, so its cross-validation error
  looks deceptively small while its actual error blows past the
  requirement — the pathology Figure 7 exhibits.
* **DFS** — "a random walk with j=0": the walk's consecutive peers are
  taken without the decorrelating jump, so successive selections are
  neighbors and carry correlated data.

Both baselines run through the *same* two-phase pipeline (phase I,
cross-validation, phase-II sizing, Equation-1 estimate) as the paper's
method; only the peer-selection process differs, which is exactly the
comparison the paper makes.

* **Uniform oracle** — samples peers uniformly by id, which a real
  unstructured network cannot do (nobody knows all IP addresses).
  Used by tests and ablations as the ideal reference.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np

from .._util import SeedLike, ensure_rng
from ..core.crossval import cross_validate
from ..core.estimators import (
    EQUATION_ONE,
    estimate_query,
    observations_from_replies,
)
from ..core.planner import estimate_scale
from ..core.result import PhaseReport
from ..core.two_phase import TwoPhaseConfig, TwoPhaseEngine
from ..errors import ConfigurationError, SamplingError
from ..metrics.cost import CostLedger, QueryCost
from ..network.protocol import AggregateSample
from ..network.simulator import NetworkSimulator
from ..query.model import AggregationQuery


__all__ = [
    "dfs_engine",
    "BaselineResult",
    "BFSEngine",
    "UniformOracleEngine",
]


def dfs_engine(
    simulator: NetworkSimulator,
    config: Optional[TwoPhaseConfig] = None,
    seed: SeedLike = None,
) -> TwoPhaseEngine:
    """The DFS baseline: the paper's method with jump forced to 0.

    Returns a regular :class:`TwoPhaseEngine` whose walk selects every
    visited peer consecutively (no jump, no burn-in) — successive
    sampled peers are graph neighbors.
    """
    config = config or TwoPhaseConfig()
    dfs_config = dataclasses.replace(config, jump=0, burn_in=0)
    return TwoPhaseEngine(simulator, config=dfs_config, seed=seed)


@dataclasses.dataclass(frozen=True)
class BaselineResult:
    """Result of a baseline execution (mirror of ApproximateResult).

    Kept separate so experiment code can't accidentally treat a biased
    baseline answer as carrying a valid confidence interval.
    """

    query: AggregationQuery
    estimate: float
    delta_req: float
    scale: float
    phase_one: PhaseReport
    phase_two: Optional[PhaseReport]
    cost: QueryCost

    @property
    def total_peers_visited(self) -> int:
        """Peer visits across both phases."""
        total = self.phase_one.peers_visited
        if self.phase_two is not None:
            total += self.phase_two.peers_visited
        return total

    @property
    def total_tuples_sampled(self) -> int:
        """Tuples sampled across both phases."""
        total = self.phase_one.tuples_sampled
        if self.phase_two is not None:
            total += self.phase_two.tuples_sampled
        return total

    def normalized_error(self, truth: float) -> float:
        """Error vs ground truth on the ``delta_req`` scale."""
        return abs(self.estimate - truth) / self.scale


class BFSEngine:
    """The BFS (flooding neighborhood) baseline.

    Peers are taken in breadth-first order from the sink — phase II
    simply floods deeper.  Estimation and phase-II sizing reuse the
    paper's machinery verbatim.
    """

    def __init__(
        self,
        simulator: NetworkSimulator,
        config: Optional[TwoPhaseConfig] = None,
        seed: SeedLike = None,
    ):
        self._simulator = simulator
        self._config = config or TwoPhaseConfig()
        self._rng = ensure_rng(seed)

    @property
    def config(self) -> TwoPhaseConfig:
        """The engine configuration."""
        return self._config

    def _bfs_peers(
        self, sink: int, count: int, ledger: CostLedger
    ) -> List[int]:
        """First ``count`` peers reached by flooding from the sink."""
        reached = self._simulator.flood(
            sink,
            ttl=self._simulator.num_peers,  # effectively unbounded
            ledger=ledger,
            max_peers=count,
        )
        peers = [peer for peer, _depth in reached[:count]]
        if len(peers) < count:
            # The component is smaller than the request; BFS can only
            # ever see the sink's component.
            if not peers:
                raise SamplingError("flood reached no peers")
        return peers

    def _visit(
        self,
        peers: Sequence[int],
        query: AggregationQuery,
        sink: int,
        ledger: CostLedger,
    ) -> AggregateSample:
        replies = self._simulator.visit_aggregate_batch(
            np.asarray(peers, dtype=np.int64),
            query,
            sink=sink,
            ledger=ledger,
            tuples_per_peer=self._config.tuples_per_peer,
            sampling_method=self._config.sampling_method,
            seed=self._rng,
        )
        return observations_from_replies(
            replies,
            num_edges=self._simulator.topology.num_edges,
            num_peers=self._simulator.topology.num_peers,
        )

    def execute(
        self,
        query: AggregationQuery,
        delta_req: float,
        sink: Optional[int] = None,
    ) -> BaselineResult:
        """Answer ``query`` using neighborhood (flooding) samples."""
        if not query.agg.supports_pushdown:
            raise ConfigurationError(
                "BFS baseline supports COUNT/SUM/AVG only"
            )
        if sink is None:
            sink = int(self._rng.integers(self._simulator.num_peers))
        ledger = self._simulator.new_ledger()
        m = self._config.phase_one_peers

        peers_one = self._bfs_peers(sink, m, ledger)
        sample_one = self._visit(peers_one, query, sink, ledger)
        scale = estimate_scale(query, sample_one)
        cross_validation = cross_validate(
            sample_one,
            rounds=self._config.cross_validation_rounds,
            seed=self._rng,
        )
        absolute_target = delta_req * scale
        additional = int(
            np.ceil(
                cross_validation.half_size
                * cross_validation.mean_squared_error
                / absolute_target**2
            )
        )
        if self._config.max_phase_two_peers is not None:
            additional = min(additional, self._config.max_phase_two_peers)

        phase_one = PhaseReport(
            peers_visited=len(peers_one),
            tuples_sampled=ledger.snapshot().tuples_processed,
            hops=0,
            estimate=estimate_query(query, sample_one, EQUATION_ONE),
        )

        phase_two: Optional[PhaseReport] = None
        pool = sample_one
        if additional > 0:
            tuples_before = ledger.snapshot().tuples_processed
            # Flood deeper: take the next `additional` peers in BFS
            # order after the ones already used.
            peers_all = self._bfs_peers(sink, m + additional, ledger)
            peers_two = peers_all[len(peers_one):]
            sample_two = self._visit(peers_two, query, sink, ledger)
            pool = AggregateSample.concat([sample_one, sample_two])
            # Diagnostic only: phase II alone may be empty, or see no
            # matching tuple while the pool does.
            estimate_two: Optional[float]
            try:
                estimate_two = estimate_query(
                    query, sample_two, EQUATION_ONE
                )
            except SamplingError:
                estimate_two = None
            phase_two = PhaseReport(
                peers_visited=len(peers_two),
                tuples_sampled=(
                    ledger.snapshot().tuples_processed - tuples_before
                ),
                hops=0,
                estimate=estimate_two,
            )

        return BaselineResult(
            query=query,
            estimate=estimate_query(query, pool, EQUATION_ONE),
            delta_req=delta_req,
            scale=scale,
            phase_one=phase_one,
            phase_two=phase_two,
            cost=ledger.snapshot(),
        )


class UniformOracleEngine:
    """Ideal uniform peer sampling (infeasible in real networks).

    Peers are drawn uniformly by id — possible only for an oracle that
    knows every address.  Estimation uses Equation 1 with the uniform
    probability ``1/M``.  Tests use it as the unbiased reference.
    """

    def __init__(
        self,
        simulator: NetworkSimulator,
        config: Optional[TwoPhaseConfig] = None,
        seed: SeedLike = None,
    ):
        self._simulator = simulator
        self._config = config or TwoPhaseConfig()
        self._rng = ensure_rng(seed)

    def sample_observations(
        self,
        query: AggregationQuery,
        count: int,
        sink: int = 0,
        ledger: Optional[CostLedger] = None,
    ) -> AggregateSample:
        """A sample of ``count`` uniform peers, with prob = 1/M."""
        if count <= 0:
            raise SamplingError("count must be positive")
        if ledger is None:
            ledger = self._simulator.new_ledger()
        m = self._simulator.num_peers
        replies = [
            self._simulator.visit_aggregate(
                int(peer),
                query,
                sink=sink,
                ledger=ledger,
                tuples_per_peer=self._config.tuples_per_peer,
                sampling_method=self._config.sampling_method,
                seed=self._rng,
            )
            for peer in self._rng.integers(m, size=count)
        ]
        return AggregateSample.from_replies(replies, sink).with_probability(
            1.0 / m
        )

    def estimate(
        self, query: AggregationQuery, count: int, sink: int = 0
    ) -> float:
        """Equation-1 estimate from ``count`` uniform peers."""
        return estimate_query(
            query,
            self.sample_observations(query, count, sink=sink),
            EQUATION_ONE,
        )
