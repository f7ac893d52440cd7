"""Biased (importance) sampling — the paper's §6 open problem 2.

*"Is it possible for sampling-based algorithms to perform 'biased
sampling', i.e., focus the samples from regions of the database where
tuples that satisfy the query are likely to exist?"*

Yes: run a :class:`~repro.network.walker.WeightedMetropolisWalker`
whose target weights correlate with the per-peer aggregate and divide
the bias back out.  Each peer can compute its own weight locally (e.g.
the match rate of the predicate on a tiny probe of its data), the walk
needs only *relative* weights, and the self-normalized estimator

    y = M * sum(y(s)/w(s)) / sum(1/w(s))

is invariant to the weights' normalization.  Importance-sampling theory
says variance is minimized when ``w(p)`` is proportional to ``y(p)``; a
probe-based proxy gets most of that win for selective queries, where
the plain walk wastes most visits on peers that contribute nothing.

The weight floor matters: a peer with weight near 0 would (almost)
never be sampled while still carrying mass in the estimator, so probe
weights are smoothed with a floor.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Union

import numpy as np

from .._util import SeedLike, ensure_rng
from ..errors import (
    ConfigurationError,
    PeerUnavailableError,
    SamplingError,
)
from ..network.protocol import AggregateSample, WalkerProbe
from ..network.simulator import NetworkSimulator
from ..network.walker import RandomWalkConfig, WeightedMetropolisWalker
from ..query.model import AggregationQuery
from .confidence import query_confidence_interval
from .estimators import estimate_query, make_estimator
from .result import ApproximateResult, PhaseReport


__all__ = [
    "BiasedConfig",
    "probe_weights",
    "BiasedSamplingEngine",
    "biased_engine_for_query",
]


@dataclasses.dataclass(frozen=True)
class BiasedConfig:
    """Tunables of the biased sampler.

    Attributes
    ----------
    peers_to_visit:
        Sample size (single phase: the weights already encode the
        "where to look" knowledge phase I would otherwise learn).
    tuples_per_peer:
        Local sub-sampling budget ``t``.
    jump, burn_in:
        Walk parameters; Metropolis walks mix a little slower than the
        plain walk (rejections), so the default jump is higher.
    confidence:
        Confidence level of the reported interval.
    """

    peers_to_visit: int = 60
    tuples_per_peer: int = 25
    jump: int = 20
    burn_in: Optional[int] = None
    confidence: float = 0.95

    def __post_init__(self) -> None:
        if self.peers_to_visit < 2:
            raise ConfigurationError("peers_to_visit must be >= 2")
        if self.tuples_per_peer < 0:
            raise ConfigurationError("tuples_per_peer must be >= 0")

    def walk_config(self) -> RandomWalkConfig:
        """The walk configuration this config implies."""
        return RandomWalkConfig(jump=self.jump, burn_in=self.burn_in)


def probe_weights(
    simulator: NetworkSimulator,
    query: AggregationQuery,
    probe_tuples: int = 10,
    floor: float = 0.1,
    seed: SeedLike = None,
) -> np.ndarray:
    """Per-peer weight hints from tiny local probes.

    Each peer evaluates the query's predicate on ``probe_tuples``
    uniformly sampled local rows and reports its match rate; the
    weight is ``match_rate + floor``.  In a deployment every peer
    computes this for itself in microseconds — the simulator just does
    it centrally.  ``floor > 0`` keeps unpromising peers reachable so
    the importance correction stays well-defined.
    """
    if probe_tuples < 1:
        raise ConfigurationError("probe_tuples must be >= 1")
    if floor <= 0:
        raise ConfigurationError("floor must be positive")
    rng = ensure_rng(seed)
    weights = np.empty(simulator.num_peers)
    for peer in range(simulator.num_peers):
        database = simulator.database(peer)
        if database.num_tuples == 0:
            weights[peer] = floor
            continue
        columns = database.sample(
            min(probe_tuples, database.num_tuples),
            method="uniform",
            seed=rng,
        )
        mask = query.predicate.mask(columns)
        weights[peer] = float(mask.mean()) + floor
    return weights


class BiasedSamplingEngine:
    """Single-phase importance sampler over weighted Metropolis walks.

    Parameters
    ----------
    simulator:
        The network to query.
    weights:
        Positive per-peer target weights (e.g. from
        :func:`probe_weights`); only relative values matter.
    config, seed:
        Engine tunables and randomness.
    """

    def __init__(
        self,
        simulator: NetworkSimulator,
        weights: Union[np.ndarray, Sequence[float]],
        config: Optional[BiasedConfig] = None,
        seed: SeedLike = None,
    ):
        self._simulator = simulator
        self._config = config or BiasedConfig()
        self._rng = ensure_rng(seed)
        self._walker = WeightedMetropolisWalker(
            simulator.topology,
            weights,
            config=self._config.walk_config(),
            seed=self._rng.spawn(1)[0],
        )
        self._visit_rng = self._rng.spawn(1)[0]
        self._point, self._variance = make_estimator(
            "hajek", simulator.num_peers
        )

    @property
    def config(self) -> BiasedConfig:
        """The engine configuration."""
        return self._config

    @property
    def walker(self) -> WeightedMetropolisWalker:
        """The weighted walk driving the sampling."""
        return self._walker

    def execute(
        self,
        query: AggregationQuery,
        sink: Optional[int] = None,
    ) -> ApproximateResult:
        """Answer ``query`` from one weighted-walk sample.

        The result's ``delta_req`` is reported as 0 (no requirement
        was given); the confidence interval carries the achieved
        precision.
        """
        if not query.agg.supports_pushdown:
            raise ConfigurationError(
                "biased sampling supports COUNT/SUM/AVG only"
            )
        if sink is None:
            sink = int(self._rng.integers(self._simulator.num_peers))
        ledger = self._simulator.new_ledger()
        timing_token = self._simulator.begin_timing()

        walk = self._walker.sample_peers(sink, self._config.peers_to_visit)
        probe = WalkerProbe(
            source=sink, destination=sink, sink=sink,
            query_text=query.to_sql(),
            tuples_per_peer=self._config.tuples_per_peer,
        )
        self._simulator.walk_hops(
            walk.hops, ledger, message_bytes=probe.size_bytes()
        )

        replies = []
        for peer in walk.peers:
            try:
                replies.append(
                    self._simulator.visit_aggregate(
                        int(peer), query, sink=sink, ledger=ledger,
                        tuples_per_peer=self._config.tuples_per_peer,
                        seed=self._visit_rng,
                    )
                )
            except PeerUnavailableError:
                continue  # lost reply: the sample just shrinks
        if len(replies) < 2:
            raise SamplingError("biased sampling needs >= 2 observations")
        sample = AggregateSample.from_replies(replies, sink)
        sample = sample.with_probability(
            self._walker.stationary_probabilities()[sample["source"]]
        )

        estimate = estimate_query(query, sample, self._point)
        phase = PhaseReport.of_sample(sample, walk.hops, estimate)
        return ApproximateResult(
            query=query,
            estimate=estimate,
            delta_req=0.0,
            scale=max(abs(estimate), 1.0),
            confidence_interval=query_confidence_interval(
                query, sample, estimate,
                self._point, self._variance, self._config.confidence,
            ),
            phase_one=phase,
            phase_two=None,
            cost=ledger.snapshot(),
            requested_sample_size=self._config.peers_to_visit,
            effective_sample_size=len(sample),
            degraded=len(sample) < self._config.peers_to_visit,
            timing=self._simulator.finish_timing(timing_token),
        )


def biased_engine_for_query(
    simulator: NetworkSimulator,
    query: AggregationQuery,
    config: Optional[BiasedConfig] = None,
    probe_tuples: int = 10,
    floor: float = 0.1,
    seed: SeedLike = None,
) -> BiasedSamplingEngine:
    """Convenience: probe the network for weights and build the engine."""
    rng = ensure_rng(seed)
    weights = probe_weights(
        simulator, query,
        probe_tuples=probe_tuples, floor=floor, seed=rng,
    )
    return BiasedSamplingEngine(
        simulator, weights, config=config, seed=rng
    )
