"""Tests for random-walk network-parameter estimation."""

import math

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.network.discovery import (
    estimate_average_degree,
    estimate_network,
    samples_for_size_estimate,
)
from repro.network.generators import power_law_topology
from repro.network.walker import RandomWalkConfig, RandomWalker


@pytest.fixture(scope="module")
def topology():
    return power_law_topology(1000, 5000, seed=1)


@pytest.fixture()
def walker(topology):
    return RandomWalker(topology, RandomWalkConfig(jump=15), seed=5)


class TestAverageDegree:
    def test_harmonic_estimator_close(self, topology, walker):
        estimate = estimate_average_degree(walker, 0, samples=500)
        true_avg = 2 * topology.num_edges / topology.num_peers
        assert estimate == pytest.approx(true_avg, rel=0.15)

    def test_arithmetic_mean_would_be_biased(self, topology, walker):
        """Documents the size-bias trap: the arithmetic mean of
        stationary samples overshoots the true average degree."""
        walk = walker.sample_peers(0, 500)
        arithmetic = float(
            np.mean(topology.degrees[walk.peers])
        )
        true_avg = 2 * topology.num_edges / topology.num_peers
        assert arithmetic > 1.3 * true_avg

    def test_validates_samples(self, walker):
        with pytest.raises(Exception):
            estimate_average_degree(walker, 0, samples=0)

    def test_exact_on_regular_graph(self, regular_topology):
        walker = RandomWalker(
            regular_topology, RandomWalkConfig(jump=5), seed=2
        )
        estimate = estimate_average_degree(walker, 0, samples=50)
        assert estimate == pytest.approx(6.0)


class TestNetworkSize:
    def test_collision_estimator_converges(self, topology):
        estimates = []
        samples = samples_for_size_estimate(1000, target_collisions=150)
        for seed in range(8):
            walker = RandomWalker(
                topology, RandomWalkConfig(jump=15), seed=seed
            )
            estimates.append(
                estimate_network(walker, 0, samples=samples).num_peers
            )
        assert np.mean(estimates) == pytest.approx(1000, rel=0.2)

    def test_too_few_samples_yields_unreliable(self, topology):
        walker = RandomWalker(topology, RandomWalkConfig(jump=15), seed=1)
        estimate = estimate_network(walker, 0, samples=5)
        # 5 samples of 1000 peers: almost surely no collisions.
        assert not estimate.reliable

    def test_no_collisions_is_infinite(self, topology):
        walker = RandomWalker(topology, RandomWalkConfig(jump=15), seed=1)
        estimate = estimate_network(walker, 0, samples=2)
        if estimate.collisions == 0:
            assert math.isinf(estimate.num_peers)
            assert math.isinf(estimate.num_edges)

    def test_edges_consistent_with_degree(self, topology):
        samples = samples_for_size_estimate(1000, target_collisions=100)
        walker = RandomWalker(topology, RandomWalkConfig(jump=15), seed=9)
        estimate = estimate_network(walker, 0, samples=samples)
        assert estimate.num_edges == pytest.approx(
            estimate.num_peers * estimate.avg_degree / 2.0
        )

    def test_hops_accounted(self, topology):
        walker = RandomWalker(topology, RandomWalkConfig(jump=15), seed=1)
        estimate = estimate_network(walker, 0, samples=100)
        assert estimate.hops >= 100 * 15

    def test_needs_two_samples(self, topology):
        walker = RandomWalker(topology, RandomWalkConfig(jump=15), seed=1)
        with pytest.raises(SamplingError):
            estimate_network(walker, 0, samples=1)


class TestSamplesForSizeEstimate:
    def test_scales_with_sqrt(self):
        small = samples_for_size_estimate(1000)
        large = samples_for_size_estimate(100_000)
        assert large == pytest.approx(small * 10, rel=0.05)

    def test_positive(self):
        assert samples_for_size_estimate(10, 1) >= 1


class TestEndToEndWithEstimatedParameters:
    def test_engine_accurate_with_estimated_edges(self, small_network):
        """The sink can run the whole pipeline from estimated
        parameters: estimate |E| by walking, then feed the estimate
        into observation construction."""
        from repro.core.estimators import (
            hajek_estimate,
            observations_from_replies,
        )
        from repro.network.protocol import AggregateSample
        from repro.query.exact import evaluate_exact
        from repro.query.parser import parse_query

        topology = small_network.topology
        walker = RandomWalker(topology, RandomWalkConfig(jump=10), seed=3)
        samples = samples_for_size_estimate(
            topology.num_peers, target_collisions=100
        )
        estimate = estimate_network(walker, 0, samples=samples)
        assert estimate.reliable

        query = parse_query(
            "SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30"
        )
        walk = walker.sample_peers(0, 60)
        ledger = small_network.new_ledger()
        replies = [
            small_network.visit_aggregate(
                int(p), query, sink=0, ledger=ledger, tuples_per_peer=25
            )
            for p in walk.peers
        ]
        observations = observations_from_replies(
            AggregateSample.from_replies(replies, sink=0),
            num_edges=max(1, round(estimate.num_edges)),
        )
        answer = hajek_estimate(
            observations, num_peers=max(1, round(estimate.num_peers))
        )
        truth = evaluate_exact(query, small_network.databases())
        n = small_network.total_tuples()
        assert abs(answer - truth) / n <= 0.15
