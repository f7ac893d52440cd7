"""Tests for the BFS/DFS/oracle baselines (Figure 7 machinery)."""

import numpy as np
import pytest

from repro.core.two_phase import TwoPhaseConfig
from repro.data.generator import DatasetConfig, generate_dataset
from repro.data.placement import PlacementConfig
from repro.errors import ConfigurationError, SamplingError
from repro.network.generators import clustered_power_law
from repro.network.simulator import NetworkSimulator
from repro.query.exact import evaluate_exact
from repro.query.parser import parse_query
from repro.sampling.baselines import (
    BFSEngine,
    UniformOracleEngine,
    dfs_engine,
)

COUNT_30 = parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30")
AVG_30 = parse_query("SELECT AVG(A) FROM T WHERE A BETWEEN 1 AND 30")
AVG_NOBODY = parse_query("SELECT AVG(A) FROM T WHERE A > 1000000")


@pytest.fixture(scope="module")
def clustered_network():
    """Two sub-graphs with a small cut and id-ordered clustered data:
    the regime where naive sampling fails."""
    # Cut size ~1% of edges, proportionally matching the paper's
    # Figure 7 (cut=1000 of 100k edges); smaller cuts trap even the
    # jump walk, which is Figure 12's regime, not Figure 7's.
    topology = clustered_power_law(
        num_peers=300, num_edges=1500, num_subgraphs=2,
        cut_edges=15, seed=21,
    )
    dataset = generate_dataset(
        topology,
        DatasetConfig(num_tuples=30_000, cluster_level=0.25, skew=0.2),
        placement=PlacementConfig(order="id"),
        seed=21,
    )
    simulator = NetworkSimulator(topology, dataset.databases, seed=21)
    return simulator, dataset


class TestDfsEngine:
    def test_is_jumpless_two_phase(self, small_network):
        engine = dfs_engine(small_network, seed=1)
        assert engine.config.jump == 0
        assert engine.config.burn_in == 0

    def test_executes(self, small_network):
        engine = dfs_engine(small_network, seed=1)
        result = engine.execute(COUNT_30, delta_req=0.1, sink=0)
        assert result.estimate > 0

    def test_respects_other_config(self, small_network):
        config = TwoPhaseConfig(phase_one_peers=10, tuples_per_peer=5)
        engine = dfs_engine(small_network, config=config, seed=1)
        assert engine.config.phase_one_peers == 10
        assert engine.config.tuples_per_peer == 5


class TestBFSEngine:
    def test_executes(self, small_network):
        engine = BFSEngine(small_network, seed=2)
        result = engine.execute(COUNT_30, delta_req=0.1, sink=0)
        assert result.estimate > 0
        assert result.total_peers_visited >= 40

    def test_uses_sink_neighborhood(self, small_network):
        """BFS visits must be the peers closest to the sink."""
        config = TwoPhaseConfig(
            phase_one_peers=10, max_phase_two_peers=0
        )
        engine = BFSEngine(small_network, config=config, seed=2)
        result = engine.execute(COUNT_30, delta_req=0.5, sink=0)
        bfs_order = small_network.topology.bfs_order(0)
        assert result.phase_one.peers_visited == 10
        # Cost ledger counted exactly the first 10 BFS peers.
        assert result.cost.distinct_peers == 10
        assert set(bfs_order[:10]) >= {0}

    def test_median_rejected(self, small_network):
        engine = BFSEngine(small_network, seed=2)
        query = parse_query("SELECT MEDIAN(A) FROM T")
        with pytest.raises(ConfigurationError):
            engine.execute(query, delta_req=0.1)

    def test_avg_is_the_ratio_not_the_sum(self, small_network, small_dataset):
        """AVG replies carry the scaled *sum*; phase and final
        estimates must divide it by the matching-count total.  (One
        neighbourhood is a biased sample, hence the mean over sinks.)"""
        truth = evaluate_exact(AVG_30, small_dataset.databases)
        results = [
            BFSEngine(small_network, seed=2).execute(
                AVG_30, delta_req=0.1, sink=sink
            )
            for sink in range(0, 200, 20)
        ]
        assert np.mean([r.estimate for r in results]) == pytest.approx(
            truth, rel=0.1
        )
        assert np.mean(
            [r.phase_one.estimate for r in results]
        ) == pytest.approx(truth, rel=0.25)

    def test_avg_nobody_matches_is_a_sampling_error(self, small_network):
        with pytest.raises(SamplingError, match="AVG undefined"):
            BFSEngine(small_network, seed=2).execute(
                AVG_NOBODY, delta_req=0.1, sink=0
            )

    def test_flood_cost_charged(self, small_network):
        engine = BFSEngine(small_network, seed=3)
        result = engine.execute(COUNT_30, delta_req=0.2, sink=0)
        # Flooding charges a message per edge traversal: far more
        # messages than peers visited.
        assert result.cost.messages > result.total_peers_visited


class TestFigure7Ordering:
    def test_random_walk_beats_baselines_on_clustered_data(
        self, clustered_network
    ):
        """The paper's headline comparison: on a badly-cut topology
        with clustered data, the jump random walk achieves the lowest
        error; BFS (pure neighborhood) is far off."""
        from repro.core.two_phase import TwoPhaseEngine

        simulator, dataset = clustered_network
        truth = evaluate_exact(COUNT_30, dataset.databases)
        n = dataset.num_tuples

        def mean_error(engine_factory, runs=5):
            errors = []
            for seed in range(runs):
                engine = engine_factory(seed)
                result = engine.execute(COUNT_30, delta_req=0.1, sink=0)
                errors.append(abs(result.estimate - truth) / n)
            return float(np.mean(errors))

        config = TwoPhaseConfig(max_phase_two_peers=600)
        walk_error = mean_error(
            lambda s: TwoPhaseEngine(simulator, config=config, seed=s)
        )
        bfs_error = mean_error(
            lambda s: BFSEngine(simulator, config=config, seed=s)
        )
        assert walk_error < bfs_error
        assert walk_error <= 0.1 + 0.05


class TestUniformOracle:
    def test_unbiased_estimate(self, small_network, small_dataset):
        engine = UniformOracleEngine(small_network, seed=5)
        estimates = [
            engine.estimate(COUNT_30, count=100) for _ in range(30)
        ]
        truth = evaluate_exact(COUNT_30, small_dataset.databases)
        assert np.mean(estimates) == pytest.approx(truth, rel=0.1)

    def test_avg_is_the_ratio_not_the_sum(self, small_network, small_dataset):
        engine = UniformOracleEngine(small_network, seed=5)
        estimates = [engine.estimate(AVG_30, count=100) for _ in range(30)]
        truth = evaluate_exact(AVG_30, small_dataset.databases)
        assert np.mean(estimates) == pytest.approx(truth, rel=0.1)

    def test_avg_nobody_matches_is_a_sampling_error(self, small_network):
        engine = UniformOracleEngine(small_network, seed=5)
        with pytest.raises(SamplingError, match="AVG undefined"):
            engine.estimate(AVG_NOBODY, count=20)

    def test_observation_probability_uniform(self, small_network):
        engine = UniformOracleEngine(small_network, seed=5)
        observations = engine.sample_observations(COUNT_30, count=10)
        assert all(
            probability == 1.0 / small_network.num_peers
            for probability in observations["probability"]
        )

    def test_zero_count_rejected(self, small_network):
        from repro.errors import SamplingError
        engine = UniformOracleEngine(small_network, seed=5)
        with pytest.raises(SamplingError):
            engine.sample_observations(COUNT_30, count=0)
