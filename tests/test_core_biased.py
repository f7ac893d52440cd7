"""Tests for biased (importance) sampling (§6 open problem 2)."""

import numpy as np
import pytest

from repro.core.biased import (
    BiasedConfig,
    BiasedSamplingEngine,
    biased_engine_for_query,
    probe_weights,
)
from repro.errors import ConfigurationError, SamplingError
from repro.metrics.cost import QueryCost
from repro.network.faults import FaultPlan
from repro.network.simulator import NetworkSimulator
from repro.network.walker import WeightedMetropolisWalker
from repro.query.exact import evaluate_exact
from repro.query.parser import parse_query

SELECTIVE = parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 3")
BROAD = parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30")
AVG_BROAD = parse_query("SELECT AVG(A) FROM T WHERE A BETWEEN 1 AND 30")
AVG_NOBODY = parse_query("SELECT AVG(A) FROM T WHERE A > 1000000")

#: Per-peer matches of BROAD among 10 probed rows on the small fixture
#: (``probe_weights(..., probe_tuples=10, floor=0.1, seed=3)``).
PINNED_MATCHES = [
    9, 9, 8, 10, 2, 9, 9, 8, 10, 9, 8, 10, 8, 6, 0, 8, 7, 9, 8, 10,
    2, 1, 1, 0, 2, 8, 7, 10, 9, 8, 8, 3, 8, 10, 9, 1, 8, 1, 8, 1,
    10, 8, 1, 1, 0, 9, 2, 0, 0, 9, 2, 10, 9, 9, 8, 9, 1, 0, 9, 2,
    0, 0, 0, 0, 0, 1, 3, 9, 1, 1, 1, 9, 0, 9, 0, 10, 1, 0, 1, 10,
    0, 0, 10, 7, 9, 8, 1, 2, 10, 8, 7, 0, 9, 1, 2, 9, 2, 0, 1, 2,
    9, 0, 1, 10, 0, 2, 0, 0, 8, 10, 0, 9, 1, 0, 0, 2, 0, 0, 9, 10,
    0, 2, 9, 0, 1, 0, 1, 3, 1, 10, 1, 1, 8, 8, 0, 0, 7, 1, 0, 1,
    1, 1, 9, 1, 0, 0, 7, 0, 0, 0, 8, 0, 0, 1, 2, 1, 0, 1, 8, 7,
    1, 1, 2, 3, 8, 2, 0, 0, 2, 1, 1, 0, 10, 1, 0, 2, 2, 3, 1, 1,
    1, 2, 0, 10, 3, 1, 10, 3, 0, 7, 0, 9, 2, 2, 0, 2, 2, 0, 1, 2,
]


class TestBiasedConfig:
    def test_defaults(self):
        config = BiasedConfig()
        assert config.peers_to_visit == 60
        assert config.jump == 20

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BiasedConfig(peers_to_visit=1)
        with pytest.raises(ConfigurationError):
            BiasedConfig(tuples_per_peer=-1)


class TestProbeWeights:
    def test_shape_and_floor(self, small_network):
        weights = probe_weights(
            small_network, SELECTIVE, probe_tuples=5, floor=0.2, seed=1
        )
        assert weights.shape == (small_network.num_peers,)
        assert np.all(weights >= 0.2)

    def test_weights_track_matching_density(self, small_network):
        """Peers holding matching tuples must get higher weights on
        average than peers without any."""
        weights = probe_weights(
            small_network, BROAD, probe_tuples=20, floor=0.1, seed=1
        )
        has_match = np.array([
            bool(
                BROAD.predicate.mask(
                    small_network.database(p).scan()
                ).any()
            )
            for p in range(small_network.num_peers)
        ])
        if has_match.any() and (~has_match).any():
            assert weights[has_match].mean() > weights[~has_match].mean()

    def test_validations(self, small_network):
        with pytest.raises(ConfigurationError):
            probe_weights(small_network, BROAD, probe_tuples=0)
        with pytest.raises(ConfigurationError):
            probe_weights(small_network, BROAD, floor=0.0)


class TestWeightedMetropolisWalker:
    def test_rejects_bad_weights(self, small_topology):
        with pytest.raises(ConfigurationError):
            WeightedMetropolisWalker(
                small_topology, np.zeros(small_topology.num_peers)
            )
        with pytest.raises(ConfigurationError):
            WeightedMetropolisWalker(small_topology, np.ones(3))

    def test_stationary_matches_weights(self, small_topology):
        rng = np.random.default_rng(0)
        weights = rng.uniform(0.5, 2.0, small_topology.num_peers)
        walker = WeightedMetropolisWalker(
            small_topology, weights, seed=1
        )
        pi = walker.stationary_probabilities()
        np.testing.assert_allclose(pi, weights / weights.sum())
        assert pi.sum() == pytest.approx(1.0)

    def test_empirical_convergence(self, tiny_topology):
        weights = np.array([1.0, 1.0, 4.0, 1.0, 1.0])
        walker = WeightedMetropolisWalker(tiny_topology, weights, seed=2)
        empirical = walker.empirical_distribution(0, walks=4000, hops=40)
        np.testing.assert_allclose(
            empirical, weights / weights.sum(), atol=0.04
        )


class TestBiasedSamplingEngine:
    def test_estimate_close_to_truth(self, small_network, small_dataset):
        engine = biased_engine_for_query(
            small_network, SELECTIVE, seed=4
        )
        truth = evaluate_exact(SELECTIVE, small_dataset.databases)
        estimates = [
            engine.execute(SELECTIVE, sink=0).estimate for _ in range(10)
        ]
        assert np.mean(estimates) == pytest.approx(truth, rel=0.25)

    def test_avg_is_the_ratio_not_the_sum(self, small_network, small_dataset):
        """AVG replies carry the scaled *sum*; the engine must divide
        it by the matching-count total — estimate and interval both."""
        engine = biased_engine_for_query(small_network, AVG_BROAD, seed=4)
        truth = evaluate_exact(AVG_BROAD, small_dataset.databases)
        results = [engine.execute(AVG_BROAD, sink=0) for _ in range(10)]
        assert np.mean([r.estimate for r in results]) == pytest.approx(
            truth, rel=0.25
        )
        assert all(
            r.confidence_interval.half_width < truth for r in results
        )

    def test_avg_nobody_matches_is_a_sampling_error(self, small_network):
        engine = biased_engine_for_query(small_network, AVG_NOBODY, seed=4)
        with pytest.raises(SamplingError, match="AVG undefined"):
            engine.execute(AVG_NOBODY, sink=0)

    def test_beats_plain_walk_on_selective_query(
        self, small_network, small_dataset
    ):
        """For a selective query, importance weighting should shrink
        the estimator spread at equal peer budget."""
        from repro.core.two_phase import TwoPhaseConfig, TwoPhaseEngine

        truth = evaluate_exact(SELECTIVE, small_dataset.databases)
        biased_errors = []
        plain_errors = []
        for seed in range(12):
            biased = biased_engine_for_query(
                small_network, SELECTIVE,
                config=BiasedConfig(peers_to_visit=60),
                seed=seed,
            ).execute(SELECTIVE, sink=0)
            biased_errors.append(abs(biased.estimate - truth))
            plain_config = TwoPhaseConfig(
                phase_one_peers=60, max_phase_two_peers=0
            )
            plain = TwoPhaseEngine(
                small_network, config=plain_config, seed=seed
            ).execute(SELECTIVE, delta_req=0.99, sink=0)
            plain_errors.append(abs(plain.estimate - truth))
        assert np.mean(biased_errors) < np.mean(plain_errors)

    def test_median_rejected(self, small_network):
        engine = biased_engine_for_query(small_network, BROAD, seed=1)
        median = parse_query("SELECT MEDIAN(A) FROM T")
        with pytest.raises(ConfigurationError):
            engine.execute(median)

    def test_result_shape(self, small_network):
        engine = biased_engine_for_query(small_network, BROAD, seed=5)
        result = engine.execute(BROAD, sink=0)
        assert result.phase_two is None
        assert result.total_peers_visited == 60
        assert result.confidence_interval.half_width > 0
        assert result.cost.hops > 0

    @pytest.mark.parametrize("loss", [0.0, 0.3])
    def test_lost_replies_are_reported(
        self, small_topology, small_dataset, loss
    ):
        simulator = NetworkSimulator(
            small_topology,
            small_dataset.databases,
            seed=7,
            fault_plan=FaultPlan(seed=7, reply_loss=loss) if loss else None,
        )
        engine = biased_engine_for_query(simulator, BROAD, seed=5)
        result = engine.execute(BROAD, sink=0)
        assert result.requested_sample_size == engine.config.peers_to_visit
        assert result.effective_sample_size == result.total_peers_visited
        lost = result.requested_sample_size - result.effective_sample_size
        assert (lost > 0) == (loss > 0.0)
        assert result.degraded == (loss > 0.0)

    def test_pinned_by_value(self, small_network):
        """Weights and one execution, recorded as literals.

        Nothing else pins the biased sampler's numbers: an edit that
        changes the weight formula or the visits' accounting still
        passes the statistical tests above.
        """
        weights = probe_weights(
            small_network, BROAD, probe_tuples=10, floor=0.1, seed=3
        )
        np.testing.assert_array_equal(
            weights, np.asarray(PINNED_MATCHES) / 10 + 0.1
        )
        result = BiasedSamplingEngine(small_network, weights, seed=5).execute(
            BROAD, sink=0
        )
        assert result.estimate == 3749.0991354932535
        assert result.confidence_interval.half_width == 1135.1146474508187
        assert result.cost == QueryCost(
            messages=1260, hops=1200, peers_visited=60, distinct_peers=47,
            tuples_processed=1500, tuples_sampled=1500, bytes_sent=100020,
            latency_ms=61617.1166014012, timeouts=0,
        )

    def test_uniform_weights_recover_uniform_walk(self, small_network):
        engine = BiasedSamplingEngine(
            small_network,
            np.ones(small_network.num_peers),
            seed=6,
        )
        pi = engine.walker.stationary_probabilities()
        np.testing.assert_allclose(pi, 1.0 / small_network.num_peers)
