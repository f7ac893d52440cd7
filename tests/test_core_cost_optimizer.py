"""Tests for the cost-optimal sub-sampling budget (§4's 'ideal'
two-phase algorithm)."""

import numpy as np
import pytest

from repro.core.cost_optimizer import (
    TupleBudgetPlan,
    VarianceDecomposition,
    decompose_variance,
    optimize_tuple_budget,
)
from repro.errors import SamplingError
from repro.metrics.cost import CostModel

from .row_reference import Row, sample_of


def make_observation(
    value=50.0,
    probability=0.01,
    local_tuples=100,
    contribution_variance=0.25,
    processed_tuples=25,
    peer_id=0,
):
    return Row(
        source=peer_id,
        aggregate_value=value,
        probability=probability,
        local_tuples=local_tuples,
        contribution_variance=contribution_variance,
        processed_tuples=processed_tuples,
    )


def homogeneous_observations(num=20, **kwargs):
    return sample_of(
        [make_observation(peer_id=i, **kwargs) for i in range(num)]
    )


class TestVarianceDecomposition:
    def test_homogeneous_data_zero_between(self):
        """Identical ratios: all observed variance is within-peer."""
        observations = homogeneous_observations()
        decomposition = decompose_variance(observations)
        assert decomposition.between == 0.0
        assert decomposition.within_rate > 0

    def test_heterogeneous_data_positive_between(self):
        rng = np.random.default_rng(1)
        observations = sample_of([
            make_observation(
                value=float(rng.uniform(10, 90)),
                contribution_variance=0.0,  # exact local aggregates
                processed_tuples=100,       # full scans
                peer_id=i,
            )
            for i in range(30)
        ])
        decomposition = decompose_variance(observations)
        assert decomposition.between > 0
        assert decomposition.within_rate == 0.0

    def test_badness_at_decreases_with_t(self):
        decomposition = VarianceDecomposition(
            between=10.0, within_rate=100.0, sampled_at=25
        )
        assert decomposition.badness_at(10) > decomposition.badness_at(100)
        assert decomposition.badness_at(0) == 10.0

    def test_full_scan_observations_carry_no_within_noise(self):
        observations = homogeneous_observations(processed_tuples=100)
        decomposition = decompose_variance(observations)
        # processed == local_tuples: full scans, between is the
        # observed variance itself (zero for identical ratios).
        assert decomposition.between == 0.0

    def test_needs_two(self):
        with pytest.raises(SamplingError):
            decompose_variance(sample_of([make_observation()]))


class TestOptimizeTupleBudget:
    def test_expensive_tuples_push_t_down(self):
        observations = sample_of([
            make_observation(
                value=float(v), peer_id=i, contribution_variance=0.25
            )
            for i, v in enumerate(
                np.random.default_rng(2).uniform(10, 90, 30)
            )
        ])
        cheap_scan = optimize_tuple_budget(
            observations,
            absolute_error=500.0,
            cost_model=CostModel(tuple_processing_ms=0.001),
        )
        costly_scan = optimize_tuple_budget(
            observations,
            absolute_error=500.0,
            cost_model=CostModel(tuple_processing_ms=10.0),
        )
        assert costly_scan.tuples_per_peer < cheap_scan.tuples_per_peer

    def test_expensive_visits_push_t_up(self):
        observations = sample_of([
            make_observation(
                value=float(v), peer_id=i, contribution_variance=0.25
            )
            for i, v in enumerate(
                np.random.default_rng(3).uniform(10, 90, 30)
            )
        ])
        cheap_visit = optimize_tuple_budget(
            observations,
            absolute_error=500.0,
            cost_model=CostModel(
                hop_latency_ms=0.1, visit_overhead_ms=0.1,
                tuple_processing_ms=1.0,
            ),
        )
        costly_visit = optimize_tuple_budget(
            observations,
            absolute_error=500.0,
            cost_model=CostModel(
                hop_latency_ms=100.0, visit_overhead_ms=100.0,
                tuple_processing_ms=1.0,
            ),
        )
        assert costly_visit.tuples_per_peer > cheap_visit.tuples_per_peer

    def test_homogeneous_peers_max_t(self):
        """No between-peer variance: scan as much as allowed locally
        (visits dominate, each visit should count)."""
        observations = homogeneous_observations()
        plan = optimize_tuple_budget(
            observations, absolute_error=100.0, max_tuples=500
        )
        assert plan.tuples_per_peer == 500

    def test_no_within_noise_min_t(self):
        observations = sample_of([
            make_observation(
                value=float(v), peer_id=i,
                contribution_variance=0.0, processed_tuples=100,
            )
            for i, v in enumerate(
                np.random.default_rng(4).uniform(10, 90, 30)
            )
        ])
        plan = optimize_tuple_budget(observations, absolute_error=500.0)
        assert plan.tuples_per_peer == 1

    def test_clamped_to_max(self):
        observations = homogeneous_observations()
        plan = optimize_tuple_budget(
            observations, absolute_error=100.0, max_tuples=50
        )
        assert plan.tuples_per_peer <= 50

    def test_peers_and_latency_positive(self):
        observations = sample_of([
            make_observation(value=float(v), peer_id=i)
            for i, v in enumerate(
                np.random.default_rng(5).uniform(10, 90, 30)
            )
        ])
        plan = optimize_tuple_budget(observations, absolute_error=500.0)
        assert plan.peers_to_visit >= 1
        assert plan.predicted_latency_ms > 0
        assert isinstance(plan, TupleBudgetPlan)

    def test_tighter_error_needs_more_peers(self):
        observations = sample_of([
            make_observation(value=float(v), peer_id=i)
            for i, v in enumerate(
                np.random.default_rng(6).uniform(10, 90, 30)
            )
        ])
        loose = optimize_tuple_budget(observations, absolute_error=1000.0)
        tight = optimize_tuple_budget(observations, absolute_error=100.0)
        assert tight.peers_to_visit > loose.peers_to_visit

    def test_validations(self):
        observations = homogeneous_observations()
        with pytest.raises(SamplingError):
            optimize_tuple_budget(observations, absolute_error=0.0)
        with pytest.raises(SamplingError):
            optimize_tuple_budget(
                observations, absolute_error=1.0, max_tuples=0
            )


class TestEndToEnd:
    def test_recommended_t_tracks_empirical_latency(self, small_network):
        """The optimizer's prediction must be directionally right on a
        real network: its t* should not be beaten badly by the worst
        grid point."""
        from repro.core.two_phase import TwoPhaseConfig, TwoPhaseEngine
        from repro.query.parser import parse_query

        query = parse_query(
            "SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30"
        )
        probe = TwoPhaseEngine(
            small_network,
            TwoPhaseConfig(
                phase_one_peers=40, tuples_per_peer=10,
                max_phase_two_peers=0,
            ),
            seed=1,
        )
        ledger = small_network.new_ledger()
        observations = probe.collect_observations(0, query, 40, ledger)
        scale = small_network.total_tuples()
        plan = optimize_tuple_budget(
            observations, absolute_error=0.05 * scale, max_tuples=50
        )
        assert 1 <= plan.tuples_per_peer <= 50

        def latency_at(t):
            values = []
            for seed in range(3):
                engine = TwoPhaseEngine(
                    small_network,
                    TwoPhaseConfig(
                        phase_one_peers=40, tuples_per_peer=t,
                        max_phase_two_peers=800,
                    ),
                    seed=seed,
                )
                result = engine.execute(query, 0.05, sink=0)
                values.append(result.cost.latency_ms)
            return float(np.mean(values))

        at_star = latency_at(plan.tuples_per_peer)
        grid = [latency_at(t) for t in (2, 50)]
        assert at_star <= 1.5 * min(grid)
