"""Unit tests for repro.core.planner."""

import numpy as np
import pytest

from repro.core.planner import (
    PhaseTwoPlan,
    analyze_phase_one,
    estimate_scale,
)
from repro.errors import SamplingError
from repro.query.model import AggregateOp, AggregationQuery

from .row_reference import Row, sample_of


def count_query():
    return AggregationQuery(agg=AggregateOp.COUNT, column="A")


def sum_query():
    return AggregationQuery(agg=AggregateOp.SUM, column="A")


def make_observations(num=20, seed=0, spread=1.0):
    rng = np.random.default_rng(seed)
    observations = []
    for i in range(num):
        value = 50.0 + spread * rng.normal()
        observations.append(
            Row(
                source=i,
                aggregate_value=max(value, 0.0),
                probability=0.01,
                matching_count=value,
                column_total=2 * max(value, 0.0),
                local_tuples=100,
            )
        )
    return sample_of(observations)


class TestEstimateScale:
    def test_count_scale_is_total_tuples(self):
        observations = make_observations()
        # every obs: 100 tuples / 0.01 = 10000
        assert estimate_scale(count_query(), observations) == (
            pytest.approx(10_000.0)
        )

    def test_sum_scale_is_column_total(self):
        observations = make_observations(seed=1)
        expected = np.mean(
            [o.column_total / 0.01 for o in observations]
        )
        assert estimate_scale(sum_query(), observations) == (
            pytest.approx(expected)
        )

    def test_median_rejected(self):
        query = AggregationQuery(agg=AggregateOp.MEDIAN, column="A")
        with pytest.raises(SamplingError):
            estimate_scale(query, make_observations())

    def test_zero_scale_rejected(self):
        observations = sample_of(
            [Row(aggregate_value=0.0, probability=0.5, local_tuples=0)] * 4
        )
        with pytest.raises(SamplingError):
            estimate_scale(count_query(), observations)


class TestAnalyzePhaseOne:
    def test_returns_complete_analysis(self):
        analysis = analyze_phase_one(
            count_query(),
            make_observations(spread=10.0),
            delta_req=0.1,
            tuples_per_peer=25,
            seed=1,
        )
        assert analysis.estimate > 0
        assert analysis.scale == pytest.approx(10_000.0)
        assert analysis.badness >= 0
        assert isinstance(analysis.plan, PhaseTwoPlan)
        assert analysis.plan.tuples_per_peer == 25

    def test_tight_accuracy_needs_more_peers(self):
        observations = make_observations(spread=10.0)
        loose = analyze_phase_one(
            count_query(), observations, delta_req=0.25,
            tuples_per_peer=25, seed=1,
        )
        tight = analyze_phase_one(
            count_query(), observations, delta_req=0.01,
            tuples_per_peer=25, seed=1,
        )
        assert tight.plan.additional_peers > loose.plan.additional_peers

    def test_paper_formula(self):
        """m' = (m/2) * mean(CVError^2) / (delta * scale)^2."""
        observations = make_observations(spread=10.0)
        analysis = analyze_phase_one(
            count_query(), observations, delta_req=0.1,
            tuples_per_peer=25, cross_validation_rounds=5, seed=3,
        )
        cv = analysis.cross_validation
        expected = np.ceil(
            cv.half_size * cv.mean_squared_error
            / (0.1 * analysis.scale) ** 2
        )
        assert analysis.plan.additional_peers == int(expected)

    def test_homogeneous_data_needs_no_phase_two(self):
        """Identical ratios -> CVError 0 -> phase II skipped."""
        observations = make_observations(spread=0.0)
        analysis = analyze_phase_one(
            count_query(), observations, delta_req=0.1,
            tuples_per_peer=25, seed=1,
        )
        assert analysis.plan.additional_peers == 0
        assert not analysis.plan.phase_two_needed

    def test_cap_respected(self):
        observations = make_observations(spread=30.0)
        analysis = analyze_phase_one(
            count_query(), observations, delta_req=0.001,
            tuples_per_peer=25, max_phase_two_peers=17, seed=1,
        )
        assert analysis.plan.additional_peers == 17

    def test_known_scale_override(self):
        observations = make_observations(spread=10.0)
        analysis = analyze_phase_one(
            count_query(), observations, delta_req=0.1,
            tuples_per_peer=25, scale=50_000.0, seed=1,
        )
        assert analysis.scale == 50_000.0

    def test_invalid_delta(self):
        observations = make_observations()
        for delta in (0.0, -0.1, 1.5):
            with pytest.raises(SamplingError):
                analyze_phase_one(
                    count_query(), observations, delta_req=delta,
                    tuples_per_peer=25,
                )

    def test_deterministic_given_seed(self):
        observations = make_observations(spread=10.0)
        a = analyze_phase_one(
            count_query(), observations, delta_req=0.1,
            tuples_per_peer=25, seed=11,
        )
        b = analyze_phase_one(
            count_query(), observations, delta_req=0.1,
            tuples_per_peer=25, seed=11,
        )
        assert a.plan.additional_peers == b.plan.additional_peers
