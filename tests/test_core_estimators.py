"""Tests for repro.core.estimators, including the paper's theorems.

The statistical tests use fixed seeds and generous tolerances: they
verify Theorem 1 (unbiasedness), Theorem 2 (Var = C/m) and the
agreement between the exact C and its sample estimate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimators import (
    clustering_badness,
    clustering_badness_estimate,
    estimate_total_column_sum,
    estimate_total_tuples,
    hajek_estimate,
    hajek_variance,
    horvitz_thompson,
    ht_standard_error,
    ht_variance,
    observations_from_replies,
    theoretical_variance,
)
from repro.errors import SamplingError
from repro.network.protocol import AggregateReply, AggregateSample

from . import row_reference
from .row_reference import Row, sample_of


def make_observation(value, probability, **kwargs):
    return Row(value, probability, source=kwargs.pop("peer_id", 0), **kwargs)


def stationary_population(seed=0, num_peers=50):
    """A synthetic population with degree-like probabilities."""
    rng = np.random.default_rng(seed)
    degrees = rng.integers(1, 20, size=num_peers).astype(float)
    probabilities = degrees / degrees.sum()
    values = rng.integers(0, 100, size=num_peers).astype(float)
    return values, probabilities


def draw_observations(values, probabilities, m, rng):
    picks = rng.choice(len(values), size=m, p=probabilities)
    return AggregateSample.from_columns(
        0, m, source=picks, aggregate_value=values[picks]
    ).with_probability(probabilities[picks])


class TestPeerObservation:
    """One row of the sample (what ``PeerObservation`` used to be)."""

    def test_ratio(self):
        obs = sample_of([make_observation(10.0, 0.25)])
        assert horvitz_thompson(obs) == 40.0

    def test_invalid_probability(self):
        with pytest.raises(SamplingError):
            sample_of([make_observation(1.0, 0.0)])
        with pytest.raises(SamplingError):
            sample_of([make_observation(1.0, 1.5)])


class TestHorvitzThompson:
    def test_single_observation(self):
        assert horvitz_thompson(sample_of([make_observation(5.0, 0.5)])) == 10.0

    def test_mean_of_ratios(self):
        observations = sample_of([
            make_observation(1.0, 0.5),   # ratio 2
            make_observation(3.0, 0.25),  # ratio 12
        ])
        assert horvitz_thompson(observations) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(SamplingError):
            horvitz_thompson(sample_of([]))

    def test_theorem1_unbiasedness(self):
        """Theorem 1: E[y''] = y under stationary sampling."""
        values, probabilities = stationary_population(seed=1)
        y = values.sum()
        rng = np.random.default_rng(2)
        estimates = [
            horvitz_thompson(
                draw_observations(values, probabilities, 20, rng)
            )
            for _ in range(3000)
        ]
        assert np.mean(estimates) == pytest.approx(y, rel=0.02)

    def test_uniform_probability_reduces_to_scaling(self):
        """With uniform probs 1/M, y'' = M * mean(values)."""
        observations = sample_of([
            make_observation(v, 0.1, peer_id=i)
            for i, v in enumerate([1.0, 2.0, 3.0])
        ])
        assert horvitz_thompson(observations) == pytest.approx(20.0)


class TestVariance:
    def test_variance_needs_two(self):
        with pytest.raises(SamplingError):
            ht_variance(sample_of([make_observation(1.0, 0.5)]))

    def test_variance_zero_for_constant_ratios(self):
        observations = sample_of([
            make_observation(1.0, 0.1),
            make_observation(2.0, 0.2),
        ])  # both ratios are 10
        assert ht_variance(observations) == 0.0

    def test_standard_error_is_sqrt(self):
        observations = sample_of([
            make_observation(1.0, 0.1),
            make_observation(4.0, 0.1),
        ])
        assert ht_standard_error(observations) == pytest.approx(
            np.sqrt(ht_variance(observations))
        )

    def test_theorem2_variance_shrinks_inversely_with_m(self):
        """Var[y''] = C/m: doubling m halves the variance."""
        values, probabilities = stationary_population(seed=3)
        rng = np.random.default_rng(4)

        def empirical_variance(m, trials=4000):
            estimates = [
                horvitz_thompson(
                    draw_observations(values, probabilities, m, rng)
                )
                for _ in range(trials)
            ]
            return np.var(estimates)

        var_10 = empirical_variance(10)
        var_40 = empirical_variance(40)
        assert var_10 / var_40 == pytest.approx(4.0, rel=0.25)

    def test_theorem2_exact_constant(self):
        """Empirical Var[y''] matches C/m from the closed form."""
        values, probabilities = stationary_population(seed=5)
        m = 15
        predicted = theoretical_variance(values, probabilities, m)
        rng = np.random.default_rng(6)
        estimates = [
            horvitz_thompson(draw_observations(values, probabilities, m, rng))
            for _ in range(6000)
        ]
        assert np.var(estimates) == pytest.approx(predicted, rel=0.1)


class TestClusteringBadness:
    def test_exact_formula(self):
        values = np.array([1.0, 3.0])
        probabilities = np.array([0.5, 0.5])
        y = 4.0
        expected = (2 - y) ** 2 * 0.5 + (6 - y) ** 2 * 0.5
        assert clustering_badness(values, probabilities) == expected

    def test_zero_when_ratios_constant(self):
        # values proportional to probabilities -> all ratios equal y.
        probabilities = np.array([0.25, 0.75])
        values = probabilities * 8.0
        assert clustering_badness(values, probabilities) == pytest.approx(0.0)

    def test_validations(self):
        with pytest.raises(SamplingError):
            clustering_badness([1.0], [0.5])  # probs don't sum to 1
        with pytest.raises(SamplingError):
            clustering_badness([1.0, 2.0], [1.0])  # shape mismatch
        with pytest.raises(SamplingError):
            clustering_badness([], [])
        with pytest.raises(SamplingError):
            clustering_badness([1.0, 2.0], [0.0, 1.0])  # zero prob

    def test_sample_estimate_converges_to_exact(self):
        values, probabilities = stationary_population(seed=7)
        exact = clustering_badness(values, probabilities)
        rng = np.random.default_rng(8)
        observations = draw_observations(values, probabilities, 8000, rng)
        estimate = clustering_badness_estimate(observations)
        assert estimate == pytest.approx(exact, rel=0.15)

    def test_estimate_needs_two(self):
        with pytest.raises(SamplingError):
            clustering_badness_estimate(
                sample_of([make_observation(1.0, 0.5)])
            )

    def test_theoretical_variance_validates_m(self):
        values, probabilities = stationary_population(seed=9)
        with pytest.raises(SamplingError):
            theoretical_variance(values, probabilities, 0)


class TestScaleEstimators:
    def test_total_tuples(self):
        observations = sample_of([
            make_observation(0.0, 0.5, local_tuples=10),
            make_observation(0.0, 0.25, local_tuples=5),
        ])
        # (10/0.5 + 5/0.25) / 2 = 20
        assert estimate_total_tuples(observations) == 20.0

    def test_total_column_sum(self):
        observations = sample_of([
            make_observation(0.0, 0.5, column_total=100.0),
            make_observation(0.0, 0.5, column_total=300.0),
        ])
        assert estimate_total_column_sum(observations) == 400.0

    def test_empty_rejected(self):
        with pytest.raises(SamplingError):
            estimate_total_tuples(sample_of([]))
        with pytest.raises(SamplingError):
            estimate_total_column_sum(sample_of([]))

    @pytest.mark.parametrize("name", ["ht", "hajek"])
    @pytest.mark.parametrize(
        "field", ["matching_count", "local_tuples", "column_total"]
    )
    def test_field_projection_equals_a_copied_sample(self, name, field):
        """Estimating another per-peer quantity is picking its field;
        the reference is the copy of the sample the engines used to
        build, with that quantity moved into ``aggregate_value`` —
        bit-equal."""
        from repro.core.estimators import make_estimator

        rng = np.random.default_rng(5)
        rows = [
            make_observation(
                float(rng.integers(0, 90)),
                float(rng.uniform(0.001, 0.05)),
                matching_count=float(rng.uniform(0, 40)),
                column_total=float(rng.uniform(0, 5000)),
                local_tuples=int(rng.integers(1, 200)),
            )
            for _ in range(57)
        ]
        observations = sample_of(rows)
        point, _ = make_estimator(name, num_peers=2000)
        copied = sample_of(
            [obs._replace(aggregate_value=getattr(obs, field)) for obs in rows]
        )
        assert point(observations, field=field) == point(copied)
        assert point(observations) == point(
            observations, field="aggregate_value"
        )


class TestObservationsFromReplies:
    def make_reply(self, degree, value=5.0):
        reply = AggregateReply(
            source=1,
            destination=0,
            aggregate_value=value,
            matching_count=value,
            column_total=value * 2,
            degree=degree,
            local_tuples=10,
            processed_tuples=10,
        )
        return AggregateSample.from_replies([reply], sink=0)

    def test_simple_variant_probability(self):
        observations = observations_from_replies(
            self.make_reply(degree=4), num_edges=100
        )
        assert observations["probability"][0] == pytest.approx(4 / 200)

    def test_metropolis_uniform_needs_num_peers(self):
        with pytest.raises(SamplingError):
            observations_from_replies(
                self.make_reply(degree=4),
                num_edges=100,
                variant="metropolis-uniform",
            )

    def test_fields_copied(self):
        """The columns survive attaching probabilities."""
        observations = observations_from_replies(
            self.make_reply(degree=4, value=7.0), num_edges=100
        )
        (obs,) = observations
        assert obs.aggregate_value == 7.0
        assert obs.matching_count == 7.0
        assert obs.column_total == 14.0
        assert obs.local_tuples == 10

    def test_invalid_num_edges(self):
        with pytest.raises(SamplingError):
            observations_from_replies(sample_of([]), num_edges=0)


class TestHajek:
    def test_equals_ht_when_probabilities_uniform(self):
        observations = sample_of([
            make_observation(v, 0.1, peer_id=i)
            for i, v in enumerate([1.0, 2.0, 3.0])
        ])
        from repro.core.estimators import hajek_estimate
        assert hajek_estimate(observations, num_peers=10) == (
            pytest.approx(horvitz_thompson(observations))
        )

    def test_cancels_degree_noise_on_homogeneous_data(self):
        """Identical per-peer values with wildly varying probabilities:
        Hájek is exact, plain HT is noisy."""
        from repro.core.estimators import hajek_estimate
        rng = np.random.default_rng(1)
        num_peers = 50
        probabilities = rng.uniform(0.001, 0.05, num_peers)
        probabilities = probabilities / probabilities.sum()
        observations = sample_of([
            make_observation(7.0, float(probabilities[i]), peer_id=i)
            for i in rng.choice(num_peers, size=20)
        ])
        assert hajek_estimate(observations, num_peers) == (
            pytest.approx(7.0 * num_peers)
        )

    def test_asymptotically_unbiased(self):
        from repro.core.estimators import hajek_estimate
        values, probabilities = stationary_population(seed=2)
        y = values.sum()
        rng = np.random.default_rng(3)
        estimates = []
        for _ in range(2000):
            observations = draw_observations(
                values, probabilities, 60, rng
            )
            estimates.append(
                hajek_estimate(observations, len(values))
            )
        assert np.mean(estimates) == pytest.approx(y, rel=0.05)

    def test_variance_positive_and_shrinks(self):
        from repro.core.estimators import hajek_variance
        values, probabilities = stationary_population(seed=4)
        rng = np.random.default_rng(5)
        small = draw_observations(values, probabilities, 20, rng)
        large = draw_observations(values, probabilities, 200, rng)
        var_small = hajek_variance(small, len(values))
        var_large = hajek_variance(large, len(values))
        assert var_small > 0
        assert var_large < var_small

    def test_jackknife_matches_monte_carlo(self):
        """The jackknife variance should track the true sampling
        variance of the Hájek estimator."""
        from repro.core.estimators import hajek_estimate, hajek_variance
        values, probabilities = stationary_population(seed=6)
        m = 40
        rng = np.random.default_rng(7)
        estimates = []
        jackknives = []
        for _ in range(1500):
            observations = draw_observations(values, probabilities, m, rng)
            estimates.append(hajek_estimate(observations, len(values)))
            jackknives.append(hajek_variance(observations, len(values)))
        assert np.mean(jackknives) == pytest.approx(
            np.var(estimates), rel=0.25
        )

    def test_validations(self):
        from repro.core.estimators import (
            hajek_estimate,
            hajek_variance,
            make_estimator,
        )
        obs = sample_of([make_observation(1.0, 0.5)])
        with pytest.raises(SamplingError):
            hajek_estimate(obs, num_peers=0)
        with pytest.raises(SamplingError):
            hajek_variance(obs, num_peers=10)  # needs >= 2
        with pytest.raises(SamplingError):
            make_estimator("hajek", num_peers=0)
        with pytest.raises(SamplingError):
            make_estimator("magic")

    def test_make_estimator_dispatch(self):
        from repro.core.estimators import make_estimator
        point, variance = make_estimator("ht")
        observations = sample_of([
            make_observation(1.0, 0.5),
            make_observation(3.0, 0.5),
        ])
        assert point(observations) == 4.0
        assert variance(observations) > 0
        point_h, variance_h = make_estimator("hajek", num_peers=2)
        assert point_h(observations) == pytest.approx(4.0)
        assert variance_h(observations) >= 0


# ---------------------------------------------------------------------------
# The columnar sample: columns == rows, and the sample's own laws
# ---------------------------------------------------------------------------

NUM_EDGES, NUM_PEERS = 4000, 900
FIELDS = ["aggregate_value", "matching_count", "local_tuples", "column_total"]

_amounts = st.floats(min_value=0, max_value=1e6, allow_nan=False)
payload_rows = st.lists(
    st.builds(
        Row,
        aggregate_value=_amounts,
        probability=st.just(1.0),  # reconstructed from ``degree`` below
        source=st.integers(0, NUM_PEERS - 1),
        matching_count=_amounts,
        column_total=_amounts,
        local_tuples=st.integers(0, 5000),
        contribution_variance=_amounts,
        processed_tuples=st.integers(0, 5000),
        degree=st.integers(1, 400),
    ),
    min_size=1,
    max_size=40,
)


def reference_probability(degree, variant):
    """The per-reply arithmetic ``observations_from_replies`` looped."""
    if variant == "metropolis-uniform":
        return 1.0 / NUM_PEERS
    return degree / (2.0 * NUM_EDGES)


class TestColumnsEqualRows:
    @pytest.mark.parametrize("variant", ["simple", "metropolis-uniform"])
    @given(payload_rows)
    @settings(max_examples=60, deadline=None)
    def test_every_estimator_is_bit_equal_to_the_row_wise_one(
        self, variant, rows
    ):
        rows = [
            row._replace(
                probability=reference_probability(row.degree, variant)
            )
            for row in rows
        ]
        # Through the wire form, so the row accessor and the from-rows
        # constructor are on the path too.
        replies = list(sample_of(rows))
        sample = observations_from_replies(
            AggregateSample.from_replies(replies, 0),
            NUM_EDGES, NUM_PEERS, variant,
        )
        assert sample["probability"].tolist() == [
            row.probability for row in rows
        ]
        for field in FIELDS:
            assert horvitz_thompson(
                sample, field
            ) == row_reference.horvitz_thompson(rows, field)
            assert hajek_estimate(
                sample, NUM_PEERS, field
            ) == row_reference.hajek_estimate(rows, NUM_PEERS, field)
        if len(rows) >= 2:
            assert ht_variance(sample) == row_reference.ht_variance(rows)
            assert hajek_variance(
                sample, NUM_PEERS
            ) == row_reference.hajek_variance(rows, NUM_PEERS)

    @given(payload_rows, st.data())
    @settings(max_examples=60, deadline=None)
    def test_concat_of_takes_has_the_rows_at_the_indices(self, rows, data):
        sample = sample_of(rows)
        indices = st.lists(st.integers(0, len(rows) - 1), max_size=30)
        i, j = data.draw(indices), data.draw(indices)
        both = AggregateSample.concat(
            [
                sample.take(np.asarray(i, dtype=np.int64)),
                sample.take(np.asarray(j, dtype=np.int64)),
            ]
        )
        assert both.rows.tolist() == [sample.rows[k].item() for k in i + j]
        assert both["probability"].tolist() == [
            rows[k].probability for k in i + j
        ]
        assert both.sink == sample.sink

    @pytest.mark.parametrize(
        "probability",
        [0.0, -0.1, 1.5, float("nan"), [0.2, 0.0, 0.2], [0.2, 0.2]],
    )
    def test_a_bad_probability_cannot_be_attached(self, probability):
        sample = AggregateSample.from_columns(0, 3, degree=[1, 2, 3])
        with pytest.raises(SamplingError):
            sample.with_probability(probability)

    def test_no_estimate_without_probabilities(self):
        """Neither fresh from the wire nor after ``replace`` — a changed
        degree is a changed probability — and never a division by
        ``None``."""
        fresh = AggregateSample.from_columns(
            0, 3, degree=[1, 2, 3], aggregate_value=[5.0, 6.0, 7.0]
        )
        stale = fresh.with_probability(0.1).replace(degree=[3, 2, 1])
        for sample in (fresh, stale):
            for estimator in (
                horvitz_thompson,
                ht_variance,
                clustering_badness_estimate,
                lambda s: hajek_estimate(s, 10),
                lambda s: hajek_variance(s, 10),
            ):
                with pytest.raises(SamplingError, match="probabilities"):
                    estimator(sample)
