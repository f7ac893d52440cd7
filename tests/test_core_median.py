"""Tests for the median/quantile engine (paper §5.6)."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.groupby import GroupByConfig
from repro.core.median import (
    MedianConfig,
    MedianEngine,
    weighted_rank_fraction,
)
from repro.core.statistics import StatisticsConfig, StatisticsEngine
from repro.core.two_phase import TwoPhaseConfig
from repro.errors import ConfigurationError, SamplingError
from repro.network.protocol import TupleReply, ValueSample
from repro.query.exact import evaluate_exact, rank_of_value
from repro.query.model import AggregateOp, AggregationQuery, Between

from . import row_reference, visit_oracle


MEDIAN_ALL = AggregationQuery(agg=AggregateOp.MEDIAN, column="A")


class TestMedianConfig:
    def test_defaults(self):
        config = MedianConfig()
        assert config.phase_one_peers == 40
        assert config.jump == 10

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MedianConfig(phase_one_peers=2)
        with pytest.raises(ConfigurationError):
            MedianConfig(tuples_per_peer=-1)
        with pytest.raises(ConfigurationError):
            MedianConfig(cross_validation_rounds=0)

    def test_walk_config(self):
        config = MedianConfig(jump=3, walk_variant="lazy")
        assert config.walk_config().jump == 3
        assert config.walk_config().variant == "lazy"


class TestWeightedRankFraction:
    def test_balanced(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        weights = np.ones(4)
        assert weighted_rank_fraction(values, weights, 2.5) == 0.5

    def test_ties_count_half(self):
        values = np.array([1.0, 2.0, 2.0, 3.0])
        weights = np.ones(4)
        # below = 1, tied = 2 counted half -> (1 + 1) / 4
        assert weighted_rank_fraction(values, weights, 2.0) == 0.5

    def test_all_tied_is_centered(self):
        """Homogeneous medians must report zero displacement, not 0.5."""
        values = np.full(6, 42.0)
        weights = np.ones(6)
        assert weighted_rank_fraction(values, weights, 42.0) == 0.5

    def test_extremes(self):
        values = np.array([1.0, 2.0])
        weights = np.ones(2)
        assert weighted_rank_fraction(values, weights, 0.5) == 0.0
        assert weighted_rank_fraction(values, weights, 10.0) == 1.0

    def test_weights_matter(self):
        values = np.array([1.0, 2.0])
        weights = np.array([3.0, 1.0])
        assert weighted_rank_fraction(values, weights, 1.5) == 0.75

    def test_zero_weights_rejected(self):
        with pytest.raises(SamplingError):
            weighted_rank_fraction(
                np.array([1.0]), np.array([0.0]), 0.5
            )


class TestMedianEngine:
    def test_rank_error_within_requirement(
        self, small_network, small_dataset
    ):
        engine = MedianEngine(small_network, seed=1)
        result = engine.execute(MEDIAN_ALL, delta_req=0.1, sink=0)
        rank = rank_of_value(
            result.estimate, small_dataset.databases, "A"
        )
        n = small_dataset.num_tuples
        # Integer values are heavily tied, so compare against the rank
        # band that the estimate's value occupies.
        assert abs(rank - n / 2) / n <= 0.1 + 0.05

    def test_estimate_is_near_true_median(self, small_network, small_dataset):
        engine = MedianEngine(small_network, seed=2)
        result = engine.execute(MEDIAN_ALL, delta_req=0.1, sink=0)
        truth = evaluate_exact(MEDIAN_ALL, small_dataset.databases)
        # Domain is 1..100; the estimate must land close in value space.
        assert abs(result.estimate - truth) <= 10

    def test_result_structure(self, small_network):
        engine = MedianEngine(small_network, seed=3)
        result = engine.execute(MEDIAN_ALL, delta_req=0.2, sink=0)
        assert result.query is MEDIAN_ALL
        assert result.rank_error_estimate >= 0
        assert result.phase_one.peers_visited == 40
        assert result.total_peers_visited >= 40
        assert result.cost.bytes_sent > 0

    def test_count_rejected(self, small_network):
        engine = MedianEngine(small_network, seed=1)
        query = AggregationQuery(agg=AggregateOp.COUNT, column="A")
        with pytest.raises(ConfigurationError):
            engine.execute(query, delta_req=0.1)

    def test_invalid_delta(self, small_network):
        engine = MedianEngine(small_network, seed=1)
        with pytest.raises(SamplingError):
            engine.execute(MEDIAN_ALL, delta_req=0.0)

    def test_quantile_query(self, small_network, small_dataset):
        query = AggregationQuery(
            agg=AggregateOp.QUANTILE, column="A", quantile=0.75
        )
        engine = MedianEngine(small_network, seed=4)
        result = engine.execute(query, delta_req=0.1, sink=0)
        truth = evaluate_exact(query, small_dataset.databases)
        assert abs(result.estimate - truth) <= 15

    def test_rare_selection_raises(self, small_network):
        """A predicate that matches nothing leaves no local medians."""
        query = AggregationQuery(
            agg=AggregateOp.MEDIAN, column="A",
            predicate=Between(column="A", low=5000, high=6000),
        )
        engine = MedianEngine(small_network, seed=5)
        with pytest.raises(SamplingError):
            engine.execute(query, delta_req=0.1, sink=0)

    def test_deterministic_given_seed(self, small_network):
        a = MedianEngine(small_network, seed=9).execute(
            MEDIAN_ALL, delta_req=0.1, sink=0
        )
        b = MedianEngine(small_network, seed=9).execute(
            MEDIAN_ALL, delta_req=0.1, sink=0
        )
        assert a.estimate == b.estimate

    def test_cap_respected(self, small_network):
        config = MedianConfig(max_phase_two_peers=3)
        engine = MedianEngine(small_network, config=config, seed=6)
        result = engine.execute(MEDIAN_ALL, delta_req=0.01, sink=0)
        if result.phase_two is not None:
            assert result.phase_two.peers_visited <= 3

    def test_random_sink(self, small_network):
        engine = MedianEngine(small_network, seed=7)
        result = engine.execute(MEDIAN_ALL, delta_req=0.2)
        assert 1 <= result.estimate <= 100

    def test_str(self, small_network):
        engine = MedianEngine(small_network, seed=8)
        result = engine.execute(MEDIAN_ALL, delta_req=0.2, sink=0)
        assert "MEDIAN" in str(result)


class TestMedianWalkVariants:
    @staticmethod
    def _rank_error(estimate, dataset):
        rank = rank_of_value(estimate, dataset.databases, "A")
        n = dataset.num_tuples
        return abs(rank - n / 2) / n

    def test_metropolis_uniform_variant(self, small_network, small_dataset):
        """The median engine works with the uniform MH walk: weights
        become uniform and the weighted median degenerates to the
        plain median of medians."""
        config = MedianConfig(walk_variant="metropolis-uniform", jump=20)
        engine = MedianEngine(small_network, config=config, seed=31)
        result = engine.execute(MEDIAN_ALL, delta_req=0.15, sink=0)
        assert self._rank_error(result.estimate, small_dataset) <= 0.2

    def test_lazy_variant(self, small_network, small_dataset):
        config = MedianConfig(walk_variant="lazy", jump=20)
        engine = MedianEngine(small_network, config=config, seed=32)
        result = engine.execute(MEDIAN_ALL, delta_req=0.15, sink=0)
        assert self._rank_error(result.estimate, small_dataset) <= 0.2

    def test_quantile_extremes(self, small_network, small_dataset):
        for fraction in (0.1, 0.9):
            query = AggregationQuery(
                agg=AggregateOp.QUANTILE, column="A", quantile=fraction
            )
            engine = MedianEngine(small_network, seed=33)
            result = engine.execute(query, delta_req=0.15, sink=0)
            truth = evaluate_exact(query, small_dataset.databases)
            assert abs(result.estimate - truth) <= 15


@pytest.mark.parametrize(
    "config", [MedianConfig, StatisticsConfig, GroupByConfig, TwoPhaseConfig]
)
def test_negative_phase_two_cap_rejected(config):
    """A negative cap used to be accepted and then silently skip
    phase II; every engine's config rejects it the same way."""
    with pytest.raises(
        ConfigurationError, match="max_phase_two_peers must be >= 0"
    ):
        config(max_phase_two_peers=-5)
    assert config(max_phase_two_peers=0).max_phase_two_peers == 0


# Replies of a median visit: a local median or nothing (no match),
# over peers 0..63 whose stationary probabilities are drawn alongside.
median_replies = st.lists(
    st.builds(
        TupleReply,
        source=st.integers(0, 63),
        destination=st.just(0),
        values=st.one_of(
            st.just(()),
            st.tuples(st.integers(1, 30).map(float)),
        ),
        local_tuples=st.integers(0, 60),
        processed_tuples=st.integers(0, 25),
    ),
    max_size=30,
)
probabilities = st.lists(
    st.floats(1e-4, 1.0), min_size=64, max_size=64
).map(np.asarray)


def _local_medians(replies, probs):
    """The rows of the replies' sample that shipped a local median,
    their probabilities attached — what the engine weighs."""
    sample = ValueSample.from_replies(replies, 0)
    sample = sample.with_probability(probs[sample["source"]])
    return sample.take(np.flatnonzero(sample["shipped"]))


class TestColumnsEqualRows:
    """The median engine over a :class:`ValueSample` equals the
    observation-list form in ``tests/row_reference.py`` bit for bit."""

    @given(median_replies, probabilities, st.floats(0.05, 0.95))
    @settings(max_examples=80, deadline=None)
    def test_weighted_quantile(self, replies, probs, fraction):
        medians = _local_medians(replies, probs)
        observations = row_reference.median_observations(replies, probs)
        assert medians.values.tolist() == [o.median for o in observations]
        if not observations:
            with pytest.raises(SamplingError):
                MedianEngine._weighted_median_of(medians, fraction)
            return
        assert MedianEngine._weighted_median_of(
            medians, fraction
        ) == row_reference.weighted_median_of(observations, fraction)

    @given(median_replies, probabilities, st.floats(0.05, 0.95), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rank_error(self, small_network, replies, probs, fraction, data):
        rounds = data.draw(st.integers(1, 6))
        engine = MedianEngine(
            small_network,
            MedianConfig(cross_validation_rounds=rounds),
            seed=data.draw(st.integers(0, 2**16)),
        )
        twin = copy.deepcopy(engine._rng)
        medians = _local_medians(replies, probs)
        observations = row_reference.median_observations(replies, probs)
        if len(observations) < 4:
            with pytest.raises(SamplingError):
                engine._cross_validated_rank_error(medians, fraction)
            return
        assert engine._cross_validated_rank_error(
            medians, fraction
        ) == row_reference.rank_error(observations, fraction, rounds, twin)
        assert engine._rng.bit_generator.state == twin.bit_generator.state


class TestCurrency:
    """Values replies travel as one :class:`ValueSample`: a clean
    MEDIAN query, histogram or distinct-value count builds no
    ``TupleReply``.  Counts repeat exactly — re-boxing the values path
    into per-peer objects fails here without a stopwatch."""

    @pytest.fixture()
    def constructed(self, monkeypatch):
        """Every ``TupleReply`` construction while the test runs."""
        calls = []
        original = TupleReply.__init__

        def counting(self, *args, **kwargs):
            calls.append(kwargs.get("source"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(TupleReply, "__init__", counting)
        return calls

    def test_clean_values_queries_build_no_reply_objects(
        self, small_network, constructed
    ):
        # The patch is live: the former per-peer visit trips it.
        visit_oracle.oracle_visit_values(
            small_network, 0, MEDIAN_ALL, sink=0,
            ledger=small_network.new_ledger(),
        )
        assert constructed == [0]
        constructed.clear()

        result = MedianEngine(small_network, seed=1).execute(
            MEDIAN_ALL, delta_req=0.1, sink=0
        )
        assert result.phase_two is not None
        statistics = StatisticsEngine(small_network, seed=2)
        statistics.histogram("A", num_buckets=5, sink=0)
        statistics.distinct_values("A", sink=0)
        assert constructed == []

        # Whoever wants the protocol objects materialises them, a
        # fresh one per row.
        sample = small_network.visit_values_batch(
            np.arange(30), MEDIAN_ALL, sink=0,
            ledger=small_network.new_ledger(), ship="sample",
        )
        assert constructed == []
        replies = list(sample)
        assert len(constructed) == len(replies) == len(sample) == 30
        assert constructed == [reply.source for reply in replies]
