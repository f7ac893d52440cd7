"""Tests for the histogram / distinct-value engines."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.result import PhaseReport
from repro.core.statistics import (
    DistinctResult,
    HistogramResult,
    StatisticsConfig,
    StatisticsEngine,
    _bucket_terms,
    _histogram_estimate,
)
from repro.errors import ConfigurationError, SamplingError
from repro.network.protocol import TupleReply, ValueSample
from repro.network.faults import FaultPlan
from repro.network.simulator import NetworkSimulator
from repro.query.model import Between

from . import row_reference


@pytest.fixture()
def engine(small_network):
    return StatisticsEngine(small_network, seed=3)


class TestStatisticsConfig:
    def test_defaults(self):
        config = StatisticsConfig()
        assert config.phase_one_peers == 40
        assert config.tuples_per_peer == 50

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StatisticsConfig(phase_one_peers=2)
        with pytest.raises(ConfigurationError):
            StatisticsConfig(tuples_per_peer=-1)
        with pytest.raises(ConfigurationError):
            StatisticsConfig(cross_validation_rounds=0)


class TestHistogram:
    def test_shape(self, engine):
        result = engine.histogram(
            "A", num_buckets=10, value_range=(1, 100), sink=0
        )
        assert isinstance(result, HistogramResult)
        assert result.num_buckets == 10
        assert result.edges.shape == (11,)
        assert result.counts.shape == (10,)
        assert result.total_estimate == pytest.approx(
            float(result.counts.sum())
        )

    def test_close_to_truth(self, engine, small_network, small_dataset):
        result = engine.histogram(
            "A", num_buckets=10, value_range=(1, 100),
            delta_req=0.1, sink=0,
        )
        true_counts, _ = np.histogram(
            small_dataset.values, bins=result.edges
        )
        tv = result.total_variation_distance(true_counts)
        assert tv <= 0.1

    def test_total_close_to_n(self, engine, small_dataset):
        result = engine.histogram(
            "A", num_buckets=10, value_range=(1, 100), sink=0
        )
        assert result.total_estimate == pytest.approx(
            small_dataset.num_tuples, rel=0.2
        )

    def test_predicate_filters(self, engine, small_dataset):
        result = engine.histogram(
            "A", num_buckets=5, value_range=(1, 100),
            predicate=Between(column="A", low=1, high=50), sink=0,
        )
        # Buckets above 50 must be (nearly) empty.
        upper_mass = result.counts[-2:].sum()
        assert upper_mass <= 0.02 * max(result.total_estimate, 1.0)

    def test_auto_range(self, engine):
        result = engine.histogram("A", num_buckets=4, sink=0)
        assert result.edges[0] >= 1
        assert result.edges[-1] <= 101

    def test_normalized_sums_to_one(self, engine):
        result = engine.histogram(
            "A", num_buckets=8, value_range=(1, 100), sink=0
        )
        assert result.normalized().sum() == pytest.approx(1.0)

    def test_tv_distance_validations(self, engine):
        result = engine.histogram(
            "A", num_buckets=4, value_range=(1, 100), sink=0
        )
        with pytest.raises(ConfigurationError):
            result.total_variation_distance(np.zeros(3))
        with pytest.raises(ConfigurationError):
            result.total_variation_distance(np.zeros(4))

    def test_invalid_params(self, engine):
        with pytest.raises(ConfigurationError):
            engine.histogram("A", num_buckets=0, sink=0)
        with pytest.raises(SamplingError):
            engine.histogram("A", delta_req=0.0, sink=0)
        with pytest.raises(ConfigurationError):
            engine.histogram("A", value_range=(5, 5), sink=0)

    def test_cost_accounts_bandwidth(self, engine):
        result = engine.histogram(
            "A", num_buckets=4, value_range=(1, 100), sink=0
        )
        # Raw samples ship back: bandwidth must dwarf a COUNT reply.
        assert result.cost.bytes_sent > 1000

    def test_phase_two_triggers_on_clustered_data(self, small_network):
        engine = StatisticsEngine(
            small_network,
            StatisticsConfig(phase_one_peers=8),
            seed=5,
        )
        result = engine.histogram(
            "A", num_buckets=10, value_range=(1, 100),
            delta_req=0.02, sink=0,
        )
        assert result.phase_two is not None


class TestDistinct:
    def test_finds_full_domain(self, engine):
        # 10k tuples over domain 1..100: the sample sees everything.
        result = engine.distinct_values("A", sink=0)
        assert isinstance(result, DistinctResult)
        assert result.observed >= 95
        assert result.chao1 >= result.observed

    def test_predicate_restricts_domain(self, engine):
        result = engine.distinct_values(
            "A", predicate=Between(column="A", low=1, high=10), sink=0
        )
        assert result.observed <= 10

    def test_chao1_corrects_upward_with_singletons(self, small_network):
        # A tiny budget leaves rare values unseen -> singletons exist
        # and Chao1 exceeds the observed count.
        engine = StatisticsEngine(
            small_network,
            StatisticsConfig(phase_one_peers=4, tuples_per_peer=3),
            seed=11,
        )
        result = engine.distinct_values("A", sink=0)
        assert result.observed < 100
        if result.singletons > 0:
            assert result.chao1 > result.observed

    def test_reports_cost(self, engine):
        result = engine.distinct_values("A", sink=0)
        assert result.cost.peers_visited == engine.config.phase_one_peers
        assert result.phase_one.tuples_sampled > 0


# Values replies with ragged samples (empty rows, zero-value peers)
# over peers 0..63, and those peers' stationary probabilities.
sample_replies = st.lists(
    st.builds(
        TupleReply,
        source=st.integers(0, 63),
        destination=st.just(0),
        values=st.lists(
            st.integers(-5, 110).map(float), max_size=8
        ).map(tuple),
        local_tuples=st.integers(0, 90),
        processed_tuples=st.integers(0, 30),
    ),
    min_size=1,
    max_size=25,
)
probabilities = st.lists(
    st.floats(1e-4, 1.0), min_size=64, max_size=64
).map(np.asarray)


class TestColumnsEqualRows:
    """Bucket counts and Chao1 over a :class:`ValueSample` equal the
    per-peer forms in ``tests/row_reference.py`` bit for bit."""

    @given(sample_replies, probabilities, st.data())
    @settings(max_examples=80, deadline=None)
    def test_bucket_counts_and_estimate(self, replies, probs, data):
        num_buckets = data.draw(st.integers(1, 8))
        low = data.draw(st.integers(-3, 50))
        high = low + data.draw(st.integers(1, 60))
        edges = np.linspace(low, high + 1e-9, num_buckets + 1)
        # Values sitting exactly on an edge (the last one included).
        replies = [
            reply if i % 3 else dataclasses.replace(
                reply, values=reply.values + (float(edges[i % edges.size]),)
            )
            for i, reply in enumerate(replies)
        ]
        sample = ValueSample.from_replies(replies, 0)
        sample = sample.with_probability(probs[sample["source"]])
        rows = row_reference.peer_value_samples(replies, probs)

        terms = _bucket_terms(sample, edges)
        assert terms.tolist() == [
            (row.bucket_aggregate(edges) * (1.0 / row.probability)).tolist()
            for row in rows
        ]
        order = np.asarray(
            data.draw(st.permutations(range(len(rows)))), dtype=np.intp
        )
        part = order[: data.draw(st.integers(1, len(rows)))]
        weights = 1.0 / sample["probability"]
        assert _histogram_estimate(
            terms[part], weights[part]
        ).tolist() == row_reference.histogram_estimate(
            [rows[i] for i in part], edges
        ).tolist()

    @given(
        st.integers(0, 2**16),
        st.sampled_from([0, 3, 20, 50]),
        st.sampled_from([0.0, 0.3]),
        st.integers(1, 100),
        st.integers(0, 60),
    )
    @settings(max_examples=25, deadline=None)
    def test_distinct_values_equals_per_peer_engine(
        self, small_topology, small_dataset, seed, budget, loss, low, width
    ):
        """The whole distinct-value query, against the per-peer
        collection and Chao1 over the concatenated samples."""

        def engine():
            network = NetworkSimulator(
                small_topology, small_dataset.databases, seed=7,
                fault_plan=FaultPlan(seed=7, reply_loss=loss) if loss else None,
            )
            config = StatisticsConfig(phase_one_peers=12, tuples_per_peer=budget)
            return StatisticsEngine(network, config, seed=seed)

        predicate = Between(column="A", low=low, high=low + width)
        result = engine().distinct_values("A", predicate=predicate, sink=0)

        oracle = engine()
        ledger = oracle._simulator.new_ledger()
        rows, hops = row_reference.collect_value_samples(
            oracle, 0, "A", predicate, 12, ledger
        )
        assert (
            result.observed, result.chao1, result.singletons, result.doubletons
        ) == row_reference.distinct(rows)
        assert result.phase_one == PhaseReport(
            len(rows), sum(row.processed_tuples for row in rows), hops
        )
        assert result.cost == ledger.snapshot()
