"""Tests for the GROUP BY engine and its supporting pieces."""

import numpy as np
import pytest

import repro
from repro.core.groupby import GroupByConfig, GroupByEngine, GroupByResult
from repro.data.generator import DatasetConfig, generate_dataset
from repro.errors import ConfigurationError, QueryError, SamplingError
from repro.network.simulator import NetworkSimulator
from repro.query.exact import evaluate_exact_groups
from repro.query.model import AggregateOp, AggregationQuery
from repro.query.parser import parse_query


@pytest.fixture(scope="module")
def grouped_network(small_topology):
    dataset = generate_dataset(
        small_topology,
        DatasetConfig(
            num_tuples=20_000,
            cluster_level=0.25,
            group_column="G",
            num_groups=6,
        ),
        seed=31,
    )
    network = NetworkSimulator(small_topology, dataset.databases, seed=31)
    return network, dataset


GROUPED_COUNT = parse_query("SELECT COUNT(A) FROM T GROUP BY G")
GROUPED_SUM = parse_query(
    "SELECT SUM(A) FROM T WHERE A BETWEEN 1 AND 50 GROUP BY G"
)


class TestModelAndParser:
    def test_parse_group_by(self):
        assert GROUPED_COUNT.group_by == "G"
        assert GROUPED_COUNT.agg is AggregateOp.COUNT

    def test_sql_round_trip(self):
        assert parse_query(GROUPED_SUM.to_sql()).group_by == "G"

    def test_group_by_median_rejected(self):
        with pytest.raises(QueryError):
            AggregationQuery(
                agg=AggregateOp.MEDIAN, column="A", group_by="G"
            )

    def test_columns_referenced_includes_group(self):
        assert "G" in GROUPED_SUM.columns_referenced()


class TestExactGroups:
    def test_counts_partition_n(self, grouped_network):
        network, dataset = grouped_network
        truth = evaluate_exact_groups(GROUPED_COUNT, dataset.databases)
        assert sum(truth.values()) == dataset.num_tuples

    def test_matches_numpy(self, grouped_network):
        network, dataset = grouped_network
        truth = evaluate_exact_groups(GROUPED_COUNT, dataset.databases)
        for group in truth:
            expected = int(np.count_nonzero(dataset.group_values == group))
            assert truth[group] == expected

    def test_avg_groups(self, grouped_network):
        network, dataset = grouped_network
        query = parse_query("SELECT AVG(A) FROM T GROUP BY G")
        truth = evaluate_exact_groups(query, dataset.databases)
        overall = float(dataset.values.mean())
        for value in truth.values():
            assert value == pytest.approx(overall, rel=0.25)

    def test_requires_group_by(self, grouped_network):
        network, dataset = grouped_network
        query = parse_query("SELECT COUNT(A) FROM T")
        with pytest.raises(QueryError):
            evaluate_exact_groups(query, dataset.databases)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT COUNT(A) FROM T GROUP BY G",
            "SELECT SUM(A) FROM T WHERE A BETWEEN 1 AND 50 GROUP BY G",
            "SELECT AVG(A) FROM T WHERE A BETWEEN 20 AND 80 GROUP BY G",
        ],
    )
    def test_flat_store_equals_per_database(self, grouped_network, sql):
        """A ``FlatDataset`` is read in one pass, like
        ``evaluate_exact``'s, with the per-database answers."""
        network, dataset = grouped_network
        query = parse_query(sql)
        flat = evaluate_exact_groups(query, dataset.databases.store)
        assert flat == evaluate_exact_groups(query, dataset.databases)
        assert len(flat) == 6

    def test_unknown_value_column_is_a_query_error(self, grouped_network):
        network, dataset = grouped_network
        query = parse_query("SELECT SUM(B) FROM T GROUP BY G")
        with pytest.raises(QueryError, match="unknown column 'B'"):
            evaluate_exact_groups(query, dataset.databases.store)


class TestGroupVisit:
    def test_reply_entries_scaled(self, grouped_network):
        network, dataset = grouped_network
        ledger = network.new_ledger()
        reply = network.visit_group_aggregate(
            0, GROUPED_COUNT, sink=1, ledger=ledger
        )
        total_count = sum(entry[1] for entry in reply.entries)
        assert total_count == pytest.approx(reply.local_tuples)

    def test_subsampling_scales(self, grouped_network):
        network, dataset = grouped_network
        ledger = network.new_ledger()
        reply = network.visit_group_aggregate(
            0, GROUPED_COUNT, sink=1, ledger=ledger, tuples_per_peer=10
        )
        assert reply.processed_tuples == 10
        total = sum(entry[1] for entry in reply.entries)
        assert total == pytest.approx(reply.local_tuples)

    def test_rejects_ungrouped_query(self, grouped_network):
        network, dataset = grouped_network
        query = parse_query("SELECT COUNT(A) FROM T")
        with pytest.raises(ConfigurationError):
            network.visit_group_aggregate(
                0, query, sink=1, ledger=network.new_ledger()
            )


class TestGroupByEngine:
    def test_count_groups_accurate(self, grouped_network):
        network, dataset = grouped_network
        truth = evaluate_exact_groups(GROUPED_COUNT, dataset.databases)
        engine = GroupByEngine(
            network, GroupByConfig(max_phase_two_peers=400), seed=1
        )
        result = engine.execute(GROUPED_COUNT, delta_req=0.05, sink=0)
        assert result.total_variation_distance(truth) <= 0.05
        assert result.total == pytest.approx(
            dataset.num_tuples, rel=0.15
        )

    def test_sum_groups_accurate(self, grouped_network):
        network, dataset = grouped_network
        truth = evaluate_exact_groups(GROUPED_SUM, dataset.databases)
        engine = GroupByEngine(
            network, GroupByConfig(max_phase_two_peers=400), seed=2
        )
        result = engine.execute(GROUPED_SUM, delta_req=0.05, sink=0)
        assert result.total_variation_distance(truth) <= 0.08

    def test_avg_groups_reasonable(self, grouped_network):
        network, dataset = grouped_network
        query = parse_query("SELECT AVG(A) FROM T GROUP BY G")
        truth = evaluate_exact_groups(query, dataset.databases)
        engine = GroupByEngine(
            network, GroupByConfig(max_phase_two_peers=400), seed=3
        )
        result = engine.execute(query, delta_req=0.1, sink=0)
        for group, value in result.groups.items():
            assert value == pytest.approx(truth[group], rel=0.3)

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_avg_sized_like_count(self, grouped_network, seed):
        """Δreq bounds the TV over normalized group masses, so AVG
        sizes phase II from the count vector: the same plan as COUNT
        for the same seed and sink (it used to cross-validate the
        per-group averages)."""
        network, dataset = grouped_network
        plans = [
            GroupByEngine(network, seed=seed).execute(
                query, delta_req=0.05, sink=0
            ).phase_two
            for query in (
                GROUPED_COUNT, parse_query("SELECT AVG(A) FROM T GROUP BY G")
            )
        ]
        assert plans[0] is not None and plans[1] is not None
        assert plans[1].peers_visited == plans[0].peers_visited

    def test_groups_sorted(self, grouped_network):
        network, dataset = grouped_network
        engine = GroupByEngine(network, seed=4)
        result = engine.execute(GROUPED_COUNT, delta_req=0.2, sink=0)
        keys = list(result.groups)
        assert keys == sorted(keys)

    def test_requires_group_by(self, grouped_network):
        network, dataset = grouped_network
        engine = GroupByEngine(network, seed=5)
        with pytest.raises(ConfigurationError):
            engine.execute(
                parse_query("SELECT COUNT(A) FROM T"), delta_req=0.1
            )

    def test_invalid_delta(self, grouped_network):
        network, dataset = grouped_network
        engine = GroupByEngine(network, seed=5)
        with pytest.raises(SamplingError):
            engine.execute(GROUPED_COUNT, delta_req=0.0)

    def test_result_structure(self, grouped_network):
        network, dataset = grouped_network
        engine = GroupByEngine(network, seed=6)
        result = engine.execute(GROUPED_COUNT, delta_req=0.2, sink=0)
        assert isinstance(result, GroupByResult)
        assert result.num_groups >= 5
        assert result.cost.peers_visited >= result.phase_one.peers_visited

    def test_deterministic(self, grouped_network):
        network, dataset = grouped_network
        a = GroupByEngine(network, seed=9).execute(
            GROUPED_COUNT, delta_req=0.1, sink=0
        )
        b = GroupByEngine(network, seed=9).execute(
            GROUPED_COUNT, delta_req=0.1, sink=0
        )
        assert a.groups == b.groups


class TestGeneratorGroupColumn:
    def test_group_column_generated(self, grouped_network):
        network, dataset = grouped_network
        assert dataset.group_values is not None
        assert dataset.group_values.min() >= 1
        assert dataset.group_values.max() <= 6
        assert sorted(dataset.databases[0].column_names) == ["A", "G"]

    def test_rows_stay_joined(self, small_topology):
        """Every (A, G) row in the per-peer databases appears in the
        global arrays at the same index."""
        dataset = generate_dataset(
            small_topology,
            DatasetConfig(
                num_tuples=5_000, group_column="G", num_groups=4
            ),
            seed=8,
        )
        rebuilt_a = np.concatenate(
            [db.column("A") for db in dataset.databases]
        )
        rebuilt_g = np.concatenate(
            [db.column("G") for db in dataset.databases]
        )
        assert sorted(rebuilt_a.tolist()) == sorted(dataset.values.tolist())
        assert sorted(rebuilt_g.tolist()) == sorted(
            dataset.group_values.tolist()
        )

    def test_group_column_name_validation(self):
        with pytest.raises(ConfigurationError):
            DatasetConfig(group_column="A")
        with pytest.raises(ConfigurationError):
            DatasetConfig(group_column="")


class TestTopK:
    def test_heavy_hitters(self, grouped_network):
        """The heaviest group (Zipf group 1) ranks first."""
        network, dataset = grouped_network
        engine = GroupByEngine(
            network, GroupByConfig(max_phase_two_peers=400), seed=7
        )
        result = engine.execute(GROUPED_COUNT, delta_req=0.05, sink=0)
        top = result.top(3)
        assert len(top) == 3
        assert top[0][1] >= top[1][1] >= top[2][1]
        assert top[0][0] == 1.0  # Zipf groups: 1 is the heaviest

    def test_top_k_bounds(self, grouped_network):
        network, dataset = grouped_network
        engine = GroupByEngine(network, seed=8)
        result = engine.execute(GROUPED_COUNT, delta_req=0.2, sink=0)
        assert len(result.top(1000)) == result.num_groups
        with pytest.raises(ConfigurationError):
            result.top(0)
