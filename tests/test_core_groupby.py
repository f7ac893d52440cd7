"""Tests for the GROUP BY engine and its supporting pieces."""

import numpy as np
import pytest

import repro
from repro.core.groupby import GroupByConfig, GroupByEngine, GroupByResult
from repro.data.generator import DatasetConfig, generate_dataset
from repro.data.localdb import LocalDatabase
from repro.errors import ConfigurationError, QueryError, SamplingError
from repro.network.protocol import GroupReply
from repro.network.simulator import NetworkSimulator
from repro.network.visits import GroupVisits
from repro.query.exact import evaluate_exact_groups
from repro.query.model import AggregateOp, AggregationQuery
from repro.query.parser import parse_query

from . import visit_oracle


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


def _group_reply(network, peer, query, **kwargs):
    """``peer``'s GROUP BY reply, through the GROUP BY batch visit:
    ``(entries as (group, count, sum) rows, the reply's row)``."""
    sample = network.visit_batch(
        [peer], GroupVisits(network, query, 1, **kwargs), network.new_ledger()
    )
    return sample.values, sample.replies.rows[0]


class TestGroupVisit:
    def test_reply_entries_scaled(self, grouped_network):
        network, dataset = grouped_network
        entries, reply = _group_reply(network, 0, GROUPED_COUNT)
        assert entries[:, 1].sum() == pytest.approx(reply["local_tuples"])

    def test_subsampling_scales(self, grouped_network):
        network, dataset = grouped_network
        entries, reply = _group_reply(
            network, 0, GROUPED_COUNT, tuples_per_peer=10
        )
        assert reply["processed_tuples"] == 10
        assert entries[:, 1].sum() == pytest.approx(reply["local_tuples"])

    def test_rejects_ungrouped_query(self, grouped_network):
        network, dataset = grouped_network
        query = parse_query("SELECT COUNT(A) FROM T")
        with pytest.raises(ConfigurationError):
            _group_reply(network, 0, query)

    @pytest.mark.parametrize("tuples_per_peer", [0, 10])
    def test_entries_are_the_per_group_loops(
        self, grouped_network, tuples_per_peer
    ):
        """One pass keyed by (peer, group) gives, bit for bit, what a
        loop over each peer's groups gave: entries, ledger and visit
        stream, over a float column too."""
        network, dataset = grouped_network
        queries = [
            GROUPED_COUNT,
            parse_query(
                "SELECT SUM(A) FROM T WHERE A BETWEEN 10 AND 60 GROUP BY G"
            ),
        ]
        floats = NetworkSimulator(
            network.topology,
            [
                LocalDatabase({
                    "A": database.column("A") / 7.0,
                    "G": database.column("G"),
                })
                for database in network.databases()
            ],
            seed=5,
        )
        peers = np.arange(0, network.num_peers, 3)
        for simulator in (network, floats):
            for query in queries:
                ledger, oracle_ledger = (
                    simulator.new_ledger(), simulator.new_ledger()
                )
                sample = simulator.visit_batch(
                    peers,
                    GroupVisits(simulator, query, 1, tuples_per_peer, seed=4),
                    ledger,
                )
                replies = visit_oracle.oracle_visit_batch(
                    simulator, visit_oracle.oracle_visit_group_aggregate,
                    "group", peers, query, 1, oracle_ledger,
                    tuples_per_peer=tuples_per_peer, seed=4,
                )
                assert sample.values.tolist() == [
                    list(entry) for reply in replies for entry in reply.entries
                ]
                assert sample["shipped"].tolist() == [
                    len(reply.entries) for reply in replies
                ]
                assert ledger.snapshot() == oracle_ledger.snapshot()


class TestCurrency:
    """A clean GROUP BY query's replies travel as one
    :class:`ValueSample` of ``(group, count, sum)`` rows: it builds no
    ``GroupReply``.  Counts repeat exactly — a per-peer visit coming
    back fails here without a stopwatch."""

    def test_clean_group_by_query_builds_no_reply_objects(
        self, grouped_network, monkeypatch
    ):
        network, dataset = grouped_network
        constructed = []
        original = GroupReply.__init__

        def counting(self, *args, **kwargs):
            constructed.append(kwargs.get("source"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(GroupReply, "__init__", counting)
        # The patch is live: the former per-peer visit trips it.
        visit_oracle.oracle_visit_group_aggregate(
            network, 0, GROUPED_COUNT, 1, network.new_ledger()
        )
        assert constructed == [0]
        constructed.clear()

        result = GroupByEngine(network, GroupByConfig(), seed=3).execute(
            GROUPED_COUNT, delta_req=0.05, sink=0
        )
        assert result.phase_two is not None
        assert constructed == []


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
