"""Unit tests for repro.query.exact."""

import tracemalloc

import numpy as np
import pytest

from repro.data.flat import FlatDataset
from repro.data.generator import DatasetConfig, generate_dataset
from repro.data.localdb import LocalDatabase
from repro.errors import QueryError
from repro.query.exact import (
    evaluate_exact,
    evaluate_exact_groups,
    evaluate_on_columns,
    measured_selectivity,
    rank_of_value,
)
from repro.query.model import AggregateOp, AggregationQuery, Between
from repro.query.parser import parse_query

DATABASES = [
    LocalDatabase({"A": np.array([1, 2, 3])}),
    LocalDatabase({"A": np.array([4, 5])}),
    LocalDatabase({"A": np.array([], dtype=np.int64)}),
]


def query(agg, low=None, high=None, quantile=None):
    predicate = (
        Between(column="A", low=low, high=high)
        if low is not None
        else None
    )
    kwargs = {"agg": agg, "column": "A"}
    if predicate is not None:
        kwargs["predicate"] = predicate
    if quantile is not None:
        kwargs["quantile"] = quantile
    return AggregationQuery(**kwargs)


class TestEvaluateOnColumns:
    def test_count(self):
        columns = {"A": np.array([1, 2, 3, 4])}
        assert evaluate_on_columns(
            query(AggregateOp.COUNT, 2, 3), columns
        ) == 2.0

    def test_sum(self):
        columns = {"A": np.array([1, 2, 3, 4])}
        assert evaluate_on_columns(
            query(AggregateOp.SUM, 2, 4), columns
        ) == 9.0

    def test_sum_empty_selection_is_zero(self):
        columns = {"A": np.array([1, 2])}
        assert evaluate_on_columns(
            query(AggregateOp.SUM, 50, 60), columns
        ) == 0.0

    def test_avg(self):
        columns = {"A": np.array([1, 2, 3, 4])}
        assert evaluate_on_columns(query(AggregateOp.AVG), columns) == 2.5

    def test_avg_empty_selection_raises(self):
        columns = {"A": np.array([1, 2])}
        with pytest.raises(QueryError):
            evaluate_on_columns(query(AggregateOp.AVG, 50, 60), columns)

    def test_median(self):
        columns = {"A": np.array([1, 2, 3, 4, 100])}
        assert evaluate_on_columns(query(AggregateOp.MEDIAN), columns) == 3.0

    def test_quantile(self):
        columns = {"A": np.arange(1, 101)}
        value = evaluate_on_columns(
            query(AggregateOp.QUANTILE, quantile=0.25), columns
        )
        assert value == pytest.approx(25.75)

    def test_unknown_column(self):
        with pytest.raises(QueryError):
            evaluate_on_columns(
                AggregationQuery(agg=AggregateOp.SUM, column="Z"),
                {"A": np.array([1])},
            )


class TestEvaluateExact:
    def test_count_distributes(self):
        assert evaluate_exact(query(AggregateOp.COUNT, 2, 4), DATABASES) == 3.0

    def test_sum_distributes(self):
        assert evaluate_exact(query(AggregateOp.SUM), DATABASES) == 15.0

    def test_avg_gathers(self):
        assert evaluate_exact(query(AggregateOp.AVG), DATABASES) == 3.0

    def test_median_gathers(self):
        assert evaluate_exact(query(AggregateOp.MEDIAN), DATABASES) == 3.0

    def test_median_empty_selection_raises(self):
        with pytest.raises(QueryError):
            evaluate_exact(query(AggregateOp.MEDIAN, 50, 60), DATABASES)

    def test_matches_global_computation(self, small_dataset):
        q = query(AggregateOp.COUNT, 1, 30)
        exact = evaluate_exact(q, small_dataset.databases)
        global_count = float(
            np.count_nonzero(
                (small_dataset.values >= 1) & (small_dataset.values <= 30)
            )
        )
        assert exact == global_count


    @pytest.mark.parametrize("agg", ["COUNT", "SUM", "AVG", "MEDIAN"])
    def test_unknown_column_raises_for_every_aggregate(self, agg):
        """``COUNT(B)`` over a table without ``B`` is an error, as in
        every engine — not the row count."""
        rng = np.random.default_rng(5)
        columns = {
            "A": rng.integers(1, 101, 5000),
            "G": rng.integers(1, 6, 5000),
        }
        flat = FlatDataset(columns, np.array([0, 2000, 5000]))
        per_peer = [
            LocalDatabase({name: data[:2000] for name, data in columns.items()}),
            LocalDatabase({name: data[2000:] for name, data in columns.items()}),
        ]
        query = parse_query(f"SELECT {agg}(B) FROM T WHERE A BETWEEN 1 AND 50")
        with pytest.raises(QueryError, match="unknown column 'B'"):
            evaluate_on_columns(query, columns)
        for databases in (flat, per_peer):
            with pytest.raises(QueryError, match="unknown column 'B'"):
                evaluate_exact(query, databases)

    def test_flat_equals_per_peer(self, small_dataset):
        store = small_dataset.databases.store
        for sql in (
            "SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30",
            "SELECT SUM(A) FROM T WHERE A BETWEEN 40 AND 100",
            "SELECT AVG(A) FROM T WHERE A BETWEEN 10 AND 90",
            "SELECT MEDIAN(A) FROM T WHERE A BETWEEN 5 AND 60",
        ):
            query = parse_query(sql)
            assert evaluate_exact(query, store) == evaluate_exact(
                query, list(small_dataset.databases)
            )


class TestADatasetsTableReadsItsStore:
    """``generate_dataset(...).databases`` is a ``DatabaseTable`` —
    slices of one store.  Every exact answer over it reads the store:
    no per-peer ``LocalDatabase`` is built, and the answer is the
    store's."""

    SQL = [
        "SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30",
        "SELECT SUM(A) FROM T WHERE A BETWEEN 40 AND 100",
        "SELECT AVG(A) FROM T WHERE A BETWEEN 10 AND 90",
        "SELECT MEDIAN(A) FROM T WHERE A BETWEEN 5 AND 60",
        "SELECT QUANTILE(A, 0.25) FROM T",
    ]

    def test_no_database_is_built(self, small_topology, monkeypatch):
        table = generate_dataset(
            small_topology,
            DatasetConfig(num_tuples=10_000, group_column="G", num_groups=4),
            seed=3,
        ).databases
        store = table.store
        expected = {
            "answers": [
                evaluate_exact(parse_query(sql), store) for sql in self.SQL
            ],
            "groups": evaluate_exact_groups(
                parse_query("SELECT AVG(A) FROM T GROUP BY G"), store
            ),
            "selectivity": measured_selectivity(
                parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30"),
                store,
            ),
            "rank": rank_of_value(40.5, store, "A"),
        }
        built = []
        init = LocalDatabase.__init__

        def counting(database, *args, **kwargs):
            built.append(database)
            init(database, *args, **kwargs)

        monkeypatch.setattr(LocalDatabase, "__init__", counting)
        table[0]  # the patch is live
        assert len(built) == 1
        built.clear()
        observed = {
            "answers": [
                evaluate_exact(parse_query(sql), table) for sql in self.SQL
            ],
            "groups": evaluate_exact_groups(
                parse_query("SELECT AVG(A) FROM T GROUP BY G"), table
            ),
            "selectivity": measured_selectivity(
                parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30"),
                table,
            ),
            "rank": rank_of_value(40.5, table, "A"),
        }
        assert built == []
        assert observed == expected


class TestMemoryFloor:
    """COUNT/SUM/AVG read the predicate mask and sum the column where
    it holds: over 400k rows they allocate masks (one byte a row), never
    a copy of the selected values (eight bytes a row)."""

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT SUM(A) FROM T",
            "SELECT SUM(A) FROM T WHERE A BETWEEN 1 AND 50",
            "SELECT AVG(A) FROM T",
            "SELECT AVG(A) FROM T WHERE A BETWEEN 10 AND 90",
        ],
    )
    def test_no_rows_long_copy(self, sql):
        rows = 400_000
        column = np.random.default_rng(3).integers(1, 101, rows)
        flat = FlatDataset({"A": column}, np.array([0, rows // 2, rows]))
        query = parse_query(sql)
        tracemalloc.start()
        try:
            answer = evaluate_exact(query, flat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        mask = query.predicate.mask({"A": column})
        selected = column[mask]
        expected = selected.sum() if query.agg is AggregateOp.SUM else (
            selected.mean()
        )
        assert answer == float(expected)
        assert peak < rows * 8 // 2


class TestSelectivity:
    def test_value(self):
        assert measured_selectivity(
            query(AggregateOp.COUNT, 1, 2), DATABASES
        ) == pytest.approx(0.4)

    def test_full_range(self):
        assert measured_selectivity(
            query(AggregateOp.COUNT, 1, 5), DATABASES
        ) == 1.0

    def test_empty_network_raises(self):
        with pytest.raises(QueryError):
            measured_selectivity(query(AggregateOp.COUNT, 1, 5), [])


class TestRankOfValue:
    def test_rank_counts_strictly_below(self):
        assert rank_of_value(3, DATABASES, "A") == 2
        assert rank_of_value(1, DATABASES, "A") == 0
        assert rank_of_value(100, DATABASES, "A") == 5

    def test_true_median_has_central_rank(self, small_dataset):
        q = AggregationQuery(agg=AggregateOp.MEDIAN, column="A")
        median = evaluate_exact(q, small_dataset.databases)
        rank = rank_of_value(median, small_dataset.databases, "A")
        n = small_dataset.num_tuples
        # Values are heavily tied integers; rank of the median value
        # is below N/2 but within one value-frequency of it.
        assert rank <= n / 2
