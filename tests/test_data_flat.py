"""FlatDataset snapshot-immutability regression tests.

The flat view is shared by reference with every engine (and, in the
planned sharded backend, across forked workers), so the columns it
hands out must be read-only.  These tests pin the RL008 fix: before
``FlatDataset.__init__`` froze its column views, ``column()`` returned
a writable alias into the shared snapshot and every assertion here
failed.
"""

import pickle

import numpy as np
import pytest

from repro.data.flat import DatabaseTable, FlatDataset
from repro.data.localdb import LocalDatabase
from repro.errors import ConfigurationError


def _dataset():
    values = np.arange(6, dtype=np.float64)
    return values, FlatDataset(
        {"v": values}, np.array([0, 3, 6], dtype=np.int64)
    )


def test_column_is_read_only():
    _, dataset = _dataset()
    column = dataset.column("v")
    assert column.flags.writeable is False
    with pytest.raises(ValueError):
        column[0] = 99.0


def test_scan_views_are_read_only():
    _, dataset = _dataset()
    for column in dataset.scan().values():
        assert column.flags.writeable is False


def test_offsets_and_counts_stay_frozen():
    _, dataset = _dataset()
    assert dataset.offsets.flags.writeable is False
    assert dataset.peer_tuple_counts.flags.writeable is False


def test_freezing_does_not_touch_the_callers_array():
    values, dataset = _dataset()
    # the dataset freezes *views*; the caller's own array is untouched
    assert values.flags.writeable is True
    values[0] = 42.0
    assert dataset.column("v")[0] == pytest.approx(42.0)


def test_from_databases_columns_are_read_only():
    databases = [
        LocalDatabase({"v": np.arange(4, dtype=np.float64)}),
        LocalDatabase({"v": np.arange(4, 9, dtype=np.float64)}),
    ]
    dataset = FlatDataset.from_databases(databases)
    assert dataset.column("v").flags.writeable is False


def test_gather_returns_fresh_writable_copies():
    values, dataset = _dataset()
    gathered = dataset.gather(np.array([0, 2], dtype=np.int64))
    # fancy indexing copies: the result is writable and detached
    gathered["v"][0] = -1.0
    assert values[0] == pytest.approx(0.0)
    assert dataset.column("v")[0] == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# from_databases is one pass over the column stores; this is the
# obvious per-peer build it replaced, kept here as the reference.
# ---------------------------------------------------------------------------


def _reference_from_databases(databases):
    names = databases[0].column_names
    offsets = [0]
    for index, database in enumerate(databases):
        if set(database.column_names) != set(names):
            raise ConfigurationError(
                f"database {index} has columns "
                f"{database.column_names}, expected {names}"
            )
        offsets.append(offsets[-1] + database.num_tuples)
    columns = {
        name: np.concatenate([database.column(name) for database in databases])
        for name in names
    }
    return columns, np.asarray(offsets, dtype=np.int64)


def _ragged_databases(seed, num_peers=40):
    """Two columns, inserted in a different order per peer; ragged
    sizes with zero-row peers among them."""
    rng = np.random.default_rng(seed)
    databases = []
    for peer in range(num_peers):
        size = int(rng.integers(0, 9)) * int(rng.random() < 0.7)
        columns = {
            "A": rng.integers(0, 100, size),
            "B": rng.random(size),
        }
        if peer % 2:
            columns = dict(reversed(columns.items()))
        databases.append(LocalDatabase(columns))
    return databases


@pytest.mark.parametrize("seed", range(5))
def test_from_databases_equals_the_per_peer_reference(seed):
    databases = _ragged_databases(seed)
    assert any(len(database) == 0 for database in databases)
    dataset = FlatDataset.from_databases(databases)
    columns, offsets = _reference_from_databases(databases)
    assert dataset.column_names == list(columns) == ["A", "B"]
    assert np.array_equal(dataset.offsets, offsets)
    assert dataset.num_tuples == sum(map(len, databases))
    for name, expected in columns.items():
        merged = dataset.column(name)
        assert merged.dtype == expected.dtype
        assert np.array_equal(merged, expected)
    for peer, database in enumerate(databases):
        rows = dataset.peer_slice(peer)
        assert np.array_equal(dataset.column("B")[rows], database.column("B"))


def test_from_databases_of_one_database_copies():
    values = np.arange(3)
    dataset = FlatDataset.from_databases([LocalDatabase({"v": values})])
    values[0] = 9  # the flat view is a snapshot, not an alias
    assert dataset.column("v").tolist() == [0, 1, 2]


@pytest.mark.parametrize(
    "odd", [{"A": np.arange(2)}, {"A": np.arange(2), "C": np.arange(2)}]
)
def test_from_databases_mismatch_keeps_its_error(odd):
    databases = _ragged_databases(0, num_peers=4)
    databases[2] = LocalDatabase(odd)
    with pytest.raises(ConfigurationError) as reference:
        _reference_from_databases(databases)
    with pytest.raises(ConfigurationError) as raised:
        FlatDataset.from_databases(databases)
    assert str(raised.value) == str(reference.value)
    assert "database 2 has columns" in str(raised.value)


def test_from_databases_needs_a_database():
    with pytest.raises(ConfigurationError, match="at least one"):
        FlatDataset.from_databases([])


def test_store_is_a_read_only_mapping_of_the_columns():
    database = LocalDatabase({"v": np.arange(3)})
    assert list(database.store) == ["v"]
    with pytest.raises(TypeError):
        database.store["w"] = np.arange(3)


# ---------------------------------------------------------------------------
# DatabaseTable: a dataset's databases are slices of one store
# ---------------------------------------------------------------------------


def _table(block_size=4):
    store = FlatDataset(
        {"A": np.arange(10), "B": np.arange(10) * 0.5},
        np.array([0, 3, 3, 7, 10]),
    )
    return store, DatabaseTable(store, block_size=block_size)


def test_table_item_is_a_real_database_over_its_slice():
    store, table = _table()
    assert len(table) == 4
    database = table[2]
    assert type(database) is LocalDatabase
    assert database.column_names == ["A", "B"]
    assert database.block_size == 4 and database.num_blocks == 1
    assert database.column("A").tolist() == [3, 4, 5, 6]
    assert database.column("B").tolist() == [1.5, 2.0, 2.5, 3.0]
    assert table[1].num_tuples == 0
    assert np.shares_memory(database.column("A"), store.column("A"))


def test_table_reads_are_equal_not_identical():
    _, table = _table()
    first, second = table[0], table[0]
    assert first is not second
    assert first.scan().keys() == second.scan().keys()
    assert np.array_equal(first.column("A"), second.column("A"))


def test_table_is_a_sequence():
    _, table = _table()
    sizes = [3, 0, 4, 3]
    assert [len(database) for database in table] == sizes
    assert len(table[-1]) == 3 and table[-4].column("A").tolist() == [0, 1, 2]
    middle = table[1:3]
    assert type(middle) is tuple
    assert [len(database) for database in middle] == [0, 4]
    assert [len(database) for database in table[::-2]] == [3, 0]
    assert [len(database) for database in reversed(table)] == sizes[::-1]
    for index in (4, -5):
        with pytest.raises(IndexError):
            table[index]
    with pytest.raises(TypeError):
        table["A"]


def test_table_is_read_only():
    store, table = _table()
    with pytest.raises(TypeError):
        table[0] = LocalDatabase({"A": np.arange(3), "B": np.zeros(3)})
    for handed_out in (
        table[0].store["A"],
        table[0].column("A"),
        table[0].scan()["A"],
        table[:1][0].column("A"),
    ):
        with pytest.raises(ValueError):
            handed_out[0] = 99
    assert store.column("A")[0] == 0


def test_table_validates_block_size():
    store, _ = _table()
    with pytest.raises(ConfigurationError, match="block_size"):
        DatabaseTable(store, block_size=0)


def test_from_databases_of_a_table_is_its_store():
    store, table = _table()
    assert FlatDataset.from_databases(table) is store
    # Any other sequence of the same databases is concatenated.
    copied = FlatDataset.from_databases(list(table))
    assert copied is not store
    assert not np.shares_memory(copied.column("A"), store.column("A"))
    assert np.array_equal(copied.column("A"), store.column("A"))
    assert np.array_equal(copied.offsets, store.offsets)


def test_table_pickles_as_one_store():
    store, table = _table(block_size=3)
    restored = pickle.loads(pickle.dumps((table, store)))
    assert restored[0].store is restored[1]
    assert restored[0].block_size == 3
    assert restored[0][2].column("A").tolist() == [3, 4, 5, 6]
