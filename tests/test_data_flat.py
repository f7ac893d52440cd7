"""FlatDataset snapshot-immutability regression tests.

The flat view is shared by reference with every engine (and, in the
planned sharded backend, across forked workers), so the columns it
hands out must be read-only.  These tests pin the RL008 fix: before
``FlatDataset.__init__`` froze its column views, ``column()`` returned
a writable alias into the shared snapshot and every assertion here
failed.
"""

import numpy as np
import pytest

from repro.data.flat import FlatDataset
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
