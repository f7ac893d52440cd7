"""Tests for artifact persistence (repro.io)."""

import hashlib
import pathlib

import numpy as np
import pytest

from repro.core.two_phase import TwoPhaseEngine
from repro.data.flat import DatabaseTable, FlatDataset
from repro.data.generator import (
    DatasetConfig,
    GeneratedDataset,
    generate_dataset,
)
from repro.errors import ConfigurationError, TopologyError
from repro.io import load_dataset, load_topology, save_dataset, save_topology
from repro.network.simulator import NetworkSimulator
from repro.query.exact import evaluate_exact, evaluate_exact_groups
from repro.query.parser import parse_query


class TestTopologyRoundTrip:
    def test_round_trip(self, tmp_path, small_topology):
        path = tmp_path / "topology.npz"
        save_topology(small_topology, path)
        loaded = load_topology(path)
        assert loaded.num_peers == small_topology.num_peers
        assert sorted(loaded.edges()) == sorted(small_topology.edges())

    def test_degrees_preserved(self, tmp_path, small_topology):
        path = tmp_path / "topology.npz"
        save_topology(small_topology, path)
        loaded = load_topology(path)
        np.testing.assert_array_equal(
            loaded.degrees, small_topology.degrees
        )

    def test_csr_identical(self, tmp_path, small_topology):
        """Edge order survives, so every walk over the loaded graph
        takes the same steps."""
        path = tmp_path / "topology.npz"
        save_topology(small_topology, path)
        loaded = load_topology(path)
        np.testing.assert_array_equal(
            loaded.edge_array, small_topology.edge_array
        )
        np.testing.assert_array_equal(loaded.indptr, small_topology.indptr)
        np.testing.assert_array_equal(loaded.indices, small_topology.indices)

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1), (2, 2)], "self-loop edge (2, 2) not allowed"),
            ([(0, 1), (1, 4)], "edge (1, 4) out of range for 4 peers"),
            ([(0, 1), (2, 3), (1, 0)], "duplicate edge (1, 0)"),
        ],
    )
    def test_file_is_not_trusted(self, tmp_path, edges, message):
        path = tmp_path / "edited.npz"
        np.savez(
            path,
            schema=np.int64(1),
            num_peers=np.int64(4),
            edges=np.array(edges, dtype=np.int64),
        )
        with pytest.raises(TopologyError) as raised:
            load_topology(path)
        assert str(raised.value) == message

    def test_wrong_artifact_rejected(self, tmp_path, small_topology):
        path = tmp_path / "not_a_topology.npz"
        np.savez(path, whatever=np.arange(3))
        with pytest.raises(ConfigurationError):
            load_topology(path)

    def test_dataset_artifact_rejected_as_topology(
        self, tmp_path, small_topology
    ):
        dataset = generate_dataset(
            small_topology, DatasetConfig(num_tuples=100), seed=1
        )
        path = tmp_path / "dataset.npz"
        save_dataset(dataset, path)
        with pytest.raises(ConfigurationError):
            load_topology(path)


class TestDatasetRoundTrip:
    def test_round_trip_single_column(self, tmp_path, small_topology):
        dataset = generate_dataset(
            small_topology,
            DatasetConfig(num_tuples=5_000, cluster_level=0.3),
            seed=2,
        )
        path = tmp_path / "dataset.npz"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        # Global arrays are rebuilt in peer-id order: same multiset.
        np.testing.assert_array_equal(
            np.sort(loaded.values), np.sort(dataset.values)
        )
        assert loaded.config == dataset.config
        assert len(loaded.databases) == len(dataset.databases)
        for original, restored in zip(dataset.databases, loaded.databases):
            np.testing.assert_array_equal(
                original.column("A"), restored.column("A")
            )
            assert restored.block_size == original.block_size

    def test_round_trip_with_group_column(self, tmp_path, small_topology):
        dataset = generate_dataset(
            small_topology,
            DatasetConfig(
                num_tuples=3_000, group_column="G", num_groups=5
            ),
            seed=3,
        )
        path = tmp_path / "grouped.npz"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        np.testing.assert_array_equal(
            np.sort(loaded.group_values), np.sort(dataset.group_values)
        )
        assert sorted(loaded.databases[0].column_names) == ["A", "G"]
        # Rows stay joined: (A, G) pairs are the same multiset.
        original_pairs = sorted(
            zip(dataset.values.tolist(), dataset.group_values.tolist())
        )
        loaded_pairs = sorted(
            zip(loaded.values.tolist(), loaded.group_values.tolist())
        )
        assert original_pairs == loaded_pairs

    def test_ground_truth_identical(self, tmp_path, small_topology):
        dataset = generate_dataset(
            small_topology, DatasetConfig(num_tuples=5_000), seed=4
        )
        path = tmp_path / "dataset.npz"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        query = parse_query(
            "SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30"
        )
        assert evaluate_exact(query, loaded.databases) == evaluate_exact(
            query, dataset.databases
        )

    def test_usable_in_simulator(self, tmp_path, small_topology):
        dataset = generate_dataset(
            small_topology, DatasetConfig(num_tuples=5_000), seed=5
        )
        path = tmp_path / "dataset.npz"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        network = NetworkSimulator(
            small_topology, loaded.databases, seed=5
        )
        engine = TwoPhaseEngine(network, seed=5)
        query = parse_query(
            "SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30"
        )
        result = engine.execute(query, delta_req=0.2, sink=0)
        assert result.estimate > 0

    def test_topology_artifact_rejected_as_dataset(
        self, tmp_path, small_topology
    ):
        path = tmp_path / "topology.npz"
        save_topology(small_topology, path)
        with pytest.raises(ConfigurationError):
            load_dataset(path)

    @pytest.mark.parametrize("group_column", [None, "G"])
    def test_store_round_trips(self, tmp_path, small_topology, group_column):
        """What is written is the store and what is read is a store:
        equal columns, offsets and block size, no per-peer copies."""
        dataset = generate_dataset(
            small_topology,
            DatasetConfig(
                num_tuples=3_000, group_column=group_column, block_size=9
            ),
            seed=6,
        )
        path = tmp_path / "dataset.npz"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert type(loaded.databases) is DatabaseTable
        assert loaded.databases.block_size == 9
        store, original = loaded.databases.store, dataset.databases.store
        assert store.column_names == original.column_names
        np.testing.assert_array_equal(store.offsets, original.offsets)
        for name in original.column_names:
            np.testing.assert_array_equal(
                store.column(name), original.column(name)
            )
        assert FlatDataset.from_databases(loaded.databases) is store
        assert np.shares_memory(
            loaded.databases[7].column("A"), store.column("A")
        )
        assert loaded.values is store.column("A")

    def test_hand_built_databases_are_saved_too(
        self, tmp_path, small_topology
    ):
        """A dataset assembled from loose databases is concatenated
        once on the way out, and comes back store-backed."""
        dataset = generate_dataset(
            small_topology, DatasetConfig(num_tuples=700), seed=8
        )
        loose = GeneratedDataset(
            config=dataset.config,
            values=dataset.values,
            databases=list(dataset.databases),
        )
        path = tmp_path / "loose.npz"
        save_dataset(loose, path)
        store = load_dataset(path).databases.store
        np.testing.assert_array_equal(
            store.column("A"), dataset.databases.store.column("A")
        )
        np.testing.assert_array_equal(
            store.offsets, dataset.databases.store.offsets
        )

    def test_corrupt_columns_rejected(self, tmp_path, small_topology):
        dataset = generate_dataset(
            small_topology, DatasetConfig(num_tuples=400), seed=6
        )
        path = tmp_path / "dataset.npz"
        save_dataset(dataset, path)
        with np.load(path) as archive:
            arrays = dict(archive)
        arrays["column_A"] = arrays["column_A"][:-1]
        np.savez(path, **arrays)
        with pytest.raises(ConfigurationError, match="399 rows"):
            load_dataset(path)


def _stored_as_int64(dataset):
    """``dataset`` with every column stored as ``int64`` — what
    :func:`save_dataset` wrote before columns took their domain's
    width."""
    store = dataset.databases.store
    wide = FlatDataset(
        {name: data.astype(np.int64) for name, data in store.scan().items()},
        store.offsets,
    )
    return GeneratedDataset(
        config=dataset.config,
        values=dataset.values.astype(np.int64),
        databases=DatabaseTable(wide, block_size=dataset.config.block_size),
        group_values=dataset.group_values.astype(np.int64),
    )


class TestColumnWidth:
    """A saved column keeps its domain's width, so the file shrinks;
    an archive of ``int64`` columns still loads, at ``int64``, and
    answers the same.  The schema did not change."""

    QUERIES = [
        "SELECT COUNT(A) FROM T WHERE A BETWEEN 3 AND 40",
        "SELECT SUM(A) FROM T WHERE A BETWEEN 3 AND 40",
        "SELECT AVG(A) FROM T",
        "SELECT MEDIAN(A) FROM T WHERE A > 7",
        "SELECT QUANTILE(A, 0.3) FROM T",
    ]

    def _saved(self, tmp_path, small_topology):
        dataset = generate_dataset(
            small_topology,
            DatasetConfig(num_tuples=40_000, group_column="G", num_groups=5),
            seed=8,
        )
        narrow, wide = tmp_path / "narrow.npz", tmp_path / "wide.npz"
        save_dataset(dataset, narrow)
        save_dataset(_stored_as_int64(dataset), wide)
        return narrow, wide

    def test_the_width_survives_and_the_file_shrinks(
        self, tmp_path, small_topology
    ):
        narrow, wide = self._saved(tmp_path, small_topology)
        loaded = load_dataset(narrow)
        store = loaded.databases.store
        assert store.column("A").dtype == np.int8
        assert store.column("G").dtype == np.int8
        assert loaded.values.dtype == loaded.group_values.dtype == np.int8
        assert narrow.stat().st_size < wide.stat().st_size
        with np.load(narrow) as archive:
            assert int(archive["schema"]) == 2

    def test_an_int64_archive_answers_the_same(
        self, tmp_path, small_topology
    ):
        narrow, wide = (load_dataset(path) for path in self._saved(
            tmp_path, small_topology
        ))
        assert wide.databases.store.column("A").dtype == np.int64
        for sql in self.QUERIES:
            query = parse_query(sql)
            assert evaluate_exact(query, wide.databases.store) == (
                evaluate_exact(query, narrow.databases.store)
            )
        grouped = parse_query("SELECT SUM(A) FROM T GROUP BY G")
        assert evaluate_exact_groups(grouped, wide.databases.store) == (
            evaluate_exact_groups(grouped, narrow.databases.store)
        )


class TestParentCommitArtifacts:
    """Files written by commit e39f21b — the last one that cut a
    dataset into per-peer copies to save it — load unchanged."""

    FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "io"

    def test_dataset(self):
        loaded = load_dataset(self.FIXTURES / "dataset_e39f21b.npz")
        assert loaded.config == DatasetConfig(
            num_tuples=600, group_column="G", num_groups=4, block_size=7
        )
        assert len(loaded.databases) == 40
        assert [db.num_tuples for db in loaded.databases] == [15] * 40
        sha = hashlib.sha256()
        for database in loaded.databases:
            assert database.block_size == 7
            sha.update(database.column("A").astype(np.int64).tobytes())
            sha.update(database.column("G").astype(np.int64).tobytes())
        # Recorded from the generating process's own per-peer copies.
        assert sha.hexdigest() == (
            "6ece21f959ffc9cdcea474ed06fad832"
            "fe833bf9b2f555b32b90aed47c0c9623"
        )

    def test_topology(self):
        from repro.network.generators import power_law_topology

        loaded = load_topology(self.FIXTURES / "topology_e39f21b.npz")
        expected = power_law_topology(40, 120, seed=11)
        np.testing.assert_array_equal(loaded.edge_array, expected.edge_array)
        np.testing.assert_array_equal(loaded.indices, expected.indices)
