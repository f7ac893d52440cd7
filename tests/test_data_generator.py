"""Unit tests for repro.data.generator."""

import hashlib
import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro._util import ensure_rng
from repro.data.flat import DatabaseTable, FlatDataset
from repro.data.generator import (
    DatasetConfig,
    arrange_cluster_level,
    arrangement_permutation,
    generate_dataset,
)
from repro.data.placement import PlacementConfig, peer_slices
from repro.data.zipf import ZipfDistribution
from repro.errors import ConfigurationError
from repro.query.exact import evaluate_exact
from repro.query.parser import parse_query

BENCH = Path(__file__).resolve().parent.parent / "bench"


class TestDatasetConfig:
    def test_defaults(self):
        config = DatasetConfig()
        assert config.num_values == 100
        assert config.column == "A"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DatasetConfig(cluster_level=1.5)
        with pytest.raises(ConfigurationError):
            DatasetConfig(skew=-1)
        with pytest.raises(ConfigurationError):
            DatasetConfig(num_tuples=-5)
        with pytest.raises(ConfigurationError):
            DatasetConfig(block_size=0)

    def test_distribution_property(self):
        config = DatasetConfig(num_values=50, skew=1.0)
        dist = config.distribution
        assert dist.num_values == 50
        assert dist.skew == 1.0


class TestArrangeClusterLevel:
    def test_zero_is_sorted(self, rng):
        values = rng.integers(1, 100, size=1000)
        arranged = arrange_cluster_level(values, 0.0, rng)
        assert np.all(np.diff(arranged) >= 0)

    def test_one_is_permutation(self, rng):
        values = np.arange(1000)
        arranged = arrange_cluster_level(values.copy(), 1.0, rng)
        assert not np.all(np.diff(arranged) >= 0)
        np.testing.assert_array_equal(np.sort(arranged), values)

    def test_intermediate_preserves_multiset(self, rng):
        values = rng.integers(1, 100, size=1000)
        arranged = arrange_cluster_level(values, 0.5, rng)
        np.testing.assert_array_equal(
            np.sort(arranged), np.sort(values)
        )

    def test_sortedness_decreases_with_cluster_level(self, rng):
        """Higher CL = fewer positions in sorted order."""
        values = np.random.default_rng(1).integers(1, 100, size=5000)

        def sortedness(arr):
            return float(np.mean(np.diff(arr) >= 0))

        scores = []
        for cluster_level in (0.0, 0.3, 0.7, 1.0):
            local_rng = np.random.default_rng(2)
            scores.append(
                sortedness(
                    arrange_cluster_level(values, cluster_level, local_rng)
                )
            )
        assert scores[0] >= scores[1] >= scores[2] >= scores[3]

    def test_tiny_arrays(self, rng):
        np.testing.assert_array_equal(
            arrange_cluster_level(np.array([5]), 0.5, rng), [5]
        )
        assert arrange_cluster_level(np.array([]), 0.5, rng).size == 0

    def test_invalid_level(self, rng):
        with pytest.raises(ConfigurationError):
            arrange_cluster_level(np.arange(5), 2.0, rng)

    @pytest.mark.parametrize("cluster_level", [0.0, 0.004, 0.3, 0.6, 1.0])
    @pytest.mark.parametrize("kind", ["ints", "floats", "zeros"])
    def test_value_space_equals_the_permutation(self, cluster_level, kind):
        """Sorting the values and shuffling them is gathering them by
        the shuffled stable permutation: same draws, same bytes (signed
        zeros and NaNs included), and the input is left alone."""
        source = np.random.default_rng(8)
        values = {
            "ints": source.integers(1, 30, 1001),
            "floats": source.random(1001),
            "zeros": np.array([0.0, -0.0, np.nan, 1.0, -0.0, 0.0] * 50),
        }[kind]
        before = values.copy()
        by_index = values[
            arrangement_permutation(
                values, cluster_level, np.random.default_rng(4)
            )
        ]
        rng = np.random.default_rng(4)
        arranged = arrange_cluster_level(values, cluster_level, rng)
        assert arranged.tobytes() == by_index.tobytes()
        assert values.tobytes() == before.tobytes()
        reference = np.random.default_rng(4)
        arrangement_permutation(values, cluster_level, reference)
        assert rng.random() == reference.random()


class TestGenerateDataset:
    def test_counts(self, small_topology):
        dataset = generate_dataset(
            small_topology, DatasetConfig(num_tuples=5000), seed=1
        )
        assert dataset.num_tuples == 5000
        assert len(dataset.databases) == small_topology.num_peers
        assert sum(db.num_tuples for db in dataset.databases) == 5000

    def test_values_in_domain(self, small_topology):
        dataset = generate_dataset(
            small_topology,
            DatasetConfig(num_tuples=5000, num_values=100),
            seed=1,
        )
        assert dataset.values.min() >= 1
        assert dataset.values.max() <= 100

    def test_column_name_respected(self, small_topology):
        dataset = generate_dataset(
            small_topology,
            DatasetConfig(num_tuples=100, column="price"),
            seed=1,
        )
        assert dataset.databases[0].column_names == ["price"]
        assert dataset.column == "price"

    def test_deterministic(self, small_topology):
        a = generate_dataset(
            small_topology, DatasetConfig(num_tuples=1000), seed=9
        )
        b = generate_dataset(
            small_topology, DatasetConfig(num_tuples=1000), seed=9
        )
        np.testing.assert_array_equal(a.values, b.values)

    def test_total_sum_matches_global_array(self, small_dataset):
        per_peer = sum(
            db.column("A").sum() for db in small_dataset.databases
        )
        assert small_dataset.total_sum() == pytest.approx(float(per_peer))

    def test_tuples_at(self, small_dataset):
        assert small_dataset.tuples_at(0) == (
            small_dataset.databases[0].num_tuples
        )

    def test_clustered_data_concentrates_values_per_peer(self, small_topology):
        """At CL=0 each peer holds a narrow value range; at CL=1 a wide
        one.  Mean per-peer value std must be much smaller at CL=0."""
        def mean_std(cluster_level):
            dataset = generate_dataset(
                small_topology,
                DatasetConfig(
                    num_tuples=20_000, cluster_level=cluster_level
                ),
                seed=3,
            )
            stds = [
                float(np.std(db.column("A")))
                for db in dataset.databases
                if db.num_tuples > 1
            ]
            return float(np.mean(stds))

        assert mean_std(0.0) < 0.3 * mean_std(1.0)

    def test_custom_placement(self, small_topology):
        dataset = generate_dataset(
            small_topology,
            DatasetConfig(num_tuples=1000),
            placement=PlacementConfig(order="random"),
            seed=1,
        )
        assert dataset.num_tuples == 1000

    def test_block_size_propagates(self, small_topology):
        dataset = generate_dataset(
            small_topology,
            DatasetConfig(num_tuples=1000, block_size=7),
            seed=1,
        )
        assert dataset.databases[0].block_size == 7


# ---------------------------------------------------------------------------
# The store holds exactly the rows the per-peer copies held
# ---------------------------------------------------------------------------


def _reference_partitions(topology, config, placement, seed):
    """``generate_dataset`` as it was when a dataset was a list of
    per-peer copies: the same draws in the same order, then one
    ``arranged[start:stop].copy()`` per peer and column."""
    rng = ensure_rng(seed)
    raw = config.distribution.sample(config.num_tuples, seed=rng)
    permutation = arrangement_permutation(raw, config.cluster_level, rng)
    arranged = {config.column: raw[permutation]}
    if config.group_column is not None:
        groups = ZipfDistribution(
            num_values=config.num_groups, skew=config.group_skew
        ).sample(config.num_tuples, seed=rng)
        arranged[config.group_column] = groups[permutation]
    slices = peer_slices(
        config.num_tuples, topology, config=placement, seed=rng
    )
    partitions = [
        {name: data[start:stop].copy() for name, data in arranged.items()}
        for start, stop in slices
    ]
    return arranged, partitions


def _dataset_digest(dataset, names):
    """Every array hashed by value, as ``int64``, so a digest recorded
    when columns were stored as ``int64`` still holds at any width;
    ``TestMemoryFloor`` pins the width itself."""
    sha = hashlib.sha256()
    for database in dataset.databases:
        for name in names:
            sha.update(database.column(name).astype(np.int64).tobytes())
        sha.update(np.int64(database.num_tuples).tobytes())
    sha.update(dataset.values.astype(np.int64).tobytes())
    if dataset.group_values is not None:
        sha.update(dataset.group_values.astype(np.int64).tobytes())
    return sha.hexdigest()


def _bench_fixture(kind, monkeypatch):
    """``bench/workloads.py``'s fixture ``kind`` and the dataset it was
    cut from (``bench/`` is not a package here, so it is loaded by
    path)."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py"
    )
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # dataclasses
    spec.loader.exec_module(bench)
    built = []

    def keep(*args, **kwargs):
        built.append(generate_dataset(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(bench, "generate_dataset", keep)
    fixture = bench.build_fixture(kind)
    (dataset,) = built
    assert fixture.databases is dataset.databases
    return bench, fixture, dataset


class TestMemoryFloor:
    def test_generate_dataset_peaks_at_what_it_keeps(self, small_topology):
        """A single-column build returns two ``N``-row arrays at the
        domain's width, 1 byte a row (placement order and the
        peer-ordered store).  It sorts and shuffles the values in place
        and cuts the store in blocks, so at ``CL = 0.25`` the largest
        term is ``rng.choice``'s own ``N``-row ``int64`` permutation,
        with the 0.25 x N chosen positions beside it: 1 + 8 + 2 = 11
        bytes a row measured, bounded at 12 (one byte a row of margin).
        With ``int64`` rows it was 18.6 bytes a row."""
        rows = 400_000
        config = DatasetConfig(num_tuples=rows, cluster_level=0.25)
        tracemalloc.start()
        try:
            dataset = generate_dataset(small_topology, config, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dataset.num_tuples == rows
        assert peak <= 12 * rows

    @pytest.mark.parametrize("kind", ["2k", "22k"])
    def test_bench_fixtures_store_a_byte_a_row(self, kind, monkeypatch):
        """The 100-value column is ``int8`` wherever a fixture keeps
        it: the global array, the store and every database slice."""
        _, fixture, dataset = _bench_fixture(kind, monkeypatch)
        store = fixture.databases.store
        assert store.column("A").dtype == np.int8
        assert store.column("A").nbytes == store.num_tuples
        assert dataset.values.dtype == np.int8
        assert fixture.databases[0].column("A").dtype == np.int8

    def test_the_2k_snapshot_segment(self, monkeypatch):
        """The forked tier's shared-memory segment for the 2k fixture:
        200,000 one-byte rows and the offsets, under 400,000 bytes
        (216,008 since the CSR left the segment; 392,128 with it, and
        1,792,128 with ``int64`` rows)."""
        from repro.network.simulator import NetworkSimulator
        from repro.service.shm import export_snapshot

        _, fixture, _ = _bench_fixture("2k", monkeypatch)
        simulator = NetworkSimulator(
            fixture.topology, fixture.databases, seed=1
        )
        with export_snapshot(simulator) as pack:
            assert pack.manifest.nbytes < 400_000


class TestStoreEqualsPerPeerCopies:
    @pytest.mark.parametrize("group_column", [None, "G"])
    @pytest.mark.parametrize(
        "placement",
        [
            PlacementConfig(),
            PlacementConfig(order="random", size_distribution="lognormal"),
            PlacementConfig(order="id"),
            PlacementConfig(bfs_seed_peer=17, size_distribution="lognormal"),
        ],
        ids=["bfs", "random-lognormal", "id", "bfs17-lognormal"],
    )
    def test_peer_by_peer(self, small_topology, placement, group_column):
        config = DatasetConfig(
            num_tuples=4_321, cluster_level=0.3, group_column=group_column
        )
        dataset = generate_dataset(
            small_topology, config, placement=placement, seed=21
        )
        arranged, partitions = _reference_partitions(
            small_topology, config, placement, 21
        )
        assert len(dataset.databases) == len(partitions)
        for database, expected in zip(dataset.databases, partitions):
            assert database.column_names == list(expected)
            assert database.block_size == config.block_size
            for name, rows in expected.items():
                column = database.column(name)
                assert column.dtype == rows.dtype
                np.testing.assert_array_equal(column, rows)
        # The global arrays keep their contract: placement order.
        np.testing.assert_array_equal(dataset.values, arranged["A"])
        if group_column is None:
            assert dataset.group_values is None
        else:
            np.testing.assert_array_equal(
                dataset.group_values, arranged[group_column]
            )

    def test_fewer_tuples_than_peers(self, small_topology):
        config = DatasetConfig(num_tuples=37)
        dataset = generate_dataset(small_topology, config, seed=2)
        _, partitions = _reference_partitions(
            small_topology, config, PlacementConfig(), 2
        )
        assert [db.num_tuples for db in dataset.databases] == [
            len(partition["A"]) for partition in partitions
        ]
        assert sum(db.num_tuples == 0 for db in dataset.databases) > 0

    def test_pinned_at_the_parent_commit(self, small_topology):
        """Digests of every per-peer column (and the global arrays)
        recorded at e39f21b, where they were per-peer copies."""
        plain = generate_dataset(
            small_topology,
            DatasetConfig(num_tuples=5000, cluster_level=0.3),
            seed=2,
        )
        assert _dataset_digest(plain, ["A"]) == (
            "ac22fa888cdb6e60bd3ce74b28631632"
            "89cd26c2d3c7c98c135869ba93cbdb69"
        )
        grouped = generate_dataset(
            small_topology,
            DatasetConfig(num_tuples=3000, group_column="G", num_groups=5),
            placement=PlacementConfig(
                size_distribution="lognormal", order="random"
            ),
            seed=3,
        )
        assert _dataset_digest(grouped, ["A", "G"]) == (
            "3068d14f8de67053f63ce8fdd41fc453"
            "729b27c7b5b5f3cd5ce9bf1fa55d64aa"
        )

    def test_the_dataset_is_one_store(self, small_topology):
        dataset = generate_dataset(
            small_topology, DatasetConfig(num_tuples=2_000), seed=4
        )
        assert type(dataset.databases) is DatabaseTable
        store = dataset.databases.store
        assert FlatDataset.from_databases(dataset.databases) is store
        assert store.num_tuples == dataset.num_tuples == 2_000
        for peer in (0, 57, len(dataset.databases) - 1):
            assert np.shares_memory(
                dataset.databases[peer].column("A"), store.column("A")
            )


class TestBenchFixturesPinned:
    """The serving benchmark's fixtures and their exact answers, pinned
    by value (recorded before the generator and the exact evaluator
    stopped building rows-long temporaries).  A changed Zipf stream,
    arrangement, placement or store layout moves a digest; a changed
    summation order moves an answer.  ``bench/workloads.py`` is loaded
    by path (``bench/`` is not a package here)."""

    DIGESTS = {
        "2k": "58a3c52ddb450e5cee36bb43a2b66693"
        "62502c976b7bb3c1733eb5b5b99a44c9",
        "22k": "82b34718afae9de262c5633e43d3afb8"
        "da83fa1d856644559e647d16b65448cd",
    }
    #: ``PANEL_SQL``'s exact answers, in its order.
    ANSWERS = {
        "2k": [
            75413.0, 2632430.0, 45.306075, 9061215.0,
            80800.0, 47.278555368364415, 200000.0, 7368142.0,
        ],
        "22k": [
            752111.0, 26266118.0, 45.3289815, 90657963.0,
            805661.0, 47.33634591211103, 2000000.0, 73782283.0,
        ],
    }

    @pytest.mark.parametrize("kind", ["2k", "22k"])
    def test_fixture_and_panel_answers(self, kind, monkeypatch):
        bench, _, dataset = _bench_fixture(kind, monkeypatch)
        assert _dataset_digest(dataset, ["A"]) == self.DIGESTS[kind]
        store = dataset.databases.store
        answers = [
            evaluate_exact(parse_query(sql), store) for sql in bench.PANEL_SQL
        ]
        assert answers == self.ANSWERS[kind]
