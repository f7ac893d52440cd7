"""Unit tests for repro.network.peer."""

import dataclasses
import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.localdb import LocalDatabase
from repro.errors import ConfigurationError
from repro.network.peer import (
    Peer,
    PeerCapabilities,
    PeerTable,
    random_capabilities,
    synthesize_peer,
)
from repro.network.simulator import NetworkSimulator
from repro.network.topology import Topology

COLUMNS = [field.name for field in dataclasses.fields(PeerCapabilities)]


class TestPeerCapabilities:
    def test_defaults_valid(self):
        caps = PeerCapabilities()
        assert caps.cpu_speed == 1.0
        assert caps.max_connections >= 1

    def test_zero_cpu_rejected(self):
        with pytest.raises(ConfigurationError):
            PeerCapabilities(cpu_speed=0)

    def test_negative_disk_rejected(self):
        with pytest.raises(ConfigurationError):
            PeerCapabilities(disk_space=-1)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            PeerCapabilities(network_bandwidth=0)

    def test_zero_connections_rejected(self):
        with pytest.raises(ConfigurationError):
            PeerCapabilities(max_connections=0)

    def test_zero_memory_rejected(self):
        with pytest.raises(ConfigurationError):
            PeerCapabilities(memory_bandwidth=0)

    def test_random_capabilities_valid(self):
        for seed in range(10):
            caps = random_capabilities(seed)
            assert caps.cpu_speed > 0
            assert caps.max_connections >= 8

    def test_random_capabilities_deterministic(self):
        assert random_capabilities(3) == random_capabilities(3)

    def test_random_capabilities_vary(self):
        assert random_capabilities(3) != random_capabilities(4)


class TestPeer:
    def test_address(self):
        peer = Peer(peer_id=7, ip="10.0.0.7", port=6353)
        assert peer.address == ("10.0.0.7", 6353)

    def test_str(self):
        peer = Peer(peer_id=7, ip="10.0.0.7", port=6353)
        assert "peer#7" in str(peer)
        assert "10.0.0.7:6353" in str(peer)

    def test_negative_id_rejected(self):
        with pytest.raises(ConfigurationError):
            Peer(peer_id=-1, ip="10.0.0.1", port=6346)

    def test_port_range(self):
        with pytest.raises(ConfigurationError):
            Peer(peer_id=0, ip="10.0.0.1", port=0)
        with pytest.raises(ConfigurationError):
            Peer(peer_id=0, ip="10.0.0.1", port=70000)

    def test_frozen(self):
        peer = Peer(peer_id=1, ip="10.0.0.1", port=6346)
        with pytest.raises(AttributeError):
            peer.port = 1234


class TestSynthesizePeer:
    def test_stable_address(self):
        a = synthesize_peer(300, seed=1)
        b = synthesize_peer(300, seed=99)
        assert a.ip == b.ip  # address derives from id, not seed
        assert a.port == b.port

    def test_distinct_ids_distinct_ips(self):
        ips = {synthesize_peer(i, seed=1).ip for i in range(200)}
        assert len(ips) == 200

    def test_port_in_gnutella_range(self):
        peer = synthesize_peer(12345, seed=1)
        assert 6346 <= peer.port < 6346 + 1024

    def test_ip_octets_encode_id(self):
        peer = synthesize_peer(0x010203, seed=1)
        assert peer.ip == "10.1.2.3"


def _digests(table):
    """sha256 of each column's bytes (with its dtype) and of the rendered
    ``ip:port`` addresses, one a line."""
    digests = {
        name: (
            str(getattr(table, name).dtype),
            hashlib.sha256(getattr(table, name).tobytes()).hexdigest(),
        )
        for name in COLUMNS
    }
    addresses = "\n".join("%s:%d" % peer.address for peer in table)
    digests["address"] = hashlib.sha256(addresses.encode()).hexdigest()
    return digests


class TestIdentitiesPinnedByValue:
    """The identity seed's tables, recorded before columns were drawn on
    first read and label-free tables shared per topology: the values
    must not move (they reach ``QueryCost.latency_ms`` and the bench's
    result digest)."""

    PINNED = {
        2_000: {
            "cpu_speed": ("float64", "77330a069db381b4938b2f5fc05dfd6a8ced3ab5c8f7302f78588ee1512dd765"),
            "memory_bandwidth": ("float64", "7768f8d69a9305cf5e08a5a2112697a46d65aa8358feee2dbdbaf1724641935d"),
            "disk_space": ("int64", "f7a13ca1f6c44f9ac8ec1619b2f90dea5e962cf40318a539a52724277ae981d7"),
            "network_bandwidth": ("float64", "46e23fddb682b8dd8c33f67552b55fcf7206340684dcc1c65c51e6140fdbdea8"),
            "max_connections": ("int64", "3591bbac6e44e16131bb9d616c31ac1c2d5c95ac8a18461d2d9327f643de2e2a"),
            "address": "7b5995ca303ea1d84dc5edc69a973f95ba6e3d418cb127bd05c53c8efab5a0bc",
        },
        22_556: {
            "cpu_speed": ("float64", "34c49e4e066a6b812092ce4d2670ac1d94da5a4add698b2eb500bc33f719577f"),
            "memory_bandwidth": ("float64", "2306fdcdf61b718dc1f4ca5721e8dd48851b4d2f9a1b53503c21d3f505af1071"),
            "disk_space": ("int64", "81606be6339862ee04ea8501ed0014e00f606856e15a0e034eb32dc6b889d381"),
            "network_bandwidth": ("float64", "0a8f44e8d162487c9cbd90513ca39e03e8e24cf9230bf51e2125227f5459039e"),
            "max_connections": ("int64", "e239cfef469d37aa87050fa807529ddf93033c5adce08e4c60482fe87e16fe60"),
            "address": "819a0f50658c8efb66d8e5ad9e0ebb6affe128b72fec137bbf78fc93e6f72503",
        },
        (5, 0, 17, 3): {
            "cpu_speed": ("float64", "94e13fd6af526f0e3d076bb69a45224c37ded8c221834f1f5f72f73570a5d5a6"),
            "memory_bandwidth": ("float64", "d25371b50352bc9f19c05cb4af325154b672d0a370546431b1dd1c0be8c34b97"),
            "disk_space": ("int64", "110a36a2467927f206062d8dc28161ad180d97db2ee0e432e081f6793d6e271d"),
            "network_bandwidth": ("float64", "f30127a5c0249e18309ade397245c2500e2f80725044fbf7588a117d71a86480"),
            "max_connections": ("int64", "dc4e3046d64e0310d5fbeb27e603d4bd79383723b7a91d00c3e629f0210a7cf7"),
            "address": "a80b4945a3d1f0ba8f9554a18c5ed776c15234e797eafa571c967ab20136487e",
        },
    }

    @pytest.mark.parametrize("rows", list(PINNED), ids=str)
    def test_synthesized_table(self, rows):
        table = PeerTable.synthesize(
            np.arange(rows) if isinstance(rows, int) else rows, 12345
        )
        assert _digests(table) == self.PINNED[rows]

    def test_rows_by_value(self):
        table = PeerTable.synthesize([5, 0, 17, 3], 12345)
        assert table[0] == Peer(
            0, "10.0.0.5", 6351,
            PeerCapabilities(1.1013464370721406, 0.8326601021368614,
                             264289, 181.82923766391846, 33),
        )
        assert table[3] == Peer(
            3, "10.0.0.3", 6349,
            PeerCapabilities(0.8543034259632895, 0.8302748446322438,
                             501219, 83.09124416551641, 13),
        )

    def test_a_simulators_tables(self):
        """What a network over a known topology serves: the shared
        label-free table, and a churn snapshot's rows by label."""
        topology = Topology(2_000, [(i, i + 1) for i in range(1_999)])
        databases = [LocalDatabase({"A": np.arange(2)})] * 2_000
        network = NetworkSimulator(topology, databases)
        assert _digests(network._snapshot.peers) == self.PINNED[2_000]
        small = Topology(4, [(0, 1), (1, 2), (2, 3)])
        labelled = NetworkSimulator(
            small, databases[:4], peer_labels=[5, 0, 17, 3]
        )
        assert _digests(labelled._snapshot.peers) == self.PINNED[(5, 0, 17, 3)]


class TestPeerTable:
    @settings(max_examples=25, deadline=None)
    @given(
        small=st.integers(0, 300),
        extra=st.integers(0, 5_000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_do_not_depend_on_how_many_are_drawn(
        self, small, extra, seed
    ):
        """Prefix stability, the property churn identity stands on."""
        short = PeerTable.synthesize(np.arange(small), seed)
        long = PeerTable.synthesize(np.arange(small + extra), seed)
        assert len(short) == small and len(long) == small + extra
        for name in COLUMNS:
            assert np.array_equal(
                getattr(short, name), getattr(long, name)[:small]
            )
        if small:
            assert short[small - 1] == long[small - 1]

    def test_columns_are_read_only(self):
        table = PeerTable.synthesize(np.arange(10), seed=1)
        for name in COLUMNS:
            column = getattr(table, name)
            assert column.shape == (10,)
            assert column.flags.writeable is False
            with pytest.raises(ValueError):
                column[0] = 1

    def test_a_row_reads_as_a_validated_peer(self):
        table = PeerTable.synthesize(np.arange(400), seed=1)
        peer = table[300]
        assert isinstance(peer, Peer)
        assert peer == table[300] and peer is not table[300]
        assert (peer.peer_id, peer.ip, peer.port) == (300, "10.0.1.44", 6646)
        for name in COLUMNS:
            value = getattr(peer.capabilities, name)
            assert type(value) in (int, float)  # no numpy scalars leak
            assert value == getattr(table, name)[300]
        assert [p.peer_id for p in table] == list(range(400))

    def test_index_outside_the_table(self):
        table = PeerTable.synthesize(np.arange(3), seed=1)
        for index in (-1, 3, 10**9):
            with pytest.raises(IndexError):
                table.__getitem__(index)

    def test_a_bad_row_fails_on_read(self):
        good = PeerTable.synthesize(np.arange(2), seed=1)
        columns = [getattr(good, name).copy() for name in COLUMNS]
        columns[0][1] = 0.0  # cpu_speed
        table = PeerTable(columns, np.arange(2))
        assert table[0] == good[0]
        with pytest.raises(ConfigurationError, match="cpu_speed"):
            table.__getitem__(1)

    def test_ragged_columns_rejected(self):
        good = PeerTable.synthesize(np.arange(3), seed=1)
        columns = [getattr(good, name) for name in COLUMNS]
        for bad_columns, addresses in [
            (columns, np.arange(2)),
            (columns[:4], np.arange(3)),
            (columns + columns[:1], np.arange(3)),
            ([[column] for column in columns], np.arange(3)[None]),
        ]:
            with pytest.raises(ConfigurationError, match="capability columns"):
                PeerTable(bad_columns, addresses)

    def test_ranges_and_moments(self):
        """Coarse, so a transposed parameter fails and noise does not."""
        table = PeerTable.synthesize(np.arange(20_000), seed=5)
        assert table.cpu_speed.min() > 0
        assert table.memory_bandwidth.min() > 0
        assert table.network_bandwidth.min() > 0
        assert 100_000 <= table.disk_space.min()
        assert table.disk_space.max() < 2_000_000
        assert 8 <= table.max_connections.min()
        assert table.max_connections.max() == 63
        for name, log_median, log_sd in [
            ("cpu_speed", 0.0, 0.35),
            ("memory_bandwidth", 0.0, 0.25),
            ("network_bandwidth", 4.8, 0.6),
        ]:
            logs = np.log(getattr(table, name))
            assert np.median(logs) == pytest.approx(log_median, abs=0.02)
            assert logs.std() == pytest.approx(log_sd, rel=0.03)
        assert table.disk_space.mean() == pytest.approx(1_050_000, rel=0.02)
        assert table.max_connections.mean() == pytest.approx(35.5, rel=0.02)

    def test_one_peer_entry_points_are_row_zero(self):
        row_zero = PeerTable.synthesize([0], 3)[0].capabilities
        assert random_capabilities(3) == row_zero
        assert synthesize_peer(9, seed=3).capabilities == random_capabilities(3)

    def test_rows_carry_their_capabilities_and_address(self):
        """Any rows, any order: what churn labels select."""
        table = PeerTable.synthesize(np.arange(10), seed=1)
        some = PeerTable.synthesize([7, 2], seed=1)
        assert len(some) == 2
        for vertex, label in enumerate((7, 2)):
            peer = some[vertex]
            assert peer.peer_id == vertex
            assert peer.capabilities == table[label].capabilities
            assert peer.address == table[label].address
        with pytest.raises(ConfigurationError, match="non-negative"):
            PeerTable.synthesize([3, -1], seed=1)

    @settings(max_examples=25, deadline=None)
    @given(
        order=st.permutations(COLUMNS),
        pickle_first=st.booleans(),
        rows=st.lists(st.integers(0, 3_000), max_size=50),
    )
    def test_columns_are_the_same_however_they_are_read(
        self, order, pickle_first, rows
    ):
        """A column is drawn on its first read: in any order, or all at
        once through a pickle, the arrays are the ones drawn eagerly."""
        eager = PeerTable.synthesize(rows, 9)
        expected = {name: getattr(eager, name).copy() for name in COLUMNS}
        table = PeerTable.synthesize(rows, 9)
        if pickle_first:
            table = pickle.loads(pickle.dumps(table))
        for name in order:
            column = getattr(table, name)
            assert column.tobytes() == expected[name].tobytes()
            assert column.dtype == expected[name].dtype
            assert column.flags.writeable is False
            assert getattr(table, name) is column  # drawn once, kept
        assert len(table) == len(rows)

    def test_a_generator_seed_is_consumed_at_construction(self):
        """The five children are spawned when the table is built, not
        when a column is read: the seed's next child, and the columns,
        do not depend on when they are read."""
        seeds = np.random.default_rng(4), np.random.default_rng(4)
        lazy = PeerTable.synthesize(np.arange(10), seeds[0])
        eager = PeerTable.synthesize(np.arange(10), seeds[1])
        drawn = [getattr(eager, name) for name in COLUMNS]
        children = [seed.spawn(1)[0].random() for seed in seeds]
        assert children[0] == children[1]
        for name, column in zip(COLUMNS, drawn):
            assert getattr(lazy, name).tobytes() == column.tobytes()

    def test_pickle_round_trip_of_a_simulator(self):
        topology = Topology(3, [(0, 1), (1, 2)])
        databases = [LocalDatabase({"A": np.arange(4)})] * 3
        for peers in (
            None,
            [Peer(i, f"host-{i}", 80 + i) for i in range(3)],
        ):
            network = NetworkSimulator(
                topology, databases, peers=peers, seed=1
            )
            clone = pickle.loads(pickle.dumps(network))
            for peer_id in range(3):
                assert clone.peer(peer_id) == network.peer(peer_id)
            speeds = clone._snapshot.cpu_speeds()
            assert speeds.flags.writeable is False
            assert (
                speeds.tobytes() == network._snapshot.cpu_speeds().tobytes()
            )
