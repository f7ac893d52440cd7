"""Unit tests for repro.network.peer."""

import dataclasses
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
