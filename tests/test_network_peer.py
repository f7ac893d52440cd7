"""A network's per-peer CPU speeds (``NetworkSnapshot.cpu_speeds``): the
one peer attribute the cost model reads, drawn on first read, row by
peer label."""

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.localdb import LocalDatabase
from repro.network.simulator import NetworkSimulator
from repro.network.topology import Topology


def _network(rows, seed=None):
    """A path network of ``len(rows)`` peers labelled ``rows`` (no
    labels for an ``int``: vertex ids are the rows)."""
    labels = None if isinstance(rows, int) else list(rows)
    size = rows if labels is None else len(labels)
    topology = Topology(size, [(i, i + 1) for i in range(size - 1)])
    databases = [LocalDatabase({"A": np.arange(2)})] * size
    return NetworkSimulator(topology, databases, seed=seed, peer_labels=labels)


def _speeds(rows):
    return _network(rows)._snapshot.cpu_speeds()


def _digest(speeds):
    return str(speeds.dtype), hashlib.sha256(speeds.tobytes()).hexdigest()


class TestIdentitiesPinnedByValue:
    """The CPU speeds recorded when they were one column of a table of
    five capability columns drawn from the identity seed: the values
    must not move (they reach ``QueryCost.latency_ms`` and the bench's
    result digest)."""

    PINNED = {
        2_000: ("float64", "77330a069db381b4938b2f5fc05dfd6a8ced3ab5c8f7302f78588ee1512dd765"),
        22_556: ("float64", "34c49e4e066a6b812092ce4d2670ac1d94da5a4add698b2eb500bc33f719577f"),
        (5, 0, 17, 3): ("float64", "94e13fd6af526f0e3d076bb69a45224c37ded8c221834f1f5f72f73570a5d5a6"),
    }

    @pytest.mark.parametrize("rows", list(PINNED), ids=str)
    def test_synthesized_table(self, rows):
        assert _digest(_speeds(rows)) == self.PINNED[rows]

    def test_rows_by_value(self):
        speeds = _speeds((5, 0, 17, 3))
        assert speeds[0] == 1.1013464370721406
        assert speeds[3] == 0.8543034259632895

    def test_a_simulators_tables(self):
        """What a network over a known topology serves: the label-free
        speeds, and a churn snapshot's rows by label — labels equal to
        the vertex ids read the label-free speeds."""
        assert _digest(_speeds(2_000)) == self.PINNED[2_000]
        assert _digest(_speeds(range(2_000))) == self.PINNED[2_000]
        assert (
            _digest(_speeds((5, 0, 17, 3))) == self.PINNED[(5, 0, 17, 3)]
        )


class TestCpuSpeeds:
    @settings(max_examples=25, deadline=None)
    @given(small=st.integers(1, 300), extra=st.integers(0, 5_000))
    def test_rows_do_not_depend_on_how_many_are_drawn(self, small, extra):
        """Prefix stability, the property churn identity stands on."""
        short = _speeds(small)
        long = _speeds(range(small + extra))
        assert short.shape == (small,)
        assert np.array_equal(short, long[:small])

    def test_speeds_are_read_only(self):
        speeds = _speeds(10)
        assert speeds.shape == (10,)
        assert speeds.flags.writeable is False
        with pytest.raises(ValueError):
            speeds[0] = 1

    def test_rows_follow_the_labels(self):
        """Any labels, any order: a peer's speed is its label's row."""
        table = _speeds(10)
        assert _speeds((7, 2)).tolist() == [table[7], table[2]]

    def test_ranges_and_moments(self):
        """Coarse, so a transposed parameter fails and noise does not."""
        logs = np.log(_speeds(20_000))
        assert np.median(logs) == pytest.approx(0.0, abs=0.02)
        assert logs.std() == pytest.approx(0.35, rel=0.03)

    @settings(max_examples=25, deadline=None)
    @given(
        pickle_first=st.booleans(),
        rows=st.lists(
            st.integers(0, 3_000), min_size=1, max_size=50, unique=True
        ),
    )
    def test_speeds_are_the_same_however_they_are_read(
        self, pickle_first, rows
    ):
        """The speeds are drawn on their first read: before or after a
        pickle, the array is the one drawn eagerly, and it is kept."""
        expected = _speeds(rows).copy()
        network = _network(rows)
        if pickle_first:
            network = pickle.loads(pickle.dumps(network))
        snapshot = network._snapshot
        speeds = snapshot.cpu_speeds()
        assert speeds.tobytes() == expected.tobytes()
        assert speeds.dtype == expected.dtype
        assert speeds.flags.writeable is False
        assert snapshot.cpu_speeds() is speeds  # drawn once, kept

    def test_pickle_round_trip_of_a_simulator(self):
        for rows in (3, (4, 1, 9)):
            network = _network(rows, seed=1)
            network._snapshot.cpu_speeds()  # drawn before the pickle
            clone = pickle.loads(pickle.dumps(network))
            speeds = clone._snapshot.cpu_speeds()
            assert speeds.flags.writeable is False
            assert (
                speeds.tobytes() == network._snapshot.cpu_speeds().tobytes()
            )
