"""Tests for the live network (churn + data lifecycle)."""

import numpy as np
import pytest

from repro.core.two_phase import PlanCache, TwoPhaseConfig, TwoPhaseEngine
from repro.data.generator import DatasetConfig, generate_dataset
from repro.data.localdb import LocalDatabase
from repro.errors import ConfigurationError
from repro.network.churn import ChurnConfig
from repro.network.live import LiveNetwork
from repro.network.simulator import NetworkSimulator
from repro.query.exact import evaluate_exact, evaluate_exact_groups
from repro.query.parser import parse_query

COUNT_30 = parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30")


def make_live(small_topology, handoff=False, seed=5):
    rng = np.random.default_rng(3)
    databases = [
        LocalDatabase({"A": rng.integers(1, 101, 100)})
        for _ in range(small_topology.num_peers)
    ]
    return LiveNetwork(
        small_topology,
        databases,
        churn_config=ChurnConfig(join_rate=0.8, leave_rate=0.8),
        tuples_per_new_peer=100,
        handoff=handoff,
        seed=seed,
    )


class TestLifecycle:
    def test_join_brings_data(self, small_topology):
        live = make_live(small_topology)
        before = live.total_tuples()
        live.join()
        assert live.total_tuples() == before + 100

    def test_leave_without_handoff_loses_data(self, small_topology):
        live = make_live(small_topology, handoff=False)
        before = live.total_tuples()
        live.leave()
        assert live.total_tuples() == before - 100

    def test_leave_with_handoff_preserves_data(self, small_topology):
        live = make_live(small_topology, handoff=True)
        before = live.total_tuples()
        live.leave()
        assert live.total_tuples() == before

    def test_step_applies_both(self, small_topology):
        live = make_live(small_topology)
        totals = live.step(50)
        assert totals["joins"] > 20
        assert totals["leaves"] > 20

    def test_validations(self, small_topology):
        live = make_live(small_topology)
        with pytest.raises(ConfigurationError):
            live.step(0)
        with pytest.raises(ConfigurationError):
            LiveNetwork(small_topology, [], seed=1)


class TestSnapshots:
    def test_snapshot_is_consistent(self, small_topology):
        live = make_live(small_topology)
        live.step(30)
        network = live.snapshot()
        assert network.num_peers == live.num_peers
        assert network.total_tuples() == live.total_tuples()

    def test_a_peer_keeps_its_identity_across_epochs(self, small_topology):
        """Vertex ids are compacted per epoch; a CPU speed follows the
        *label*.  Dealt by vertex id (as they were), every survivor
        above a departed peer inherits its neighbour's CPU speed."""
        live = make_live(small_topology)
        before = live.snapshot(seed=1)
        live.leave(3)
        live.step(20)
        after = live.snapshot(seed=2)
        then = dict(zip(before.peer_labels, before._snapshot.cpu_speeds()))
        speeds = after._snapshot.cpu_speeds()
        survivors = 0
        for vertex, label in enumerate(after.peer_labels):
            if label in then:
                survivors += 1
                assert speeds[vertex] == then[label]
        assert 0 < survivors < before.num_peers
        moved = [
            vertex
            for vertex, label in enumerate(after.peer_labels)
            if vertex != label
        ]
        assert moved  # the regression needs a survivor whose vertex moved

    def test_without_churn_the_table_is_the_label_free_one(
        self, small_topology
    ):
        live = make_live(small_topology)
        labelled = live.snapshot(seed=1)
        plain = NetworkSimulator(
            labelled.topology, labelled.databases(), seed=1
        )
        assert labelled.peer_labels == tuple(range(plain.num_peers))
        assert (
            labelled._snapshot.cpu_speeds().tobytes()
            == plain._snapshot.cpu_speeds().tobytes()
        )

    def test_negative_labels_are_rejected(self, small_topology):
        live = make_live(small_topology)
        frozen = live.snapshot(seed=1)
        labels = list(frozen.peer_labels)
        labels[0] = -1
        with pytest.raises(ConfigurationError, match="non-negative"):
            NetworkSimulator(
                frozen.topology, frozen.databases(), peer_labels=labels
            )

    def test_queries_stay_accurate_across_epochs(self, small_topology):
        """The headline property: each epoch's snapshot answers within
        the requirement even as peers and data churn."""
        live = make_live(small_topology, seed=11)
        for epoch in range(3):
            live.step(40)
            network = live.snapshot(seed=epoch)
            truth = evaluate_exact(COUNT_30, network.databases())
            n = network.total_tuples()
            sink = int(network.topology.giant_component()[0])
            engine = TwoPhaseEngine(
                network,
                TwoPhaseConfig(
                    max_phase_two_peers=2 * network.num_peers
                ),
                seed=epoch,
            )
            result = engine.execute(COUNT_30, delta_req=0.1, sink=sink)
            assert abs(result.estimate - truth) / n <= 0.1

    def test_hybrid_invalidation_story(self, small_topology):
        """Cache across snapshots: invalidate after churn, keep
        meeting the requirement."""
        live = make_live(small_topology, seed=13)
        network = live.snapshot(seed=1)
        hybrid = TwoPhaseEngine(
            network,
            TwoPhaseConfig(max_phase_two_peers=400),
            seed=1,
            cache=PlanCache(),
        )
        hybrid.execute(COUNT_30, 0.1, sink=0)
        assert hybrid.warm_runs == 0
        hybrid.execute(COUNT_30, 0.1, sink=0)
        assert hybrid.warm_runs == 1
        # Churn epoch: new snapshot, new engine, cache dropped.
        live.step(30)
        hybrid.cache.invalidate()
        assert hybrid.cached_plan(COUNT_30) is None


def make_grouped_live(small_topology, handoff):
    """A network over a dataset with a group column ``G`` beside ``A``."""
    dataset = generate_dataset(
        small_topology,
        DatasetConfig(num_tuples=4_000, group_column="G", num_groups=5),
        seed=4,
    )
    return dataset, LiveNetwork(
        small_topology,
        dataset.databases,
        churn_config=ChurnConfig(join_rate=0.8, leave_rate=0.8),
        handoff=handoff,
        seed=6,
    )


class TestEveryColumnLives:
    """A network whose peers hold more than the value column keeps
    every column through a handoff, and refuses a join it could not
    stock."""

    GROUPED = parse_query("SELECT SUM(A) FROM T WHERE A <= 40 GROUP BY G")

    def test_a_handoff_carries_every_column(self, small_topology):
        dataset, live = make_grouped_live(small_topology, handoff=True)
        truth = evaluate_exact_groups(self.GROUPED, dataset.databases.store)
        before = dict(live._databases)
        live.leave(0)
        network = live.snapshot(seed=1)
        (merged,) = [
            database
            for label, database in zip(
                network.peer_labels, network.databases()
            )
            if database is not before[label]
        ]
        kept = before[0].num_tuples
        # The receiver's rows, then the departing rows, every row
        # intact (A beside its own G), every column at its own width.
        assert merged.column_names == ["A", "G"]
        for name in ("A", "G"):
            column = merged.column(name)
            assert column.dtype == dataset.databases.store.column(name).dtype
            np.testing.assert_array_equal(
                column[column.size - kept:], before[0].column(name)
            )
        assert network.total_tuples() == dataset.num_tuples
        assert evaluate_exact_groups(self.GROUPED, network.databases()) == (
            truth
        )

    def test_a_join_it_cannot_stock_changes_nothing(self, small_topology):
        _, live = make_grouped_live(small_topology, handoff=False)
        peers, tuples = live.num_peers, live.total_tuples()
        state = live._rng.bit_generator.state
        with pytest.raises(ConfigurationError, match="'G'"):
            live.join()
        assert live.num_peers == peers
        assert live.total_tuples() == tuples
        assert live._rng.bit_generator.state == state
        assert live.snapshot(seed=1).num_peers == peers
