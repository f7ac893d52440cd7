"""Unit tests for repro.network.simulator."""

import numpy as np
import pytest

from repro.core.two_phase import TwoPhaseConfig
from repro.data.generator import DatasetConfig, generate_dataset
from repro.data.localdb import LocalDatabase
from repro.errors import ConfigurationError, ProtocolError
from repro.network import visits as visits_module
from repro.network.faults import FaultPlan
from repro.network.generators import power_law_topology
from repro.network.simulator import NetworkSimulator, NetworkSnapshot
from repro.network.topology import Topology
from repro.network.visits import AggregateVisits, GroupVisits, PanelVisits
from repro.network.walker import RandomWalker, ResilientCollector, RetryPolicy
from repro.query.model import AggregateOp, AggregationQuery, Between
from repro.service import QueryService


@pytest.fixture()
def mini_network():
    """4 peers in a path, known data at each peer."""
    topology = Topology(4, [(0, 1), (1, 2), (2, 3)])
    databases = [
        LocalDatabase({"A": np.array([1, 2, 3, 4])}, block_size=2),
        LocalDatabase({"A": np.array([10, 20])}, block_size=2),
        LocalDatabase({"A": np.array([5])}, block_size=2),
        LocalDatabase({"A": np.array([], dtype=np.int64)}, block_size=2),
    ]
    return NetworkSimulator(topology, databases, seed=3)


COUNT_SMALL = AggregationQuery(
    agg=AggregateOp.COUNT, column="A",
    predicate=Between(column="A", low=1, high=5),
)
SUM_ALL = AggregationQuery(agg=AggregateOp.SUM, column="A")


class TestConstruction:
    def test_database_count_must_match(self):
        topology = Topology(2, [(0, 1)])
        with pytest.raises(ConfigurationError):
            NetworkSimulator(
                topology, [LocalDatabase({"A": np.array([1])})]
            )

    @pytest.mark.parametrize(
        "labels",
        [
            [0, 0, 0, 0],  # one CPU speed for all
            [3, 1, 3, 2],
            [True, False, True, True],  # coerced to 1 / 0
            [1.7, 2.0, 3.0, 4.0],  # coerced to 1
            [0, 1, -2, 3],
            [[0, 1], [2, 3]],
        ],
    )
    def test_peer_labels_must_be_identities(self, mini_network, labels):
        """Labels that are not distinct non-negative integers used to be
        accepted: a repeated label gave every vertex bearing it one
        CPU speed, and delta re-estimation's
        label → vertex map kept only the last."""
        with pytest.raises(ConfigurationError, match="peer label"):
            NetworkSimulator(
                mini_network.topology,
                mini_network.databases(),
                peer_labels=labels,
            )

    def test_peer_labels_come_back_as_ints(self, mini_network):
        network = NetworkSimulator(
            mini_network.topology,
            mini_network.databases(),
            peer_labels=np.array([7, 2, 9, 0], dtype=np.uint32),
        )
        assert network.peer_labels == (7, 2, 9, 0)
        assert all(type(label) is int for label in network.peer_labels)

    def test_unknown_peer(self, mini_network):
        with pytest.raises(ProtocolError):
            mini_network.database(9)

    def test_total_tuples(self, mini_network):
        assert mini_network.total_tuples() == 7

    def test_databases_accessor(self, mini_network):
        assert len(mini_network.databases()) == 4
        assert mini_network.database(0).num_tuples == 4


class TestVisitAggregate:
    def test_full_scan_count(self, mini_network):
        ledger = mini_network.new_ledger()
        reply = mini_network.visit_aggregate(
            0, COUNT_SMALL, sink=1, ledger=ledger
        )
        assert reply.aggregate_value == 4.0  # all of 1,2,3,4 in [1,5]
        assert reply.degree == 1
        assert reply.local_tuples == 4
        assert reply.processed_tuples == 4

    def test_full_scan_sum(self, mini_network):
        reply = mini_network.visit_aggregate(
            1, SUM_ALL, sink=0, ledger=mini_network.new_ledger()
        )
        assert reply.aggregate_value == 30.0
        assert reply.matching_count == 2.0
        assert reply.column_total == 30.0

    def test_empty_peer(self, mini_network):
        reply = mini_network.visit_aggregate(
            3, SUM_ALL, sink=0, ledger=mini_network.new_ledger()
        )
        assert reply.aggregate_value == 0.0
        assert reply.local_tuples == 0

    def test_subsampled_scaling(self, mini_network):
        """With t=2 of 4 tuples the scaled estimate uses factor 2."""
        ledger = mini_network.new_ledger()
        reply = mini_network.visit_aggregate(
            0, COUNT_SMALL, sink=1, ledger=ledger, tuples_per_peer=2
        )
        assert reply.processed_tuples == 2
        # All tuples match, so 2 matching * (4/2) = 4 regardless of draw.
        assert reply.aggregate_value == 4.0

    def test_subsample_not_triggered_when_small(self, mini_network):
        reply = mini_network.visit_aggregate(
            2, COUNT_SMALL, sink=1,
            ledger=mini_network.new_ledger(), tuples_per_peer=10,
        )
        assert reply.processed_tuples == 1

    def test_ledger_accounting(self, mini_network):
        ledger = mini_network.new_ledger()
        mini_network.visit_aggregate(0, COUNT_SMALL, sink=1, ledger=ledger)
        cost = ledger.snapshot()
        assert cost.peers_visited == 1
        assert cost.distinct_peers == 1
        assert cost.tuples_processed == 4
        assert cost.messages == 1  # the direct reply
        assert cost.latency_ms > 0

    def test_revisit_counts_twice(self, mini_network):
        ledger = mini_network.new_ledger()
        mini_network.visit_aggregate(0, COUNT_SMALL, sink=1, ledger=ledger)
        mini_network.visit_aggregate(0, COUNT_SMALL, sink=1, ledger=ledger)
        cost = ledger.snapshot()
        assert cost.peers_visited == 2
        assert cost.distinct_peers == 1

    def test_median_rejected(self, mini_network):
        query = AggregationQuery(agg=AggregateOp.MEDIAN, column="A")
        with pytest.raises(ConfigurationError):
            mini_network.visit_aggregate(
                0, query, sink=1, ledger=mini_network.new_ledger()
            )

    def test_negative_budget_rejected(self, mini_network):
        with pytest.raises(ConfigurationError):
            mini_network.visit_aggregate(
                0, COUNT_SMALL, sink=1,
                ledger=mini_network.new_ledger(), tuples_per_peer=-1,
            )

    def test_block_sampling_method(self, mini_network):
        reply = mini_network.visit_aggregate(
            0, COUNT_SMALL, sink=1,
            ledger=mini_network.new_ledger(),
            tuples_per_peer=2, sampling_method="block",
        )
        assert reply.processed_tuples == 2


def _visit_values(network, query, **kwargs):
    """Peer 0's one values reply, through the values batch visit."""
    (reply,) = network.visit_values_batch(
        [0], query, sink=1, ledger=kwargs.pop("ledger", network.new_ledger()),
        **kwargs,
    )
    return reply


class TestVisitValues:
    def test_median_ship(self, mini_network):
        query = AggregationQuery(agg=AggregateOp.MEDIAN, column="A")
        reply = _visit_values(mini_network, query)
        assert len(reply.values) == 1
        assert reply.values[0] == pytest.approx(2.5)

    def test_empty_selection_ships_nothing(self, mini_network):
        query = AggregationQuery(
            agg=AggregateOp.MEDIAN, column="A",
            predicate=Between(column="A", low=99, high=100),
        )
        reply = _visit_values(mini_network, query)
        assert reply.values == ()

    def test_quantile_ship(self, mini_network):
        query = AggregationQuery(
            agg=AggregateOp.QUANTILE, column="A", quantile=0.25
        )
        reply = _visit_values(mini_network, query)
        assert reply.values[0] == pytest.approx(1.75)


class TestFlood:
    def test_reaches_whole_path(self, mini_network):
        ledger = mini_network.new_ledger()
        reached = mini_network.flood(0, ttl=5, ledger=ledger)
        assert [peer for peer, _ in reached] == [0, 1, 2, 3]
        assert [depth for _, depth in reached] == [0, 1, 2, 3]

    def test_ttl_limits_depth(self, mini_network):
        reached = mini_network.flood(
            0, ttl=1, ledger=mini_network.new_ledger()
        )
        assert [peer for peer, _ in reached] == [0, 1]

    def test_max_peers_truncates(self, mini_network):
        reached = mini_network.flood(
            0, ttl=5, ledger=mini_network.new_ledger(), max_peers=2
        )
        assert len(reached) == 2

    def test_message_cost_counts_edge_traversals(self, mini_network):
        ledger = mini_network.new_ledger()
        mini_network.flood(0, ttl=5, ledger=ledger)
        # Path graph: edges (0,1),(1,2),(2,3) traversed once forward,
        # and each non-frontier expansion re-sends over known edges.
        assert ledger.snapshot().messages >= 3

    def test_flood_on_larger_graph_counts_every_edge(self, small_network):
        ledger = small_network.new_ledger()
        reached = small_network.flood(0, ttl=10**6, ledger=ledger)
        assert len(reached) == small_network.num_peers
        # every directed edge traversal charged at most once per endpoint
        assert ledger.snapshot().messages >= small_network.topology.num_edges

    def test_negative_ttl_rejected(self, mini_network):
        with pytest.raises(ConfigurationError):
            mini_network.flood(0, ttl=-1, ledger=mini_network.new_ledger())


MEDIAN_ALL = AggregationQuery(agg=AggregateOp.MEDIAN, column="A")
SUM_BY_A = AggregationQuery(agg=AggregateOp.SUM, column="A", group_by="A")

VISIT_ENTRY_POINTS = {
    "visit_aggregate": lambda net, **kw: net.visit_aggregate(
        0, SUM_ALL, **kw
    ),
    "visit_aggregate_batch": lambda net, **kw: net.visit_aggregate_batch(
        [0, 1], SUM_ALL, **kw
    ),
    "visit_values_batch": lambda net, **kw: net.visit_values_batch(
        [0, 1], MEDIAN_ALL, **kw
    ),
    "visit_batch-group": lambda net, **kw: _visit_batch(
        net, [0, 1], GroupVisits, SUM_BY_A, **kw
    ),
    "visit_batch-panel": lambda net, **kw: _visit_batch(
        net, [0, 1], PanelVisits, [SUM_ALL, COUNT_SMALL], **kw
    ),
}


#: The same entry points, handed their peer id(s) by the test.
PEER_ENTRY_POINTS = {
    "visit_aggregate": lambda net, peer, **kw: net.visit_aggregate(
        peer, SUM_ALL, **kw
    ),
    "visit_aggregate_batch": lambda net, peers, **kw: (
        net.visit_aggregate_batch(peers, SUM_ALL, **kw)
    ),
    "visit_values_batch": lambda net, peers, **kw: net.visit_values_batch(
        peers, MEDIAN_ALL, **kw
    ),
    "visit_batch-group": lambda net, peers, **kw: _visit_batch(
        net, peers, GroupVisits, SUM_BY_A, **kw
    ),
    "visit_batch-panel": lambda net, peers, **kw: _visit_batch(
        net, peers, PanelVisits, [SUM_ALL, COUNT_SMALL], **kw
    ),
    # The fate of one probe of a checked collection replies to nobody.
    "probe_visit": lambda net, peer, sink, ledger, **kw: net.probe_visit(
        peer, _checked(AggregateVisits(net, SUM_ALL, sink, **kw)), ledger
    ),
    "read_aggregates": lambda net, peers, ledger, **kw: net.read_aggregates(
        peers, SUM_ALL, **kw
    ),
}


def _checked(visits):
    visits.check()
    return visits


def _visit_batch(net, peers, kind, query, sink, ledger, **kwargs):
    """The generic batch entry point over ``kind``'s visits."""
    return net.visit_batch(peers, kind(net, query, sink, **kwargs), ledger)


#: The four batch entry points, every reply kind one.
BATCH_ENTRY_POINTS = {
    name: PEER_ENTRY_POINTS[name]
    for name in (
        "visit_aggregate_batch",
        "visit_values_batch",
        "visit_batch-group",
        "visit_batch-panel",
    )
}


NOT_A_PEER = (1.7, np.float64(2.0), "1", None, True)
NOT_PEERS = ([1.7, 2.2], [True, False], [[0, 1], [2, 3]], 1.0, ["1"])
NON_INTEGER_PEERS = [
    (name, bad)
    for name in sorted(PEER_ENTRY_POINTS)
    for bad in (NOT_PEERS if "_batch" in name or "read_" in name else NOT_A_PEER)
]


class TestVisitArgumentValidation:
    """Regression: a rejected visit must be rejected *first*.

    ``tuples_per_peer=-5`` used to raise only after the probe gauntlet
    had consumed a fault-clock step (and possibly charged the ledger),
    and the values visits leaked a ``SamplingError`` from the local
    database instead of validating at all.
    """

    @pytest.mark.parametrize("faulty", [False, True])
    @pytest.mark.parametrize("entry_point", sorted(VISIT_ENTRY_POINTS))
    def test_negative_budget_rejected_before_side_effects(
        self, mini_network, entry_point, faulty
    ):
        network = mini_network
        if faulty:
            network = NetworkSimulator(
                mini_network.topology,
                mini_network.databases(),
                seed=3,
                fault_plan=FaultPlan(seed=1, reply_loss=0.5),
                fault_clock=1,
            )
        ledger = network.new_ledger()
        untouched = ledger.snapshot()
        with pytest.raises(
            ConfigurationError, match="tuples_per_peer must be >= 0"
        ):
            VISIT_ENTRY_POINTS[entry_point](
                network, sink=1, ledger=ledger, tuples_per_peer=-5
            )
        assert ledger.snapshot() == untouched
        if faulty:
            assert network.fault_state.clock == 1

    @pytest.mark.parametrize("tuples_per_peer", [0, 2, 100])
    @pytest.mark.parametrize("faulty", [False, True])
    @pytest.mark.parametrize("entry_point", sorted(VISIT_ENTRY_POINTS))
    def test_unknown_sampling_method_rejected_before_side_effects(
        self, mini_network, entry_point, faulty, tuples_per_peer
    ):
        """The method used to be checked only inside ``database.sample``
        — after the gauntlet had consumed a fault-clock step, and not
        at all when the visit did not sub-sample (budget 0, or a
        partition within the budget), where the scalar visits accepted
        a bogus method the batch visits rejected."""
        network = mini_network
        if faulty:
            network = NetworkSimulator(
                mini_network.topology,
                mini_network.databases(),
                seed=3,
                fault_plan=FaultPlan(seed=1, reply_loss=0.5),
                fault_clock=1,
            )
        ledger = network.new_ledger()
        untouched = ledger.snapshot()
        with pytest.raises(
            ConfigurationError, match="unknown sampling method 'bogus'"
        ):
            VISIT_ENTRY_POINTS[entry_point](
                network,
                sink=1,
                ledger=ledger,
                tuples_per_peer=tuples_per_peer,
                sampling_method="bogus",
            )
        assert ledger.snapshot() == untouched
        if faulty:
            assert network.fault_state.clock == 1

    @pytest.mark.parametrize("faulty", [False, True])
    @pytest.mark.parametrize("entry_point, bad_peers", NON_INTEGER_PEERS)
    def test_non_integer_peer_rejected_before_side_effects(
        self, mini_network, entry_point, bad_peers, faulty
    ):
        """``_check_peer`` used to be a range test only: ``1.7`` passed
        it, consumed a fault-clock step and died with a bare
        ``TypeError`` inside the fault hash, while the batch visits
        truncated ``[1.7, 2.2]`` to peers 1 and 2, read booleans as
        peers 1 and 0 and flattened a 2-D list."""
        network = mini_network
        if faulty:
            network = NetworkSimulator(
                mini_network.topology,
                mini_network.databases(),
                seed=3,
                fault_plan=FaultPlan(seed=1, reply_loss=0.5),
                fault_clock=1,
            )
        ledger = network.new_ledger()
        untouched = ledger.snapshot()
        with pytest.raises(ProtocolError, match="integer"):
            PEER_ENTRY_POINTS[entry_point](
                network, bad_peers, sink=1, ledger=ledger
            )
        assert ledger.snapshot() == untouched
        if faulty:
            assert network.fault_state.clock == 1

    def test_integer_peer_ids_of_any_width_accepted(self, mini_network):
        """Numpy integers and an empty list (a float64 array once
        converted) are peer ids like any other."""
        ledger = mini_network.new_ledger()
        reply = mini_network.visit_aggregate(
            np.int32(2), SUM_ALL, sink=1, ledger=ledger
        )
        assert reply.source == 2
        sample = mini_network.visit_aggregate_batch(
            np.asarray([2, 0], dtype=np.uint8), SUM_ALL, sink=1, ledger=ledger
        )
        assert sample["source"].tolist() == [2, 0]
        assert len(
            mini_network.visit_aggregate_batch([], SUM_ALL, sink=1, ledger=ledger)
        ) == 0


def _counting(counts, label, original):
    """``original``, adding one to ``counts[label]`` per call."""

    def wrapper(*args, **kwargs):
        counts[label] += 1
        return original(*args, **kwargs)

    return wrapper


class TestSetUpCounts:
    """Set-up builds arrays, not peers: from topology + databases to
    the first answer no per-peer database is built, no per-peer column
    view is taken, and the one per-peer attribute a clean answer reads
    (``cpu_speed``) is drawn once.  Counts repeat exactly — the
    per-peer loop coming back into ``NetworkSnapshot`` or
    ``FlatDataset.from_databases`` fails here without a stopwatch."""

    NUM_PEERS = 2_000

    @pytest.fixture(scope="class")
    def parts(self):
        topology = power_law_topology(self.NUM_PEERS, 8_000, seed=3)
        dataset = generate_dataset(
            topology, DatasetConfig(num_tuples=40_000), seed=3
        )
        return topology, dataset.databases

    @pytest.fixture()
    def counts(self, monkeypatch):
        """Constructions of ``LocalDatabase``, calls of
        ``LocalDatabase.column`` and draws of the CPU speeds while the
        test runs."""
        counts = {"LocalDatabase": 0, "column": 0, "cpu_speeds": 0}
        for owner, name, label in [
            (LocalDatabase, "__init__", "LocalDatabase"),
            (LocalDatabase, "column", "column"),
        ]:
            monkeypatch.setattr(
                owner, name, _counting(counts, label, getattr(owner, name))
            )
        speeds = NetworkSnapshot.cpu_speeds

        def drawing(snapshot):
            counts["cpu_speeds"] += snapshot._cpu_speeds is None
            return speeds(snapshot)

        monkeypatch.setattr(NetworkSnapshot, "cpu_speeds", drawing)
        return counts

    def test_first_answer_builds_no_peer_and_views_no_column(
        self, parts, counts
    ):
        topology, databases = parts
        # The patches are live.
        databases[0].column("A")
        assert counts == {"LocalDatabase": 1, "column": 1, "cpu_speeds": 0}
        counts.update(dict.fromkeys(counts, 0))

        network = NetworkSimulator(topology, databases, seed=1)
        assert network.flat_dataset.num_peers == self.NUM_PEERS
        with QueryService(network, TwoPhaseConfig(), seed=2) as service:
            ticket = service.submit(COUNT_SMALL, 0.1)
            service.await_result(ticket)
            assert service.outcome(ticket).cost.peers_visited > 0
        assert counts == {"LocalDatabase": 0, "column": 0, "cpu_speeds": 1}

    def test_identity_columns_drawn_when_read(self, parts, counts):
        """A simulator draws no CPU speed when it is built: the speeds
        are drawn on their first read, once per simulator — by its
        first clean answer, which every later answer and session
        shares."""
        topology, databases = parts
        first = NetworkSimulator(topology, databases, seed=1)
        second = NetworkSimulator(topology, databases, seed=2)
        assert counts["cpu_speeds"] == 0
        for network in (first, second):
            assert network._snapshot._cpu_speeds is None
            counts["cpu_speeds"] = 0
            for _ in range(2):
                with QueryService(network, TwoPhaseConfig(), seed=2) as service:
                    service.await_result(service.submit(COUNT_SMALL, 0.1))
            assert counts["cpu_speeds"] == 1
        assert (
            first._snapshot.cpu_speeds().tobytes()
            == second._snapshot.cpu_speeds().tobytes()
        )


class TestBatchVisitChecksOnce:
    """A batch visit checks its arguments once: the public entry point
    validates, then reads rows through the kind's kernel — not through
    ``read_aggregates``, which validates again.  So does a resilient
    collector's collection.  Every kind's check ends in the budget and
    sampling-method validators, so counting those counts checks.
    Counts repeat exactly."""

    @pytest.fixture()
    def checks(self, monkeypatch):
        checks = {"check": 0, "_validate_batch_peers": 0}
        monkeypatch.setattr(
            visits_module,
            "_check_tuples_per_peer",
            _counting(
                checks,
                "check",
                visits_module._check_tuples_per_peer,
            ),
        )
        monkeypatch.setattr(
            NetworkSimulator,
            "_validate_batch_peers",
            _counting(
                checks,
                "_validate_batch_peers",
                NetworkSimulator._validate_batch_peers,
            ),
        )
        return checks

    @pytest.mark.parametrize("faulty", [False, True])
    @pytest.mark.parametrize("kind", sorted(BATCH_ENTRY_POINTS))
    def test_one_check_per_chunk_for_every_kind(
        self, mini_network, checks, kind, faulty
    ):
        network = mini_network
        if faulty:
            network = NetworkSimulator(
                mini_network.topology,
                mini_network.databases(),
                seed=3,
                fault_plan=FaultPlan(seed=1, reply_loss=0.3),
            )
        for chunk in ([0, 1, 2], [3, 0]):
            BATCH_ENTRY_POINTS[kind](
                network, chunk, sink=1, ledger=network.new_ledger(),
                tuples_per_peer=2, seed=5,
            )
        assert checks == {
            "check": 2, "_validate_batch_peers": 2
        }

    @pytest.mark.parametrize("faulty", [False, True])
    def test_one_of_each_validator_per_visit(
        self, mini_network, checks, faulty
    ):
        network = mini_network
        if faulty:
            # Fate per probe, then the survivors' rows: still one each.
            network = NetworkSimulator(
                mini_network.topology,
                mini_network.databases(),
                seed=3,
                fault_plan=FaultPlan(seed=1, reply_loss=0.3),
            )
        ledger = network.new_ledger()
        replies = network.visit_aggregate_batch(
            [0, 1, 2, 3, 0], SUM_ALL, sink=1, ledger=ledger,
            tuples_per_peer=2, seed=5,
        )
        # (the plan loses one of the five replies)
        assert len(replies) == (4 if faulty else 5)
        assert checks == {
            "check": 1, "_validate_batch_peers": 1
        }

        network.read_aggregates([0, 1], SUM_ALL, sink=1, tuples_per_peer=2)
        assert checks == {
            "check": 2, "_validate_batch_peers": 2
        }

    @pytest.mark.parametrize(
        "peers, kwargs, error, message",
        [
            ([0, 7], {}, ProtocolError, "unknown peer 7"),
            ([0, -1], {}, ProtocolError, "unknown peer -1"),
            ([0.5], {}, ProtocolError, "flat sequence of integers"),
            (
                [0, 1],
                {"tuples_per_peer": -5},
                ConfigurationError,
                "tuples_per_peer must be >= 0",
            ),
            (
                [0, 1],
                {"sampling_method": "bogus"},
                ConfigurationError,
                "sampling",
            ),
        ],
    )
    def test_both_entry_points_refuse_the_same_way(
        self, mini_network, peers, kwargs, error, message
    ):
        ledger = mini_network.new_ledger()
        untouched = ledger.snapshot()
        raised = []
        for visit in (
            lambda: mini_network.visit_aggregate_batch(
                peers, SUM_ALL, sink=1, ledger=ledger, **kwargs
            ),
            lambda: mini_network.read_aggregates(
                peers, SUM_ALL, sink=1, **kwargs
            ),
        ):
            with pytest.raises(error, match=message) as caught:
                visit()
            raised.append(str(caught.value))
        assert raised[0] == raised[1]
        assert ledger.snapshot() == untouched

    @pytest.mark.parametrize("faulty", [False, True])
    def test_one_argument_check_per_collector_collection(
        self, mini_network, checks, faulty
    ):
        """The resilient collector checks what its collection fixes
        before the walk, each probe checks its peer, and the survivors'
        rows are read through the body ``read_aggregates`` shares."""
        network = mini_network
        if faulty:
            network = NetworkSimulator(
                mini_network.topology,
                mini_network.databases(),
                seed=3,
                fault_plan=FaultPlan(seed=1, reply_loss=0.3),
            )
        collector = ResilientCollector(
            RandomWalker(network.topology, seed=4),
            network,
            RetryPolicy(max_attempts=2),
        )
        replies, stats = collector.collect_aggregate(
            0, SUM_ALL, 12, network.new_ledger(), 23,
            tuples_per_peer=2, seed=5,
        )
        assert len(replies) == stats.received > 0
        assert (stats.losses > 0) == faulty
        assert checks == {
            "check": 1, "_validate_batch_peers": 0
        }
