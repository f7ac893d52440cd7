"""Tests for multi-query batching."""


import pytest

from repro.core.batch import BatchEngine
from repro.core.two_phase import TwoPhaseConfig, TwoPhaseEngine
from repro.errors import ConfigurationError
from repro.network.protocol import AggregateReply
from repro.network.faults import FaultPlan
from repro.network.simulator import NetworkSimulator
from repro.network.visits import PanelVisits
from repro.network.walker import RetryPolicy
from repro.obs.tracer import Tracer, tracing
from repro.query.exact import evaluate_exact
from repro.query.parser import parse_query
from repro.sim.event_driven import EventDrivenSimulator
from repro.sim.latency import ConstantLatency, LatencyModel

from .test_core_values_pinned import CHAOS_PLAN

QUERIES = [
    parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30"),
    parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 31 AND 60"),
    parse_query("SELECT SUM(A) FROM T"),
]
AVG_HIGH = parse_query("SELECT AVG(A) FROM T WHERE A > 50")


@pytest.fixture()
def engine(small_network):
    return BatchEngine(
        small_network,
        TwoPhaseConfig(max_phase_two_peers=400),
        seed=5,
    )


class TestBatchExecution:
    def test_one_result_per_query(self, engine):
        results = engine.execute(QUERIES, delta_req=0.1, sink=0)
        assert len(results) == len(QUERIES)
        for query, result in zip(QUERIES, results):
            assert result.query is query

    def test_every_query_accurate(self, engine, small_dataset):
        results = engine.execute(QUERIES, delta_req=0.1, sink=0)
        n = small_dataset.num_tuples
        total_sum = small_dataset.total_sum()
        for query, result in zip(QUERIES, results):
            truth = evaluate_exact(query, small_dataset.databases)
            scale = n if query.agg.value == "COUNT" else total_sum
            assert abs(result.estimate - truth) / scale <= 0.1

    def test_avg_in_batch(self, engine, small_dataset):
        results = engine.execute(
            QUERIES + [AVG_HIGH], delta_req=0.1, sink=0
        )
        truth = evaluate_exact(AVG_HIGH, small_dataset.databases)
        assert results[-1].estimate == pytest.approx(truth, rel=0.1)

    def test_shared_cost(self, engine):
        results = engine.execute(QUERIES, delta_req=0.1, sink=0)
        costs = {id(result.cost) for result in results}
        assert len(costs) == 1  # one shared ledger snapshot

    def test_batch_cheaper_than_sequential(
        self, small_network, small_dataset
    ):
        config = TwoPhaseConfig(max_phase_two_peers=400)
        batch = BatchEngine(small_network, config, seed=6)
        batch_cost = batch.execute(
            QUERIES, delta_req=0.1, sink=0
        )[0].cost
        sequential_visits = 0
        for query in QUERIES:
            single = TwoPhaseEngine(small_network, config, seed=6)
            sequential_visits += single.execute(
                query, delta_req=0.1, sink=0
            ).cost.peers_visited
        assert batch_cost.peers_visited < sequential_visits

    def test_phase_two_sized_by_hardest(self, engine):
        results = engine.execute(QUERIES, delta_req=0.03, sink=0)
        if results[0].phase_two is not None:
            sizes = {
                result.phase_two.peers_visited
                for result in results
                if result.phase_two is not None
            }
            # Every query receives the same (max) phase-II sample.
            assert len(sizes) == 1

    def test_empty_batch_rejected(self, engine):
        with pytest.raises(ConfigurationError):
            engine.execute([], delta_req=0.1)

    def test_median_rejected(self, engine):
        with pytest.raises(ConfigurationError):
            engine.execute(
                [parse_query("SELECT MEDIAN(A) FROM T")], delta_req=0.1
            )

    def test_group_by_rejected(self, engine, small_network):

        grouped = parse_query("SELECT COUNT(A) FROM T GROUP BY G")
        with pytest.raises(ConfigurationError):
            engine.execute([grouped], delta_req=0.1)

    def test_deterministic(self, small_network):
        config = TwoPhaseConfig(max_phase_two_peers=400)
        a = BatchEngine(small_network, config, seed=9).execute(
            QUERIES, delta_req=0.1, sink=0
        )
        b = BatchEngine(small_network, config, seed=9).execute(
            QUERIES, delta_req=0.1, sink=0
        )
        assert [r.estimate for r in a] == [r.estimate for r in b]


class TestDegradedReporting:
    """A batch that loses observations says so, per query."""

    @staticmethod
    def _run(
        small_topology,
        small_dataset,
        simulator_class=NetworkSimulator,
        **extra,
    ):
        simulator = simulator_class(
            small_topology, small_dataset.databases, seed=7, **extra
        )
        config = TwoPhaseConfig(max_phase_two_peers=400)
        return config, BatchEngine(simulator, config, seed=5).execute(
            QUERIES, delta_req=0.1, sink=0
        )

    def test_clean_run_receives_what_it_requested(
        self, small_topology, small_dataset
    ):
        config, results = self._run(small_topology, small_dataset)
        for result in results:
            assert result.requested_sample_size >= config.phase_one_peers
            assert result.effective_sample_size == result.requested_sample_size
            assert result.effective_sample_size == result.total_peers_visited
            assert not result.degraded
            assert result.timing is None

    def test_phase_reports_carry_the_hops_walked(
        self, small_topology, small_dataset
    ):
        """Each phase reports the hops its walk took; on a clean run
        they add up to the ledger's (they used to read 0)."""
        _, results = self._run(small_topology, small_dataset)
        for result in results:
            assert result.phase_two is not None
            assert result.phase_one.hops > 0
            assert (
                result.phase_one.hops + result.phase_two.hops
                == result.cost.hops
            )

    def test_lost_replies_are_reported(self, small_topology, small_dataset):
        _, results = self._run(
            small_topology,
            small_dataset,
            fault_plan=FaultPlan(seed=7, reply_loss=0.3),
        )
        for result in results:
            assert 0 < result.effective_sample_size
            assert result.effective_sample_size < result.requested_sample_size
            assert result.effective_sample_size == result.total_peers_visited
            assert result.degraded

    def test_a_timed_session_reports_timing(
        self, small_topology, small_dataset
    ):
        _, results = self._run(
            small_topology,
            small_dataset,
            simulator_class=EventDrivenSimulator,
            latency=LatencyModel(seed=3, reply=ConstantLatency(5.0)),
        )
        timings = {result.timing for result in results}
        assert len(timings) == 1  # the batch ran once
        assert timings.pop().duration_ms > 0.0


def _panel_replies(network, peer, queries, **kwargs):
    """``peer``'s reply to each query of a panel visit."""
    ledger = kwargs.pop("ledger", None) or network.new_ledger()
    panel = network.visit_batch(
        [peer], PanelVisits(network, queries, 1, **kwargs), ledger
    )
    return [next(iter(sample)) for sample in panel.samples]


class TestMultiVisit:
    def test_one_visit_many_replies(self, small_network):
        ledger = small_network.new_ledger()
        replies = _panel_replies(
            small_network, 0, QUERIES, ledger=ledger, tuples_per_peer=25
        )
        assert len(replies) == 3
        cost = ledger.snapshot()
        assert cost.peers_visited == 1       # one visit overhead
        assert cost.messages == 3            # but three replies
        # All replies describe the same sub-sample.
        assert len({r.processed_tuples for r in replies}) == 1

    def test_queries_evaluated_on_same_sample(self, small_network):
        """Two complementary COUNTs on one sub-sample partition it."""
        low = parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 50")
        high = parse_query(
            "SELECT COUNT(A) FROM T WHERE A BETWEEN 51 AND 100"
        )
        replies = _panel_replies(
            small_network, 0, [low, high], tuples_per_peer=25
        )
        total = replies[0].matching_count + replies[1].matching_count
        assert total == pytest.approx(replies[0].local_tuples)

    @pytest.mark.parametrize("tuples_per_peer", [0, 7, 25])
    def test_each_reply_is_the_scalar_visits_reply(
        self, small_network, tuples_per_peer
    ):
        """One Visit arithmetic: under the same seed, a panel's reply
        for each query equals :meth:`visit_aggregate`'s, field for
        field and bit for bit."""
        panel = [*QUERIES, AVG_HIGH]
        for peer in range(small_network.num_peers):
            multi = _panel_replies(
                small_network, peer, panel,
                tuples_per_peer=tuples_per_peer, seed=peer,
            )
            for query, reply in zip(panel, multi):
                scalar = small_network.visit_aggregate(
                    peer, query, sink=1, ledger=small_network.new_ledger(),
                    tuples_per_peer=tuples_per_peer, seed=peer,
                )
                assert reply == scalar

    def test_empty_queries_rejected(self, small_network):
        with pytest.raises(ConfigurationError):
            small_network.visit_batch(
                [0], PanelVisits(small_network, [], 1),
                small_network.new_ledger(),
            )


class TestRetryPolicy:
    def test_a_panel_under_the_chaos_plan_retries(
        self, small_topology, small_dataset
    ):
        """Regression: the batch engine ignored
        ``TwoPhaseConfig.retry_policy`` — a panel under the chaos plan
        never retried, substituted or waited a backoff, and lost every
        probe that failed.  It now recovers as the two-phase engine
        does."""
        runs = []
        for policy in (None, RetryPolicy(max_attempts=3)):
            network = NetworkSimulator(
                small_topology, small_dataset.databases, seed=7,
                fault_plan=CHAOS_PLAN,
            )
            tracer = Tracer()
            with tracing(tracer):
                results = BatchEngine(
                    network, TwoPhaseConfig(retry_policy=policy), seed=5
                ).execute(QUERIES, delta_req=0.1, sink=0)
            runs.append((results[0], tracer.events))
        (plain, plain_events), (resilient, resilient_events) = runs
        assert not [e for e in plain_events if e.kind == "retry"]
        retries = [e for e in resilient_events if e.kind == "retry"]
        assert retries and sum(e.backoff_ms for e in retries) > 0.0
        assert any(e.kind == "substitute" for e in resilient_events)
        assert (
            resilient.effective_sample_size >= plain.effective_sample_size
        )


class TestCurrency:
    """A clean panel travels as one :class:`PanelSample` of columnar
    samples from the visit to the estimate: it builds no
    ``AggregateReply``.  Counts repeat exactly — re-boxing the panel
    into per-peer objects fails here without a stopwatch."""

    def test_clean_panel_builds_no_reply_objects(
        self, small_network, monkeypatch
    ):
        constructed = []
        original = AggregateReply.__init__

        def counting(self, *args, **kwargs):
            constructed.append(kwargs.get("source"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(AggregateReply, "__init__", counting)
        # The patch is live: a scalar visit trips it.
        small_network.visit_aggregate(
            0, QUERIES[0], sink=0, ledger=small_network.new_ledger()
        )
        assert constructed == [0]
        constructed.clear()

        results = BatchEngine(
            small_network, TwoPhaseConfig(max_phase_two_peers=400), seed=5
        ).execute(QUERIES, delta_req=0.1, sink=0)
        assert results[0].phase_two is not None
        assert constructed == []
