"""Integration tests for the two-phase engine (the paper's algorithm)."""

import copy
import json

import numpy as np
import pytest

from repro.core.hybrid import HybridEngine
from repro.core.two_phase import (
    TwoPhaseConfig,
    TwoPhaseEngine,
    drain_steps,
)
from repro.data.localdb import LocalDatabase
from repro.errors import ConfigurationError, SamplingError
from repro.network.protocol import AggregateReply
from repro.network.simulator import NetworkSimulator
from repro.obs import Tracer, tracing
from repro.query.exact import evaluate_exact
from repro.query.model import AggregateOp, AggregationQuery
from repro.query.parser import parse_query

COUNT_30 = parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30")
SUM_ALL = parse_query("SELECT SUM(A) FROM T")
AVG_ALL = parse_query("SELECT AVG(A) FROM T")


class TestTwoPhaseConfig:
    def test_defaults(self):
        config = TwoPhaseConfig()
        assert config.phase_one_peers == 40
        assert config.tuples_per_peer == 25
        assert config.jump == 10

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TwoPhaseConfig(phase_one_peers=3)
        with pytest.raises(ConfigurationError):
            TwoPhaseConfig(tuples_per_peer=-1)
        with pytest.raises(ConfigurationError):
            TwoPhaseConfig(cross_validation_rounds=0)
        with pytest.raises(ConfigurationError):
            TwoPhaseConfig(sampling_method="psychic")
        with pytest.raises(ConfigurationError):
            TwoPhaseConfig(max_phase_two_peers=-1)

    def test_from_initial_sample_size(self):
        config = TwoPhaseConfig.from_initial_sample_size(
            1000, tuples_per_peer=25
        )
        assert config.phase_one_peers == 40

    def test_from_initial_sample_size_floor(self):
        config = TwoPhaseConfig.from_initial_sample_size(
            10, tuples_per_peer=25
        )
        assert config.phase_one_peers == 4

    def test_from_initial_needs_positive_t(self):
        with pytest.raises(ConfigurationError):
            TwoPhaseConfig.from_initial_sample_size(100, tuples_per_peer=0)

    def test_walk_config(self):
        config = TwoPhaseConfig(jump=7, walk_variant="lazy")
        walk = config.walk_config()
        assert walk.jump == 7
        assert walk.variant == "lazy"


class TestExecution:
    def test_count_within_requirement(self, small_network, small_dataset):
        engine = TwoPhaseEngine(small_network, seed=1)
        result = engine.execute(COUNT_30, delta_req=0.1, sink=0)
        truth = evaluate_exact(COUNT_30, small_dataset.databases)
        error = abs(result.estimate - truth) / small_dataset.num_tuples
        assert error <= 0.1

    def test_sum_within_requirement(self, small_network, small_dataset):
        engine = TwoPhaseEngine(small_network, seed=2)
        result = engine.execute(SUM_ALL, delta_req=0.1, sink=0)
        truth = evaluate_exact(SUM_ALL, small_dataset.databases)
        error = abs(result.estimate - truth) / small_dataset.total_sum()
        assert error <= 0.1

    def test_avg_close_to_truth(self, small_network, small_dataset):
        engine = TwoPhaseEngine(small_network, seed=3)
        result = engine.execute(AVG_ALL, delta_req=0.1, sink=0)
        truth = evaluate_exact(AVG_ALL, small_dataset.databases)
        assert result.estimate == pytest.approx(truth, rel=0.25)

    def test_median_rejected(self, small_network):
        engine = TwoPhaseEngine(small_network, seed=1)
        query = AggregationQuery(agg=AggregateOp.MEDIAN, column="A")
        with pytest.raises(ConfigurationError):
            engine.execute(query, delta_req=0.1)

    def test_result_structure(self, small_network):
        engine = TwoPhaseEngine(small_network, seed=4)
        result = engine.execute(COUNT_30, delta_req=0.15, sink=0)
        assert result.query is COUNT_30
        assert result.delta_req == 0.15
        assert result.scale > 0
        assert result.phase_one.peers_visited == 40
        assert result.phase_one.tuples_sampled > 0
        assert result.cost.peers_visited == result.total_peers_visited
        assert result.confidence_interval.half_width > 0

    def test_phase_two_runs_when_needed(self, small_network):
        config = TwoPhaseConfig(phase_one_peers=8)
        engine = TwoPhaseEngine(small_network, config=config, seed=5)
        result = engine.execute(COUNT_30, delta_req=0.02, sink=0)
        assert result.phase_two is not None
        assert result.phase_two.peers_visited > 0

    def test_phase_two_skipped_when_sample_suffices(self, regular_topology):
        """Identical partitions on a regular graph make every ratio
        equal, so CVError = 0 and phase II must be skipped."""
        from repro.data.localdb import LocalDatabase
        from repro.network.simulator import NetworkSimulator

        databases = [
            LocalDatabase({"A": np.full(20, 10)})
            for _ in range(regular_topology.num_peers)
        ]
        network = NetworkSimulator(regular_topology, databases, seed=1)
        engine = TwoPhaseEngine(network, seed=6)
        result = engine.execute(COUNT_30, delta_req=0.5, sink=0)
        assert result.phase_two is None

    def test_tighter_delta_costs_more(self, small_network):
        def total_sampled(delta, seed):
            engine = TwoPhaseEngine(small_network, seed=seed)
            return engine.execute(
                COUNT_30, delta_req=delta, sink=0
            ).total_tuples_sampled

        loose = np.mean([total_sampled(0.25, s) for s in range(5)])
        tight = np.mean([total_sampled(0.03, s) for s in range(5)])
        assert tight > loose

    def test_random_sink_when_omitted(self, small_network):
        engine = TwoPhaseEngine(small_network, seed=7)
        result = engine.execute(COUNT_30, delta_req=0.2)
        assert result.estimate > 0

    def test_pool_phases_false_uses_phase_two_only(self, small_network):
        config = TwoPhaseConfig(
            phase_one_peers=8, pool_phases=False
        )
        engine = TwoPhaseEngine(small_network, config=config, seed=8)
        result = engine.execute(COUNT_30, delta_req=0.05, sink=0)
        assert result.phase_two is not None
        assert result.estimate == pytest.approx(
            result.phase_two.estimate
        )

    def test_avg_survives_a_matchless_phase_two(self, small_network):
        """A phase-II sample of a few peers may see no matching tuple
        while the pooled sample does.  Its per-phase estimate is a
        diagnostic: it is reported as ``None``, it does not kill the
        query — unless phase II alone is what the answer is built from."""
        selective = parse_query(
            "SELECT AVG(A) FROM T WHERE A BETWEEN 29 AND 30"
        )
        engine = TwoPhaseEngine(small_network.session(seed=4), seed=4)
        tracer = Tracer()
        with tracing(tracer):
            result = engine.execute(selective, 0.1, sink=4)
        assert result.phase_two is not None
        assert result.phase_two.peers_visited > 0
        assert result.phase_two.estimate is None
        assert 29.0 <= result.estimate <= 30.0
        phase_ends = [
            event for event in map(json.loads, tracer.lines)
            if event["kind"] == "phase" and event["status"] == "end"
        ]
        assert [(e["phase"], e["estimate"] is None) for e in phase_ends] == [
            ("one", False), ("analysis", True), ("two", True),
        ]
        literal = TwoPhaseEngine(
            small_network.session(seed=4),
            config=TwoPhaseConfig(pool_phases=False),
            seed=4,
        )
        with pytest.raises(SamplingError, match="AVG undefined"):
            literal.execute(selective, 0.1, sink=4)

    def test_deterministic_given_seed(self, small_network):
        a = TwoPhaseEngine(small_network, seed=99).execute(
            COUNT_30, delta_req=0.1, sink=0
        )
        b = TwoPhaseEngine(small_network, seed=99).execute(
            COUNT_30, delta_req=0.1, sink=0
        )
        assert a.estimate == b.estimate

    def test_block_sampling_method(self, small_network, small_dataset):
        config = TwoPhaseConfig(sampling_method="block")
        engine = TwoPhaseEngine(small_network, config=config, seed=9)
        result = engine.execute(COUNT_30, delta_req=0.1, sink=0)
        truth = evaluate_exact(COUNT_30, small_dataset.databases)
        error = abs(result.estimate - truth) / small_dataset.num_tuples
        assert error <= 0.1

    def test_cost_accounting_hops_match_walks(self, small_network):
        config = TwoPhaseConfig(jump=5)
        engine = TwoPhaseEngine(small_network, config=config, seed=10)
        result = engine.execute(COUNT_30, delta_req=0.2, sink=0)
        expected_hops = result.phase_one.hops
        if result.phase_two:
            expected_hops += result.phase_two.hops
        assert result.cost.hops == expected_hops

    def test_analyze_only(self, small_network):
        engine = TwoPhaseEngine(small_network, seed=11)
        analysis = engine.analyze_only(COUNT_30, delta_req=0.1, sink=0)
        assert analysis.estimate > 0
        assert analysis.plan.tuples_per_peer == 25

    def test_self_inclusive_variant_still_accurate(
        self, small_network, small_dataset
    ):
        config = TwoPhaseConfig(walk_variant="self-inclusive")
        engine = TwoPhaseEngine(small_network, config=config, seed=12)
        result = engine.execute(COUNT_30, delta_req=0.1, sink=0)
        truth = evaluate_exact(COUNT_30, small_dataset.databases)
        error = abs(result.estimate - truth) / small_dataset.num_tuples
        assert error <= 0.1

    def test_result_str(self, small_network):
        engine = TwoPhaseEngine(small_network, seed=13)
        result = engine.execute(COUNT_30, delta_req=0.2, sink=0)
        text = str(result)
        assert "COUNT" in text
        assert "peers" in text


class TestStatisticalGuarantee:
    def test_error_within_delta_most_of_the_time(
        self, small_network, small_dataset
    ):
        """Across independent runs, the normalized error should sit
        within delta_req in the vast majority of cases."""
        truth = evaluate_exact(COUNT_30, small_dataset.databases)
        n = small_dataset.num_tuples
        within = 0
        runs = 20
        for seed in range(runs):
            engine = TwoPhaseEngine(small_network, seed=seed)
            result = engine.execute(COUNT_30, delta_req=0.1)
            if abs(result.estimate - truth) / n <= 0.1:
                within += 1
        assert within >= runs - 2


class TestDistinctPeersAndRiskFlag:
    def test_distinct_peers_mode(self, small_network):
        config = TwoPhaseConfig(distinct_peers=True, max_phase_two_peers=50)
        engine = TwoPhaseEngine(small_network, config=config, seed=21)
        result = engine.execute(COUNT_30, delta_req=0.1, sink=0)
        assert result.estimate > 0
        # With replacement disabled, phase I visits 40 distinct peers.
        assert result.cost.distinct_peers >= 40

    def test_accuracy_at_risk_flag(self, small_network):
        config = TwoPhaseConfig(max_phase_two_peers=1)
        engine = TwoPhaseEngine(small_network, config=config, seed=22)
        result = engine.execute(COUNT_30, delta_req=0.005, sink=0)
        assert result.accuracy_at_risk

    def test_not_at_risk_when_uncapped(self, small_network):
        config = TwoPhaseConfig(max_phase_two_peers=10_000)
        engine = TwoPhaseEngine(small_network, config=config, seed=23)
        result = engine.execute(COUNT_30, delta_req=0.2, sink=0)
        assert not result.accuracy_at_risk


class TestStepwiseExecution:
    """`run_stepwise` is `execute` cut at chunk boundaries."""

    QUERY = parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30")

    def test_drained_stepwise_equals_execute(self, small_network):
        reference = TwoPhaseEngine(
            small_network, TwoPhaseConfig(max_phase_two_peers=200), seed=3
        ).execute(self.QUERY, 0.1, sink=0)
        stepped = drain_steps(
            TwoPhaseEngine(
                small_network,
                TwoPhaseConfig(max_phase_two_peers=200),
                seed=3,
            ).run_stepwise(self.QUERY, 0.1, sink=0)
        )
        assert stepped.estimate == reference.estimate
        assert stepped.cost == reference.cost

    def test_chunked_estimate_matches_unchunked(self, small_network):
        def run(chunk_peers):
            return drain_steps(
                TwoPhaseEngine(
                    small_network,
                    TwoPhaseConfig(max_phase_two_peers=200),
                    seed=3,
                ).run_stepwise(
                    self.QUERY, 0.1, sink=0, chunk_peers=chunk_peers
                )
            )

        whole = run(None)
        chunked = run(5)
        assert chunked.estimate == whole.estimate
        assert chunked.cost.hops == whole.cost.hops
        assert chunked.cost.peers_visited == whole.cost.peers_visited

    def test_checkpoints_are_ordered_and_monotone(self, small_network):
        engine = TwoPhaseEngine(
            small_network, TwoPhaseConfig(max_phase_two_peers=200), seed=3
        )
        steps = engine.run_stepwise(self.QUERY, 0.1, sink=0, chunk_peers=6)
        phases = []
        collected = {}
        try:
            while True:
                checkpoint = next(steps)
                assert checkpoint.engine == "two-phase"
                if phases and phases[-1] != checkpoint.phase:
                    phases.append(checkpoint.phase)
                elif not phases:
                    phases.append(checkpoint.phase)
                previous = collected.get(checkpoint.phase, 0)
                assert checkpoint.collected >= previous
                collected[checkpoint.phase] = checkpoint.collected
        except StopIteration as stop:
            result = stop.value
        assert phases == ["one", "analysis", "two"]
        assert result.estimate > 0

    def test_chunk_peers_validated(self, small_network):
        engine = TwoPhaseEngine(small_network, seed=3)
        with pytest.raises(ConfigurationError):
            next(engine.run_stepwise(self.QUERY, 0.1, chunk_peers=0))

    @pytest.mark.parametrize("chunk_peers", [0, -2])
    def test_collect_stepwise_rejects_a_take_that_never_finishes(
        self, small_network, chunk_peers
    ):
        """``take = min(0, remaining)`` would yield empty checkpoints
        forever; the first advance raises instead, with the walker
        RNG, the ledger and the tracer untouched."""
        engine = TwoPhaseEngine(small_network, seed=3)
        ledger = small_network.new_ledger()
        tracer = Tracer()
        walker_state = engine._walker._rng.bit_generator.state
        steps = engine.collect_observations_stepwise(
            0, self.QUERY, 12, ledger, chunk_peers=chunk_peers
        )
        with tracing(tracer):
            with pytest.raises(
                ConfigurationError, match="chunk_peers must be >= 1"
            ):
                next(steps)
        assert engine._walker._rng.bit_generator.state == walker_state
        assert ledger.snapshot() == small_network.new_ledger().snapshot()
        assert tracer.events == []

    def test_drain_steps_returns_generator_value(self):
        def generator():
            yield "checkpoint"
            return 42

        assert drain_steps(generator()) == 42


class TestCurrency:
    """The sample's currency is columns: between a clean batch visit
    and the estimate no per-peer protocol object is built.  Counts
    repeat exactly — a refactor that re-boxes the hot path fails here
    without a stopwatch."""

    @pytest.fixture()
    def constructed(self, monkeypatch):
        """Every ``AggregateReply`` construction while the test runs."""
        calls = []
        original = AggregateReply.__init__

        def counting(self, *args, **kwargs):
            calls.append(kwargs.get("source"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(AggregateReply, "__init__", counting)
        return calls

    def test_cold_and_warm_runs_build_no_reply_objects(
        self, small_network, constructed
    ):
        # The patch is live: a scalar visit trips it.
        small_network.visit_aggregate(
            0, COUNT_30, sink=0, ledger=small_network.new_ledger()
        )
        assert constructed == [0]
        constructed.clear()

        two_phase = TwoPhaseEngine(small_network, seed=1)
        two_phase.execute(COUNT_30, delta_req=0.1, sink=0)
        hybrid = HybridEngine(small_network, seed=1)
        hybrid.execute(COUNT_30, delta_req=0.1, sink=0)
        hybrid.execute(COUNT_30, delta_req=0.1, sink=0)
        assert (hybrid.cold_runs, hybrid.warm_runs) == (1, 1)
        sample = two_phase.collect_observations(
            0, COUNT_30, 12, small_network.new_ledger()
        )
        assert constructed == []

        # Whoever wants the protocol objects materialises them, a
        # fresh one per row.
        replies = list(sample)
        assert len(constructed) == len(replies) == len(sample) > 0
        assert constructed == [reply.source for reply in replies]


class TestOneDrawPerCollection:
    """A clean query sub-samples a whole batch visit with one array
    draw: no per-peer ``uniform_sample_indices`` call, and the visit
    generator advances by exactly one double per row of every
    sub-sampled partition.  Counts repeat exactly — the per-peer draw
    loop coming back fails here without a stopwatch."""

    def test_cold_run_draws_keys_once_per_batch_visit(
        self, small_network, monkeypatch
    ):
        scalar_draws = []
        scalar_draw = LocalDatabase.uniform_sample_indices

        def counting(self, num_rows, seed=None):
            scalar_draws.append(num_rows)
            return scalar_draw(self, num_rows, seed=seed)

        monkeypatch.setattr(LocalDatabase, "uniform_sample_indices", counting)
        # The patch is live: a per-peer sub-sample trips it.
        small_network.database(0).sample(25, seed=0)
        assert scalar_draws == [25]
        scalar_draws.clear()

        batch_visit = NetworkSimulator.visit_aggregate_batch
        sub_sampled_rows = []

        def watching(self, peer_ids, *args, **kwargs):
            rng = kwargs["seed"]
            expected = copy.deepcopy(rng)
            sample = batch_visit(self, peer_ids, *args, **kwargs)
            sizes = sample["local_tuples"]
            rows = int(sizes[sizes > kwargs["tuples_per_peer"]].sum())
            expected.random(rows)
            assert rng.bit_generator.state == expected.bit_generator.state
            sub_sampled_rows.append(rows)
            return sample

        monkeypatch.setattr(NetworkSimulator, "visit_aggregate_batch", watching)
        TwoPhaseEngine(small_network, seed=1).execute(
            COUNT_30, delta_req=0.1, sink=0
        )
        assert scalar_draws == []
        # Phase I and phase II, every 50-row partition sub-sampled.
        assert len(sub_sampled_rows) == 2
        assert all(rows and rows % 50 == 0 for rows in sub_sampled_rows)
