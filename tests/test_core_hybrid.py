"""Tests for the hybrid pre-computation engine (§6 open problem 1)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.hybrid import (
    CachedPlan,
    HybridEngine,
    PlanCache,
    RetainedSample,
)
from repro.core.two_phase import TwoPhaseConfig
from repro.errors import ConfigurationError
from repro.network.faults import FaultPlan
from repro.network.generators import power_law_topology
from repro.network.protocol import AggregateReply, AggregateSample
from repro.network.simulator import NetworkSimulator
from repro.obs import Tracer, tracing
from repro.query.exact import evaluate_exact
from repro.query.parser import parse_query

COUNT_30 = parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30")
SUM_ALL = parse_query("SELECT SUM(A) FROM T")


@pytest.fixture()
def engine(small_network):
    return HybridEngine(
        small_network,
        TwoPhaseConfig(max_phase_two_peers=400),
        seed=7,
    )


class TestConstruction:
    def test_validation(self, small_network):
        with pytest.raises(ConfigurationError):
            HybridEngine(small_network, max_age=0)
        with pytest.raises(ConfigurationError):
            HybridEngine(small_network, decay=1.0)
        with pytest.raises(ConfigurationError):
            HybridEngine(small_network, decay=-0.1)


class TestCaching:
    def test_first_run_is_cold(self, engine):
        engine.execute(COUNT_30, 0.1, sink=0)
        assert engine.cold_runs == 1
        assert engine.warm_runs == 0
        assert engine.cached_plan(COUNT_30) is not None

    def test_repeat_runs_are_warm(self, engine):
        for _ in range(4):
            engine.execute(COUNT_30, 0.1, sink=0)
        assert engine.cold_runs == 1
        assert engine.warm_runs == 3

    def test_signatures_are_separate(self, engine):
        engine.execute(COUNT_30, 0.1, sink=0)
        engine.execute(SUM_ALL, 0.1, sink=0)
        assert engine.cold_runs == 2
        assert engine.cached_plan(COUNT_30) is not engine.cached_plan(
            SUM_ALL
        )

    def test_invalidate_one(self, engine):
        engine.execute(COUNT_30, 0.1, sink=0)
        engine.invalidate(COUNT_30)
        assert engine.cached_plan(COUNT_30) is None
        engine.execute(COUNT_30, 0.1, sink=0)
        assert engine.cold_runs == 2

    def test_invalidate_all(self, engine):
        engine.execute(COUNT_30, 0.1, sink=0)
        engine.execute(SUM_ALL, 0.1, sink=0)
        engine.invalidate()
        assert engine.cached_plan(COUNT_30) is None
        assert engine.cached_plan(SUM_ALL) is None

    def test_max_age_forces_cold_refresh(self, small_network):
        engine = HybridEngine(
            small_network,
            TwoPhaseConfig(max_phase_two_peers=400),
            seed=7,
            max_age=2,
        )
        for _ in range(5):
            engine.execute(COUNT_30, 0.1, sink=0)
        assert engine.cold_runs >= 2

    def test_plan_refreshes_statistics(self, engine):
        engine.execute(COUNT_30, 0.1, sink=0)
        before = engine.cached_plan(COUNT_30).mean_squared_cv_error
        engine.execute(COUNT_30, 0.1, sink=0)
        plan = engine.cached_plan(COUNT_30)
        assert plan.uses == 1
        # Refreshed statistics blend; exact equality would mean the
        # refresh never happened.
        assert plan.mean_squared_cv_error != before


class TestStepwiseValidation:
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_zero_chunk_peers_raises_on_the_first_advance(
        self, engine, warm
    ):
        """A warm plan used to reach the chunk loop unvalidated and
        spin on empty takes; it now raises before the plan cache, the
        engine's counters or the tracer see the query."""
        if warm:
            engine.execute(COUNT_30, 0.1, sink=0)
        before = (
            engine.cache.hits, engine.cache.misses,
            engine.cold_runs, engine.warm_runs,
        )
        tracer = Tracer()
        steps = engine.run_stepwise(COUNT_30, 0.1, sink=0, chunk_peers=0)
        with tracing(tracer):
            with pytest.raises(
                ConfigurationError, match="chunk_peers must be >= 1"
            ):
                next(steps)
        assert before == (
            engine.cache.hits, engine.cache.misses,
            engine.cold_runs, engine.warm_runs,
        )
        assert tracer.events == []


class TestAccuracyAndCost:
    def test_warm_runs_stay_accurate(self, engine, small_dataset):
        truth = evaluate_exact(COUNT_30, small_dataset.databases)
        n = small_dataset.num_tuples
        errors = []
        for _ in range(8):
            result = engine.execute(COUNT_30, 0.1, sink=0)
            errors.append(abs(result.estimate - truth) / n)
        assert np.mean(errors[1:]) <= 0.1  # warm runs

    def test_warm_runs_cost_no_more_than_cold(self, engine):
        cold = engine.execute(COUNT_30, 0.1, sink=0)
        warm_costs = [
            engine.execute(COUNT_30, 0.1, sink=0).total_peers_visited
            for _ in range(4)
        ]
        assert np.mean(warm_costs) <= cold.total_peers_visited

    def test_warm_result_shape(self, engine):
        engine.execute(COUNT_30, 0.1, sink=0)
        warm = engine.execute(COUNT_30, 0.1, sink=0)
        assert warm.phase_two is None
        assert warm.confidence_interval.half_width > 0
        assert warm.cost.peers_visited == warm.total_peers_visited


class TestWarmResultContract:
    """Warm runs honour the same result contract as cold runs."""

    def test_warm_result_carries_degradation_fields(self, small_network):
        """Regression: `_warm` used to drop the degraded-result
        contract entirely — under reply loss the warm result said
        nothing about how far short of the plan its sample fell."""
        faulty = NetworkSimulator(
            small_network.topology,
            small_network.databases(),
            seed=7,
            fault_plan=FaultPlan(seed=3, reply_loss=0.5),
        )
        engine = HybridEngine(
            faulty, TwoPhaseConfig(max_phase_two_peers=200), seed=7
        )
        engine.execute(COUNT_30, 0.1, sink=0)  # cold, fills the cache
        warm = engine.execute(COUNT_30, 0.1, sink=0)
        assert engine.warm_runs == 1
        assert warm.requested_sample_size > 0
        assert 0 < warm.effective_sample_size <= warm.requested_sample_size
        # At 50% reply loss a full sample is (deterministically, for
        # this seed) impossible — the degradation must be flagged.
        assert warm.effective_sample_size < warm.requested_sample_size
        assert warm.degraded

    def test_warm_result_reports_planning_scale(self, engine):
        """Regression: the warm path sized its walk from the
        pre-refresh `plan.scale` but reported the post-refresh mutated
        scale, so `result.scale * delta_req` no longer equalled the
        absolute target the walk was planned for.

        SUM's scale is a sample-dependent column-sum estimate (COUNT's
        is exact under this uniform placement), so the warm refresh
        provably moves it.
        """
        engine.execute(SUM_ALL, 0.1, sink=0)
        planning_scale = engine.cached_plan(SUM_ALL).scale
        warm = engine.execute(SUM_ALL, 0.1, sink=0)
        # Exact equality: the reported scale *is* the planning scale,
        # so absolute_target == result.scale * delta_req bit for bit.
        assert warm.scale == planning_scale
        # The refresh did happen — the cache moved on; only the
        # *report* sticks to planning time.
        assert engine.cached_plan(SUM_ALL).scale != planning_scale

    def test_churned_population_is_a_cold_miss(self, small_dataset):
        """Regression: the cache never auto-invalidated under churn —
        a plan learned on one population silently served another."""
        cache = PlanCache()
        config = TwoPhaseConfig(max_phase_two_peers=200)
        big = NetworkSimulator(
            power_law_topology(200, 800, seed=7),
            small_dataset.databases,
            seed=7,
        )
        first = HybridEngine(big, config, seed=7, cache=cache)
        first.execute(COUNT_30, 0.1, sink=0)
        assert first.cold_runs == 1

        small = NetworkSimulator(
            power_law_topology(150, 600, seed=11),
            small_dataset.databases[:150],
            seed=13,
        )
        second = HybridEngine(small, config, seed=7, cache=cache)
        second.execute(COUNT_30, 0.1, sink=0)
        assert second.cold_runs == 1
        assert second.warm_runs == 0
        assert cache.churn_invalidations == 1
        # The replacement entry is stamped with the new population.
        plan = second.cached_plan(COUNT_30)
        assert (plan.num_peers, plan.num_edges) == (150, 600)

    def test_rebind_rebuilds_estimator_for_new_population(
        self, small_dataset
    ):
        engine = HybridEngine(
            NetworkSimulator(
                power_law_topology(200, 800, seed=7),
                small_dataset.databases,
                seed=7,
            ),
            TwoPhaseConfig(max_phase_two_peers=200),
            seed=7,
        )
        engine.execute(COUNT_30, 0.1, sink=0)
        engine.rebind(
            NetworkSimulator(
                power_law_topology(150, 600, seed=11),
                small_dataset.databases[:150],
                seed=13,
            )
        )
        result = engine.execute(COUNT_30, 0.1, sink=0)
        # The stale plan cold-missed; the run against the new
        # population still produces a sane estimate.
        assert engine.cold_runs == 2
        assert result.estimate > 0


class TestPlanCache:
    def test_lookup_counters(self):
        cache = PlanCache()
        assert cache.lookup("q", 10, 20, max_age=5) is None
        assert cache.misses == 1
        cache.store("q", CachedPlan(1.0, 10, 100.0, num_peers=10,
                                    num_edges=20))
        assert cache.lookup("q", 10, 20, max_age=5) is not None
        assert cache.hits == 1
        assert len(cache) == 1

    def test_population_mismatch_drops_entry(self):
        cache = PlanCache()
        cache.store("q", CachedPlan(1.0, 10, 100.0, num_peers=10,
                                    num_edges=20))
        assert cache.lookup("q", 11, 20, max_age=5) is None
        assert cache.churn_invalidations == 1
        assert cache.get("q") is None  # dropped, not just skipped

    def test_unknown_population_never_mismatches(self):
        cache = PlanCache()
        cache.store("q", CachedPlan(1.0, 10, 100.0))
        assert cache.lookup("q", 999, 999, max_age=5) is not None

    def test_expiry_leaves_entry_for_cold_replacement(self):
        cache = PlanCache()
        cache.store("q", CachedPlan(1.0, 10, 100.0, uses=5))
        assert cache.lookup("q", 0, 0, max_age=5) is None
        assert cache.expirations == 1
        assert cache.get("q") is not None

    def test_invalidate(self):
        cache = PlanCache()
        cache.store("a", CachedPlan(1.0, 10, 100.0))
        cache.store("b", CachedPlan(1.0, 10, 100.0))
        cache.invalidate("a")
        assert cache.get("a") is None and cache.get("b") is not None
        cache.invalidate()
        assert len(cache) == 0


class TestCachedPlan:
    def test_refresh_blends(self):
        plan = CachedPlan(
            mean_squared_cv_error=10.0, half_size=20, scale=100.0
        )
        plan.refresh(squared_cv=20.0, scale=200.0, decay=0.5)
        assert plan.mean_squared_cv_error == 15.0
        assert plan.scale == 150.0

    def test_matches_population(self):
        stamped = CachedPlan(1.0, 10, 100.0, num_peers=5, num_edges=9)
        assert stamped.matches_population(5, 9)
        assert not stamped.matches_population(5, 10)
        assert CachedPlan(1.0, 10, 100.0).matches_population(5, 9)


class TestRetainedSurvivors:
    """The delta path's remap — a filter and two column writes — against
    the per-reply ``dataclasses.replace`` loop it replaced."""

    @staticmethod
    def reference(labels, replies, vertex_of, degrees):
        survivors = []
        for label, reply in zip(labels, replies):
            vertex = vertex_of.get(label)
            if vertex is None or degrees[vertex] == 0:
                continue
            survivors.append(
                dataclasses.replace(
                    reply, source=vertex, degree=int(degrees[vertex])
                )
            )
        return survivors

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 30),  # the peer's stable label
                st.floats(0, 1e6, allow_nan=False),
                st.integers(0, 500),
            ),
            min_size=1,
            max_size=25,
        ),
        st.lists(st.integers(0, 4), min_size=1, max_size=31),
        st.integers(0, 2**31),
    )
    @example([(5, 1.0, 10), (9, 2.0, 0)], [1, 1], 0)  # all gone
    @example([(0, 1.0, 10), (1, 2.0, 3)], [0, 2], 1)  # an isolated survivor
    @settings(max_examples=80, deadline=None)
    def test_array_remap_equals_the_per_reply_loop(
        self, sampled, new_degrees, seed
    ):
        """Labels past the new epoch's size have departed, a degree of
        0 is an isolated survivor, and small epochs lose everyone."""
        replies = [
            AggregateReply(
                source=position,
                destination=3,
                aggregate_value=value,
                matching_count=value / 2,
                column_total=value * 2,
                contribution_variance=value / 7,
                degree=9,
                local_tuples=tuples,
                processed_tuples=min(tuples, 25),
            )
            for position, (_, value, tuples) in enumerate(sampled)
        ]
        labels = tuple(label for label, _, _ in sampled)
        retained = RetainedSample(
            sink_label=0,
            labels=labels,
            replies=AggregateSample.from_replies(replies, 3),
        )
        # The new epoch: the first len(new_degrees) labels, shuffled
        # onto new vertex ids.
        live = np.random.default_rng(seed).permutation(len(new_degrees))
        vertex_of = {
            label: vertex for vertex, label in enumerate(live.tolist())
        }
        degrees = np.asarray(new_degrees, dtype=np.int64)

        survivors = retained.survivors(vertex_of, degrees)
        expected = self.reference(labels, replies, vertex_of, degrees)
        assert survivors.probability is None
        assert [
            dataclasses.replace(reply, message_id=0)
            for reply in survivors
        ] == [dataclasses.replace(reply, message_id=0) for reply in expected]
