"""Tests for hybrid pre-computation (§6 open problem 1): the plan
cache every two-phase engine can plan through."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.batch import BatchEngine
from repro.core.groupby import GroupByConfig, GroupByEngine
from repro.core.median import MedianConfig, MedianEngine
from repro.core.two_phase import (
    PLAN_CACHE_ENTRIES,
    CachedPlan,
    PlanCache,
    RetainedSample,
    TwoPhaseConfig,
    TwoPhaseEngine,
)
from repro.data.generator import DatasetConfig, generate_dataset
from repro.data.localdb import LocalDatabase
from repro.errors import ConfigurationError, SamplingError
from repro.network.churn import ChurnConfig
from repro.network.faults import FaultPlan
from repro.network.generators import power_law_topology
from repro.network.live import LiveNetwork
from repro.network.protocol import AggregateReply, AggregateSample
from repro.network.simulator import NetworkSimulator
from repro.network.walker import RetryPolicy
from repro.obs.tracer import Tracer, tracing
from repro.query.exact import evaluate_exact
from repro.query.parser import parse_query
from repro.sim.event_driven import EventDrivenSimulator
from repro.sim.latency import ExponentialLatency, LatencyModel, UniformLatency

COUNT_30 = parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30")
SUM_ALL = parse_query("SELECT SUM(A) FROM T")
AVG_60 = parse_query("SELECT AVG(A) FROM T WHERE A BETWEEN 1 AND 60")


def HybridEngine(
    simulator, config=None, seed=None, max_age=25, delta_reestimation=False
):
    """A :class:`TwoPhaseEngine` on a plan cache of its own: the
    engine :class:`TestPinnedByValue` was recorded with, built under
    the name it had then, so the pinned class stays as recorded."""
    cache = PlanCache(max_age, delta_reestimation=delta_reestimation)
    return TwoPhaseEngine(simulator, config, seed, cache=cache)


@pytest.fixture()
def engine(small_network):
    return TwoPhaseEngine(
        small_network,
        TwoPhaseConfig(max_phase_two_peers=400),
        seed=7,
        cache=PlanCache(),
    )


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PlanCache(max_age=0)
        with pytest.raises(ConfigurationError):
            PlanCache(decay=1.0)
        with pytest.raises(ConfigurationError):
            PlanCache(decay=-0.1)

    def test_a_shared_cache_carries_the_policy(self, small_network):
        """The policy lives on the cache, so engines sharing one serve
        under one policy: its ``max_age`` ages every sharer's plans,
        and an engine with no cache plans nothing."""
        shared = PlanCache(max_age=1)
        first, second = (
            TwoPhaseEngine(small_network, seed=seed, cache=shared)
            for seed in (7, 8)
        )
        assert first.cache is shared and second.cache is shared
        first.execute(COUNT_30, 0.1, sink=0)
        second.execute(COUNT_30, 0.1, sink=0)
        second.execute(COUNT_30, 0.1, sink=0)
        assert (second.cold_runs, second.warm_runs) == (1, 1)
        assert shared.expirations == 1
        plain = TwoPhaseEngine(small_network, seed=7)
        assert plain.cache is None
        assert plain.cached_plan(COUNT_30) is None


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
        engine.cache.invalidate(COUNT_30.to_sql())
        assert engine.cached_plan(COUNT_30) is None
        engine.execute(COUNT_30, 0.1, sink=0)
        assert engine.cold_runs == 2

    def test_invalidate_all(self, engine):
        engine.execute(COUNT_30, 0.1, sink=0)
        engine.execute(SUM_ALL, 0.1, sink=0)
        engine.cache.invalidate()
        assert engine.cached_plan(COUNT_30) is None
        assert engine.cached_plan(SUM_ALL) is None

    def test_max_age_forces_cold_refresh(self, small_network):
        engine = TwoPhaseEngine(
            small_network,
            TwoPhaseConfig(max_phase_two_peers=400),
            seed=7,
            cache=PlanCache(max_age=2),
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


class TestWarmInputChecks:
    """Warm and delta runs are the loop, so they pass its input checks
    first: a bad query is rejected before the plan cache is read."""

    @pytest.mark.parametrize(
        "delta_req", [0.0, -0.1, 1.5, float("nan")],
        ids=["zero", "negative", "above-one", "nan"],
    )
    def test_out_of_range_delta_raises_before_the_lookup(
        self, engine, delta_req
    ):
        engine.execute(COUNT_30, 0.1, sink=0)
        plan = engine.cached_plan(COUNT_30)

        def state():
            return (
                engine.cache.hits, engine.cache.misses, plan.uses,
                engine.cold_runs, engine.warm_runs,
            )

        before = state()
        tracer = Tracer()
        with tracing(tracer):
            with pytest.raises(SamplingError, match="delta_req"):
                engine.execute(COUNT_30, delta_req, sink=0)
        assert state() == before
        assert tracer.events == []


class TestPhaseBrackets:
    """Every phase a run starts, it ends — cold, warm and delta alike."""

    @staticmethod
    def assert_bracketed(tracer):
        open_phases = []
        for event in tracer.events:
            if event.kind != "phase":
                continue
            key = (event.engine, event.phase)
            if event.status == "start":
                open_phases.append(key)
            elif event.phase != "analysis":
                assert open_phases.pop() == key
        assert open_phases == []

    def test_warm_and_delta_phases_end(self):
        live = _pinned_live()
        engine = TwoPhaseEngine(
            live.snapshot(seed=11), TwoPhaseConfig(phase_one_peers=20),
            seed=7, cache=PlanCache(delta_reestimation=True),
        )
        engine.execute(SUM_ALL, 0.2)
        live.step(20)
        for network in (None, live.snapshot(seed=13)):
            if network is not None:
                engine.rebind(network)
            tracer = Tracer()
            with tracing(tracer):
                engine.execute(SUM_ALL, 0.2, sink=0)
            kinds = [
                (event.phase, event.status)
                for event in tracer.events if event.kind == "phase"
            ]
            self.assert_bracketed(tracer)
            phase = "warm" if network is None else "delta"
            assert kinds == [
                (phase, "start"), (phase, "end"), ("analysis", "end"),
            ]
        assert (engine.warm_runs, engine.delta_runs) == (1, 1)


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
        engine = TwoPhaseEngine(
            faulty, TwoPhaseConfig(max_phase_two_peers=200), seed=7,
            cache=PlanCache(),
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
        first = TwoPhaseEngine(big, config, seed=7, cache=cache)
        first.execute(COUNT_30, 0.1, sink=0)
        assert first.cold_runs == 1

        small = NetworkSimulator(
            power_law_topology(150, 600, seed=11),
            small_dataset.databases[:150],
            seed=13,
        )
        second = TwoPhaseEngine(small, config, seed=7, cache=cache)
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
        engine = TwoPhaseEngine(
            NetworkSimulator(
                power_law_topology(200, 800, seed=7),
                small_dataset.databases,
                seed=7,
            ),
            TwoPhaseConfig(max_phase_two_peers=200),
            seed=7,
            cache=PlanCache(),
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

    def test_entries_are_bounded_least_recently_used_first(self):
        cache = PlanCache()
        cache.store("panel", CachedPlan(1.0, 10, 100.0))
        for at in range(2 * PLAN_CACHE_ENTRIES):
            cache.store(f"adhoc {at}", CachedPlan(1.0, 10, 100.0))
            if at % 100 == 0:
                assert cache.lookup("panel", 0, 0, max_age=10**6)
        assert len(cache) == PLAN_CACHE_ENTRIES
        assert cache.get("panel") is not None
        assert cache.get("adhoc 0") is None
        assert cache.get(f"adhoc {2 * PLAN_CACHE_ENTRIES - 1}") is not None

    def test_restoring_an_entry_makes_it_most_recent(self):
        """Not FIFO: storing an existing signature again moves it to
        the back of the eviction order."""
        cache = PlanCache()
        for at in range(PLAN_CACHE_ENTRIES):
            cache.store(f"q {at}", CachedPlan(1.0, 10, 100.0))
        cache.store("q 0", CachedPlan(2.0, 10, 100.0))
        cache.store("one more", CachedPlan(1.0, 10, 100.0))
        assert cache.get("q 0") is not None
        assert cache.get("q 1") is None

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
        assert list(survivors) == expected


def _pinned_network(**extra):
    """A fresh simulator per scenario: a shared fixture's RNG state
    would make the pins depend on test order."""
    topology = power_law_topology(200, 800, seed=7)
    dataset = generate_dataset(
        topology,
        DatasetConfig(num_tuples=10_000, cluster_level=0.25, skew=0.2),
        seed=7,
    )
    simulator = extra.pop("simulator_class", NetworkSimulator)
    return simulator(topology, dataset.databases, seed=7, **extra)


def _pinned_live():
    topology = power_law_topology(120, 400, seed=2)
    rng = np.random.default_rng(3)
    databases = [
        LocalDatabase({"A": rng.integers(1, 101, 80)})
        for _ in range(topology.num_peers)
    ]
    return LiveNetwork(
        topology, databases,
        churn_config=ChurnConfig(join_rate=0.5, leave_rate=0.5), seed=5,
    )


def _pinned_run(engine, query, delta_req, sink=None, chunk_peers=None):
    """One traced run reduced to everything a refactor of the run may
    not move: the result, the plan and cache after it, the checkpoint
    count and the trace's walk/visit/fault events (phase, estimate and
    delta-reuse bookkeeping aside, ``seq`` dropped)."""
    tracer = Tracer()
    steps = engine.run_stepwise(
        query, delta_req, sink=sink, chunk_peers=chunk_peers
    )
    checkpoints = 0
    with tracing(tracer):
        while True:
            try:
                next(steps)
            except StopIteration as stop:
                result = stop.value
                break
            checkpoints += 1
    plan = engine.cached_plan(query)
    cache = engine.cache
    events = []
    for line in tracer.lines:
        event = json.loads(line)
        if event["kind"] not in ("phase", "estimate", "delta-reuse"):
            event.pop("seq")
            events.append(event)
    interval = result.confidence_interval
    return repr((
        result.estimate, interval.estimate, interval.half_width,
        result.scale, result.requested_sample_size,
        result.effective_sample_size, result.degraded,
        dataclasses.astuple(result.cost),
        None if result.timing is None
        else dataclasses.astuple(result.timing),
        None if plan is None else (
            plan.mean_squared_cv_error, plan.half_size, plan.scale,
            plan.uses, plan.num_peers, plan.num_edges,
            None if plan.retained is None else plan.retained.labels,
        ),
        (cache.hits, cache.misses, cache.expirations,
         cache.churn_invalidations, cache.delta_hits),
        (engine.cold_runs, engine.warm_runs, engine.delta_runs),
        checkpoints,
        json.dumps(events, sort_keys=True),
    ))


def _pinned_digest(runs):
    return hashlib.sha256("\n".join(runs).encode()).hexdigest()


class TestPinnedByValue:
    """Cold, warm and delta runs pinned by value: estimate, interval,
    scale, sample sizes, cost, timing, the plan after each run, the
    cache counters, the checkpoint count and the walk/visit events.
    Recorded before warm runs became the two-phase loop with a
    plan-sized phase I, so a refactor of how a run is driven must
    leave every number here where it was."""

    CONFIG = TwoPhaseConfig(max_phase_two_peers=400)

    def test_cold_warm_chunked_and_given_sink(self):
        engine = HybridEngine(_pinned_network(), self.CONFIG, seed=7)
        runs = [
            _pinned_run(engine, COUNT_30, 0.1),
            _pinned_run(engine, COUNT_30, 0.1),
            _pinned_run(engine, COUNT_30, 0.1, chunk_peers=7),
            _pinned_run(engine, COUNT_30, 0.05, sink=3),
            _pinned_run(engine, SUM_ALL, 0.1, sink=3, chunk_peers=16),
            _pinned_run(engine, SUM_ALL, 0.2),
            _pinned_run(engine, AVG_60, 0.1, chunk_peers=5),
            _pinned_run(engine, AVG_60, 0.1, sink=11),
        ]
        assert _pinned_digest(runs) == (
            "ce920c037b8095d7fcf2d3dd568abfe59496be99823fbde3f7ead88bff29de76"
        )

    def test_max_age_and_generator_seed(self):
        engine = HybridEngine(
            _pinned_network(), self.CONFIG,
            seed=np.random.default_rng(23), max_age=2,
        )
        runs = [_pinned_run(engine, SUM_ALL, 0.1) for _ in range(6)]
        assert engine.cold_runs == 2
        assert _pinned_digest(runs) == (
            "8623c2da36f0276439c62745e9642811f38276322d294e3f447236a0c0ad2a9e"
        )

    @pytest.mark.parametrize(
        "retry_policy, pinned",
        [
            (
                None,
                "ecba664f752dea6c390ef021fe4b6b90"
                "cd02d00f1fbaa034372a7506f921b04f",
            ),
            (
                RetryPolicy(),
                "0d895581bb3112111e5c33d7e5eac44f"
                "87f3759ee95e908432750b09c59e819d",
            ),
        ],
        ids=["dropped", "retried"],
    )
    def test_faulted(self, retry_policy, pinned):
        network = _pinned_network(
            fault_plan=FaultPlan(seed=3, reply_loss=0.15)
        )
        config = dataclasses.replace(self.CONFIG, retry_policy=retry_policy)
        engine = HybridEngine(network, config, seed=9)
        runs = [
            _pinned_run(engine, COUNT_30, 0.1, chunk_peers=chunk)
            for chunk in (None, None, 6, None)
        ]
        assert _pinned_digest(runs) == pinned

    def test_timed(self):
        network = _pinned_network(
            simulator_class=EventDrivenSimulator,
            latency=LatencyModel(
                seed=13,
                request=UniformLatency(5.0, 25.0),
                reply=ExponentialLatency(10.0),
                hop=UniformLatency(0.5, 2.0),
            ),
        )
        engine = HybridEngine(network, self.CONFIG, seed=5)
        runs = [
            _pinned_run(engine, COUNT_30, 0.1, chunk_peers=chunk)
            for chunk in (None, None, 8)
        ]
        assert _pinned_digest(runs) == (
            "2a448ac977065b761efd4602a13758fade260477f81b7a693d395aaff5c13742"
        )

    def test_delta_across_two_churn_epochs(self):
        live = _pinned_live()
        config = TwoPhaseConfig(phase_one_peers=20)
        engine = HybridEngine(
            live.snapshot(seed=11), config, seed=7, delta_reestimation=True
        )
        runs = [
            _pinned_run(engine, SUM_ALL, 0.2),
            _pinned_run(engine, SUM_ALL, 0.2),
        ]
        for epoch_seed in (13, 17):
            live.step(20)
            engine.rebind(live.snapshot(seed=epoch_seed))
            runs.append(_pinned_run(engine, SUM_ALL, 0.2, chunk_peers=5))
            runs.append(_pinned_run(engine, SUM_ALL, 0.2))
        assert engine.delta_runs == 2
        assert _pinned_digest(runs) == (
            "f65abf033bb126697b2288e0ac7490eea46f99c84cebaf130544679206ec3efb"
        )


GROUPED = parse_query("SELECT COUNT(A) FROM T GROUP BY A")
MEDIAN_ALL = parse_query("SELECT MEDIAN(A) FROM T")


class TestGroupByIsRefused:
    """Regression: the aggregate engines answered a GROUP BY with one
    ungrouped COUNT instead of refusing it."""

    @pytest.mark.parametrize(
        "planned", [False, True], ids=["TwoPhaseEngine", "planned"]
    )
    def test_group_by_raises_naming_its_engine(self, small_network, planned):
        cache = PlanCache() if planned else None
        engine = TwoPhaseEngine(small_network, seed=7, cache=cache)
        with pytest.raises(ConfigurationError, match="GroupByEngine"):
            engine.execute(GROUPED, 0.1, sink=0)


def _fields(result):
    """A result's fields, arrays as lists (comparable with ``==``)."""
    return {
        name: value.tolist() if isinstance(value, np.ndarray) else value
        for name, value in vars(result).items()
    }


class TestEveryEnginePlans:
    """Any engine given a cache serves a repeated signature warm: a
    plan-sized phase I whose own analysis refreshes the plan, no phase
    II — the same mechanism as the aggregate engine's."""

    KINDS = {
        "median": (
            MedianEngine, MedianConfig(max_phase_two_peers=200),
            lambda engine, sink: engine.execute(MEDIAN_ALL, 0.1, sink=sink),
        ),
        "group-by": (
            GroupByEngine, GroupByConfig(max_phase_two_peers=200),
            lambda engine, sink: engine.execute(GROUPED, 0.1, sink=sink),
        ),
    }

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_repeat_runs_are_warm_and_refresh_the_plan(
        self, small_network, kind
    ):
        engine_class, config, run = self.KINDS[kind]
        cache = PlanCache()
        engine = engine_class(small_network, config, seed=7, cache=cache)
        cold = run(engine, 0)
        assert (engine.cold_runs, engine.warm_runs) == (1, 0)
        assert len(cache) == 1
        ((signature, plan),) = cache._entries.items()
        # The rank and total-variation engines read Δreq on a scale of 1.
        assert plan.scale == 1.0 and plan.half_size > 0
        learned = plan.mean_squared_cv_error

        tracer = Tracer()
        with tracing(tracer):
            warm = run(engine, 0)
        assert (engine.cold_runs, engine.warm_runs) == (1, 1)
        assert cache.hits == 1 and plan.uses == 1
        assert plan.mean_squared_cv_error != learned
        assert warm.phase_two is None
        assert warm.phase_one.peers_visited >= config.phase_one_peers
        phases = [
            (event.phase, event.status)
            for event in tracer.events if event.kind == "phase"
        ]
        assert phases == [
            ("warm", "start"), ("warm", "end"), ("analysis", "end"),
        ]
        assert type(warm) is type(cold)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_a_cold_run_with_a_cache_is_the_seeds_first_child(
        self, small_network, kind
    ):
        """The stream layout every planning engine shares: a cold run
        with a cache draws what the engine without one draws from the
        seed's first child."""
        engine_class, config, run = self.KINDS[kind]
        seed = np.random.SeedSequence(31)
        planned = engine_class(
            small_network, config, seed=seed, cache=PlanCache()
        )
        plain = engine_class(
            small_network, config, seed=np.random.SeedSequence(31).spawn(1)[0]
        )
        assert _fields(run(planned, 3)) == _fields(run(plain, 3))

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_the_caches_policy_ages_every_kinds_plans(
        self, small_network, kind
    ):
        engine_class, config, run = self.KINDS[kind]
        cache = PlanCache(max_age=1)
        engine = engine_class(small_network, config, seed=7, cache=cache)
        for _ in range(3):
            run(engine, 0)
        assert (engine.cold_runs, engine.warm_runs) == (2, 1)
        assert cache.expirations == 1

    def test_a_batch_has_no_plan(self, small_network):
        cache = PlanCache()
        engine = BatchEngine(small_network, seed=7, cache=cache)
        for _ in range(2):
            engine.execute([COUNT_30, SUM_ALL], 0.1, sink=0)
        assert (engine.cold_runs, engine.warm_runs) == (2, 0)
        assert len(cache) == 0
