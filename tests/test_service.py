"""Tests for the concurrent query-serving layer.

The headline assertion is the service's keystone invariant: ``N``
queries run concurrently (``max_in_flight > 1``) are bit-identical —
results, costs, *and traces* — to the same queries run serially
(``max_in_flight=1``), because every query owns its RNG streams and
simulator session.  Everything else (backpressure, budgets, the shared
plan cache, metrics) is tested around that.
"""

import copy
import dataclasses
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random.bit_generator import ISpawnableSeedSequence

import repro._pool as pool
from repro import _util
from repro._util import Seed, ensure_rng
from repro.core import two_phase
from repro.core.groupby import GroupByEngine
from repro.core.median import MedianEngine
from repro.core.two_phase import PhaseConfig, PlanCache, TwoPhaseConfig
from repro.errors import (
    AdmissionError,
    BudgetExceededError,
    ConfigurationError,
    QueryError,
    ServiceError,
)
from repro.metrics.cost import QueryCost
from repro.network.generators import power_law_topology
from repro.network.simulator import NetworkSimulator
from repro.obs.events import EstimateEvent, TraceEvent
from repro.query.parser import parse_query
from repro.service import (
    CostBudget,
    EngineSettings,
    QueryService,
    QueryTicket,
    RoundRobinScheduler,
    ScheduledQuery,
)
from repro.service.backend import QueryJob, build_task, shard_for_signature
from repro.sim.event_driven import EventDrivenSimulator
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.tools.trace.cli import main as trace_main

COUNT_30 = parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30")
SUM_50 = parse_query("SELECT SUM(A) FROM T WHERE A BETWEEN 1 AND 50")
AVG_ALL = parse_query("SELECT AVG(A) FROM T")

#: The determinism-gate workload: eight mixed queries with repeated
#: signatures, so warm cache traffic is part of what must replay.
WORKLOAD = [
    COUNT_30, SUM_50, AVG_ALL, COUNT_30,
    SUM_50, AVG_ALL, COUNT_30, parse_query("SELECT SUM(A) FROM T"),
]

CONFIG = TwoPhaseConfig(max_phase_two_peers=200)


def make_service(small_network, **kwargs):
    kwargs.setdefault("seed", 99)
    return QueryService(small_network, CONFIG, **kwargs)


def run_workload_at(small_network, max_in_flight, **kwargs):
    service = make_service(
        small_network,
        max_in_flight=max_in_flight,
        capture_traces=True,
        **kwargs,
    )
    tickets = [service.submit(query, 0.1) for query in WORKLOAD]
    outcomes = service.run()
    return service, tickets, outcomes


class TestCostBudget:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CostBudget(max_messages=-1)
        with pytest.raises(ConfigurationError):
            CostBudget(max_latency_ms=-0.5)

    def test_unlimited(self):
        assert CostBudget().unlimited
        assert not CostBudget(max_hops=10).unlimited

    def test_violation_names_field_and_values(self):
        budget = CostBudget(max_messages=5)
        cost = QueryCost(messages=9)
        assert budget.violation(cost) == "messages 9 > 5"
        assert budget.violation(QueryCost(messages=5)) is None

    def test_within_budget(self):
        budget = CostBudget(
            max_messages=100, max_hops=100, max_visits=100,
            max_latency_ms=1e9,
        )
        assert budget.violation(QueryCost(messages=1, hops=1)) is None


class TestSubmitAwait:
    def test_submit_returns_sequential_tickets(self, small_network):
        service = make_service(small_network)
        first = service.submit(COUNT_30, 0.1)
        second = service.submit(AVG_ALL, 0.1)
        assert (first.query_id, second.query_id) == (0, 1)
        assert first.signature == COUNT_30.to_sql()

    def test_await_result_returns_the_estimate(self, small_network):
        service = make_service(small_network)
        ticket = service.submit(COUNT_30, 0.1)
        result = service.await_result(ticket)
        assert result.estimate > 0
        assert result.cost.peers_visited > 0
        outcome = service.outcome(ticket)
        assert outcome is not None and outcome.ok
        assert outcome.result is result

    def test_unknown_ticket_raises(self, small_network):
        service = make_service(small_network)
        stranger = QueryTicket(
            query_id=999, query=COUNT_30, delta_req=0.1,
            signature=COUNT_30.to_sql(),
        )
        with pytest.raises(ServiceError):
            service.await_result(stranger)

    def test_failed_query_raises_its_own_error(self, small_network):
        service = make_service(small_network)
        bad = parse_query("SELECT COUNT(Z) FROM T WHERE Z BETWEEN 1 AND 2")
        ticket = service.submit(bad, 0.1)
        with pytest.raises(QueryError):
            service.await_result(ticket)
        outcome = service.outcome(ticket)
        assert outcome.status == "failed"
        assert "Z" in outcome.detail

    def test_run_resolves_everything_in_submission_order(
        self, small_network
    ):
        service = make_service(small_network, max_in_flight=3)
        tickets = [service.submit(q, 0.1) for q in WORKLOAD[:5]]
        outcomes = service.run()
        assert [o.ticket.query_id for o in outcomes] == [
            t.query_id for t in tickets
        ]
        assert all(o.ok for o in outcomes)
        assert service.idle

    def test_validation(self, small_network):
        with pytest.raises(ConfigurationError):
            make_service(small_network, max_queue=0)
        with pytest.raises(ConfigurationError):
            make_service(small_network, chunk_peers=0)
        with pytest.raises(ConfigurationError):
            make_service(small_network, max_in_flight=0)


class TestBackpressure:
    def test_admission_bound(self, small_network):
        service = make_service(small_network, max_queue=2)
        service.submit(COUNT_30, 0.1)
        service.submit(AVG_ALL, 0.1)
        with pytest.raises(AdmissionError):
            service.submit(SUM_50, 0.1)
        stats = service.stats()
        assert stats.rejected == 1
        assert stats.submitted == 2

    def test_capacity_frees_up_after_completion(self, small_network):
        service = make_service(small_network, max_queue=1)
        ticket = service.submit(COUNT_30, 0.1)
        service.await_result(ticket)
        # The slot is free again: this admission must not raise.
        service.await_result(service.submit(AVG_ALL, 0.1))


class TestBudgets:
    def test_budget_stop_is_typed_and_detailed(self, small_network):
        service = make_service(small_network, chunk_peers=4)
        ticket = service.submit(
            COUNT_30, 0.1, budget=CostBudget(max_hops=10)
        )
        with pytest.raises(BudgetExceededError, match="hops"):
            service.await_result(ticket)
        outcome = service.outcome(ticket)
        assert outcome.status == "budget-exceeded"
        assert "hops" in outcome.detail
        assert outcome.cost is not None and outcome.cost.hops > 10
        assert outcome.chunks >= 1
        assert service.stats().budget_stopped == 1

    def test_default_budget_applies_to_all(self, small_network):
        service = make_service(
            small_network,
            chunk_peers=4,
            default_budget=CostBudget(max_messages=3),
        )
        service.submit(COUNT_30, 0.1)
        service.submit(AVG_ALL, 0.1)
        outcomes = service.run()
        assert all(o.status == "budget-exceeded" for o in outcomes)

    def test_unlimited_budget_never_trips(self, small_network):
        service = make_service(
            small_network, default_budget=CostBudget()
        )
        ticket = service.submit(COUNT_30, 0.1)
        assert service.await_result(ticket).estimate > 0


class TestQuantum:
    """``chunk_peers`` is the enforcement quantum: a chunk boundary
    exists only where a budget or a deadline is checked, so the take
    size is a function of the job.  Counts repeat exactly — this is
    the stopwatch-free floor for the scheduler's per-chunk cost."""

    #: Pinned at the commit before the quantum became a function of
    #: the job: what ``max_hops=10`` under ``chunk_peers=4`` cost.
    #: (``latency_ms`` re-pinned when the CPU speeds became one array
    #: draw, which reaches nothing else.)
    BUDGET_STOP_COST = QueryCost(
        messages=44, hops=40, peers_visited=4, distinct_peers=4,
        tuples_processed=100, tuples_sampled=100, bytes_sent=3468,
        latency_ms=2104.559521825997, timeouts=0,
    )

    @staticmethod
    def _takes(tracer):
        """(selected, requested) of every walk / batch-visit pair."""
        walks = [e for e in tracer.events if e.kind == "walk"]
        visits = [e for e in tracer.events if e.kind == "batch-visit"]
        return (
            [walk.selected for walk in walks],
            [visit.requested for visit in visits],
        )

    def test_unbudgeted_warm_query_is_one_take(self, small_network):
        service = make_service(
            small_network, max_in_flight=1, capture_traces=True
        )
        service.await_result(service.submit(COUNT_30, 0.1))
        ticks_before = service.stats().ticks
        ticket = service.submit(COUNT_30, 0.1)
        result = service.await_result(ticket)
        assert service.stats().warm_runs == 1
        assert service.outcome(ticket).chunks == 1
        planned = result.requested_sample_size
        assert self._takes(service.trace(ticket)) == ([planned], [planned])
        # One tick runs the phase, the next sees the generator end.
        assert service.stats().ticks - ticks_before == 2

    def test_unbudgeted_cold_query_is_a_chunk_per_phase(
        self, small_network
    ):
        service = make_service(small_network, capture_traces=True)
        ticket = service.submit(COUNT_30, 0.1)
        result = service.await_result(ticket)
        assert result.phase_two is not None
        # one / analysis / two
        assert service.outcome(ticket).chunks == 3
        phases = [CONFIG.phase_one_peers, result.phase_two.peers_visited]
        assert self._takes(service.trace(ticket)) == (phases, phases)

    def test_ceilingless_budget_is_no_budget(self, small_network):
        plain, plain_tickets, plain_outcomes = run_workload_at(
            small_network, 2
        )
        empty, empty_tickets, empty_outcomes = run_workload_at(
            small_network, 2, default_budget=CostBudget()
        )
        assert empty_outcomes == plain_outcomes
        for a, b in zip(plain_tickets, empty_tickets):
            assert plain.trace(a).lines == empty.trace(b).lines

    def test_budgeted_query_trips_where_it_always_did(self, small_network):
        service = make_service(
            small_network, chunk_peers=4, capture_traces=True
        )
        ticket = service.submit(
            COUNT_30, 0.1, budget=CostBudget(max_hops=10)
        )
        service.run()
        outcome = service.outcome(ticket)
        assert outcome.status == "budget-exceeded"
        assert outcome.detail == "hops 40 > 10"
        assert outcome.chunks == 1
        assert outcome.cost == self.BUDGET_STOP_COST
        assert self._takes(service.trace(ticket)) == ([4], [4])

    def test_deadline_query_keeps_the_quantum(self, small_network):
        """An armed deadline is something to enforce, retry policy or
        not: the walk is still cut every ``chunk_peers`` visits."""
        timed = EventDrivenSimulator(
            small_network.topology,
            small_network.databases(),
            seed=7,
            latency=LatencyModel(
                seed=3,
                request=ConstantLatency(5.0),
                reply=ConstantLatency(5.0),
            ),
        )
        service = make_service(timed, chunk_peers=8, capture_traces=True)
        ticket = service.submit(COUNT_30, 0.1, deadline_ms=1e9)
        result = service.await_result(ticket)
        walks, _ = self._takes(service.trace(ticket))
        # 40 phase-I peers, then phase II, each in takes of <= 8.
        assert walks[:5] == [8] * 5
        assert max(walks) == 8
        assert sum(walks) == result.requested_sample_size
        assert service.outcome(ticket).chunks == len(walks) + 1

    def test_a_ceiling_changes_the_chunking_not_the_answers(
        self, small_network
    ):
        _, _, free = run_workload_at(small_network, 4)
        _, _, checked = run_workload_at(
            small_network, 4, default_budget=CostBudget(max_visits=10**9)
        )
        assert sum(o.chunks for o in checked) > sum(o.chunks for o in free)
        for a, b in zip(free, checked):
            assert a.status == b.status == "done"
            assert a.result.estimate == b.result.estimate
            # As in test_chunk_size_does_not_change_results: only the
            # float latency accumulator may differ, in the last ulps.
            assert dataclasses.replace(
                a.result.cost, latency_ms=0.0
            ) == dataclasses.replace(b.result.cost, latency_ms=0.0)
            assert a.result.cost.latency_ms == pytest.approx(
                b.result.cost.latency_ms, rel=1e-12
            )


class TestSharedPlanCache:
    def test_repeat_signatures_go_warm(self, small_network):
        service, _, outcomes = run_workload_at(small_network, 4)
        stats = service.stats()
        # 4 distinct signatures in the 8-query workload: the repeats
        # must be served warm from the shared cache.
        assert stats.cold_runs == 4
        assert stats.warm_runs == 4
        assert stats.cache_hits == 4
        assert stats.cache_misses == 4
        assert 0.0 < stats.warm_ratio < 1.0
        assert len(service.cache) == 4
        assert all(o.ok for o in outcomes)

    def test_warm_queries_cost_less(self, small_network):
        service = make_service(small_network)
        cold = service.await_result(service.submit(COUNT_30, 0.1))
        warm = service.await_result(service.submit(COUNT_30, 0.1))
        assert warm.cost.peers_visited <= cold.cost.peers_visited

    def test_rebind_requires_idle(self, small_network):
        service = make_service(small_network)
        service.submit(COUNT_30, 0.1)
        with pytest.raises(ServiceError):
            service.rebind(small_network)

    def test_rebind_churn_invalidates_stale_plans(
        self, small_network, small_dataset
    ):
        service = make_service(small_network)
        service.await_result(service.submit(COUNT_30, 0.1))
        assert service.stats().cold_runs == 1

        # A different population: plans learned on 200 peers must not
        # serve it warm.
        other_topology = power_law_topology(150, 600, seed=11)
        other = NetworkSimulator(
            other_topology,
            small_dataset.databases[:150],
            seed=13,
        )
        service.rebind(other)
        service.await_result(service.submit(COUNT_30, 0.1))
        stats = service.stats()
        assert stats.cold_runs == 2
        assert stats.warm_runs == 0
        assert stats.churn_invalidations == 1


class TestDeterminismGate:
    """The keystone invariant, pinned on the full mixed workload."""

    def test_concurrent_results_equal_serial(self, small_network):
        _, _, serial = run_workload_at(small_network, 1)
        _, _, concurrent = run_workload_at(small_network, 8)
        assert len(serial) == len(concurrent) == len(WORKLOAD)
        for a, b in zip(serial, concurrent):
            assert a.ticket.query_id == b.ticket.query_id
            assert a.status == b.status == "done"
            assert a.result.estimate == b.result.estimate
            assert a.result.scale == b.result.scale
            assert a.result.cost == b.result.cost
            assert (
                a.result.confidence_interval.half_width
                == b.result.confidence_interval.half_width
            )

    def test_concurrent_traces_equal_serial(self, small_network):
        serial_svc, serial_tickets, _ = run_workload_at(small_network, 1)
        conc_svc, conc_tickets, _ = run_workload_at(small_network, 8)
        for st_, ct in zip(serial_tickets, conc_tickets):
            serial_trace = serial_svc.trace(st_)
            concurrent_trace = conc_svc.trace(ct)
            assert serial_trace.lines == concurrent_trace.lines
            assert serial_trace.digest() == concurrent_trace.digest()

    def test_trace_diff_tool_sees_identical_runs(
        self, small_network, tmp_path
    ):
        serial_svc, _, _ = run_workload_at(small_network, 1)
        conc_svc, _, _ = run_workload_at(small_network, 8)
        serial_paths = serial_svc.write_traces(tmp_path / "serial")
        conc_paths = conc_svc.write_traces(tmp_path / "concurrent")
        assert len(serial_paths) == len(conc_paths) == len(WORKLOAD)
        for left, right in zip(serial_paths, conc_paths):
            assert trace_main(["diff", str(left), str(right)]) == 0

    def test_trace_diff_subprocess_entry_point(
        self, small_network, tmp_path
    ):
        """The documented CLI (`python -m repro.tools.trace diff`)
        agrees: a concurrent run's trace diffs clean against serial."""
        serial_svc, _, _ = run_workload_at(small_network, 1)
        conc_svc, _, _ = run_workload_at(small_network, 8)
        left = serial_svc.write_traces(tmp_path / "serial")[0]
        right = conc_svc.write_traces(tmp_path / "concurrent")[0]
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.tools.trace", "diff",
                str(left), str(right),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_chunk_size_does_not_change_results(self, small_network):
        _, _, coarse = run_workload_at(small_network, 4, chunk_peers=None)
        _, _, fine = run_workload_at(small_network, 4, chunk_peers=3)
        for a, b in zip(coarse, fine):
            assert a.result.estimate == b.result.estimate
            # Chunked collection charges the ledger in more, smaller
            # additions, so the float latency accumulator can differ
            # in the last ulp; every integer cost field is exact.
            assert dataclasses.replace(
                a.result.cost, latency_ms=0.0
            ) == dataclasses.replace(b.result.cost, latency_ms=0.0)
            assert a.result.cost.latency_ms == pytest.approx(
                b.result.cost.latency_ms, rel=1e-12
            )


class TestObservability:
    def test_lifecycle_events_in_trace(self, small_network):
        service = make_service(small_network, capture_traces=True)
        ticket = service.submit(COUNT_30, 0.1)
        service.run()
        tracer = service.trace(ticket)
        lifecycle = [
            event for event in tracer.events if event.kind == "query"
        ]
        assert [event.status for event in lifecycle] == [
            "submitted", "started", "done"
        ]
        assert all(
            event.query_id == ticket.query_id for event in lifecycle
        )
        assert tracer.registry.counter("query.done").value == 1

    def test_service_metrics(self, small_network):
        service, _, _ = run_workload_at(small_network, 4)
        registry = service.registry
        assert registry.counter("service.submitted").value == len(WORKLOAD)
        assert registry.counter("service.completed").value == len(WORKLOAD)
        assert registry.counter("service.warm_runs").value == 4
        assert registry.counter("service.cold_runs").value == 4
        assert registry.gauge("service.queue_depth").value == 0.0
        assert registry.gauge("service.in_flight").value == 0.0
        assert registry.counter("service.ticks").value > 0

    def test_stats_roundtrip(self, small_network):
        service = make_service(small_network)
        stats = service.stats()
        assert stats.submitted == 0
        assert stats.warm_ratio == 0.0


class TestScheduler:
    """Scheduler-level behaviour, on synthetic stepwise generators."""

    @staticmethod
    def _task(query_id, signature, steps):
        ticket = QueryTicket(
            query_id=query_id, query=COUNT_30, delta_req=0.1,
            signature=signature,
        )
        return ScheduledQuery(
            ticket=ticket, steps=steps, engine=None, budget=None,
            tracer=None,
        )

    @staticmethod
    def _steps(log, name, chunks):
        def generator():
            for index in range(chunks):
                log.append((name, index))
                yield None
            return name

        return generator()

    def test_round_robin_interleaves_fairly(self):
        log = []
        scheduler = RoundRobinScheduler(max_in_flight=2)
        scheduler.enqueue(self._task(0, "a", self._steps(log, "a", 2)))
        scheduler.enqueue(self._task(1, "b", self._steps(log, "b", 2)))
        scheduler.tick()
        # One chunk each per tick — neither runs ahead.
        assert log == [("a", 0), ("b", 0)]
        scheduler.tick()
        assert log == [("a", 0), ("b", 0), ("a", 1), ("b", 1)]

    def test_same_signature_never_runs_concurrently(self):
        log = []
        scheduler = RoundRobinScheduler(max_in_flight=4)
        scheduler.enqueue(self._task(0, "same", self._steps(log, "x", 2)))
        scheduler.enqueue(self._task(1, "same", self._steps(log, "y", 2)))
        scheduler.enqueue(self._task(2, "other", self._steps(log, "z", 2)))
        done = []
        while not scheduler.idle:
            done.extend(scheduler.tick())
        # "y" shares a signature with "x" so it must not start until
        # "x" finishes; "z" interleaves freely.
        y_start = log.index(("y", 0))
        x_end = log.index(("x", 1))
        assert y_start > x_end
        assert [c.task.ticket.query_id for c in done] == [0, 2, 1]

    def test_admission_respects_max_in_flight(self):
        log = []
        scheduler = RoundRobinScheduler(max_in_flight=1)
        scheduler.enqueue(self._task(0, "a", self._steps(log, "a", 1)))
        scheduler.enqueue(self._task(1, "b", self._steps(log, "b", 1)))
        scheduler.tick()
        assert scheduler.in_flight + scheduler.backlog >= 1
        assert ("b", 0) not in log

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RoundRobinScheduler(max_in_flight=0)


class TestPropertyDeterminism:
    """Random small workloads: concurrency never changes answers."""

    POOL = [COUNT_30, SUM_50, AVG_ALL]

    @settings(max_examples=8, deadline=None)
    @given(
        picks=st.lists(
            st.integers(min_value=0, max_value=2), min_size=2, max_size=5
        ),
        max_in_flight=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_concurrent_equals_serial(
        self, small_network, picks, max_in_flight, seed
    ):
        queries = [self.POOL[i] for i in picks]

        def run(in_flight):
            service = QueryService(
                small_network,
                TwoPhaseConfig(max_phase_two_peers=60),
                seed=seed,
                max_in_flight=in_flight,
                chunk_peers=5,
            )
            tickets = [service.submit(q, 0.15) for q in queries]
            service.run()
            return [service.outcome(t) for t in tickets]

        serial = run(1)
        concurrent = run(max_in_flight)
        for a, b in zip(serial, concurrent):
            assert a.status == b.status
            assert a.result.estimate == b.result.estimate
            assert a.result.cost == b.result.cost


def _fresh_seed(kind, entropy):
    """A new service seed of ``kind`` built from ``entropy``."""
    if kind == "int":
        return entropy
    if kind == "seed-sequence":
        return np.random.SeedSequence(entropy)
    return np.random.default_rng(entropy)


class TestSeedSequences:
    """A query's streams travel and wait as spawnable seeds (a
    :class:`~repro._util.Seed` of the service's own, a caller's
    ``SeedSequence``'s children as numpy spawns them) and become
    ``Generator``\\ s where they are drawn from — replaying the streams
    the ``Generator.spawn`` form handed out, draw for draw."""

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(["int", "seed-sequence", "generator"]),
        entropy=st.integers(0, 2**63 - 1),
    )
    def test_every_per_query_stream_replays_the_spawn_form(
        self, small_network, kind, entropy
    ):
        service = QueryService(
            small_network, CONFIG, seed=_fresh_seed(kind, entropy)
        )
        jobs = []
        submit = service.backend.submit

        def recording(job):
            jobs.append(copy.deepcopy(job))
            submit(job)

        service.backend.submit = recording
        service.submit(COUNT_30, 0.1)
        service.submit(SUM_50, 0.1)

        # What the service did before: Generators all the way down.
        reference = ensure_rng(_fresh_seed(kind, entropy))
        settings_ = EngineSettings(CONFIG, None, 25, 0.7, False)
        for job in jobs:
            session_gen, engine_gen = reference.spawn(2)
            two_phase_gen = engine_gen.spawn(1)[0]
            walk_gen, visit_gen, crossval_gen = two_phase_gen.spawn(3)
            for seed, gen in (
                (job.session_seed, session_gen),
                (job.engine_seed, engine_gen),
            ):
                assert isinstance(seed, ISpawnableSeedSequence)
                assert isinstance(seed, Seed) == (kind == "int")
                assert seed.spawn_key == gen.bit_generator.seed_seq.spawn_key
                assert seed.entropy == gen.bit_generator.seed_seq.entropy

            task = build_task(small_network, settings_, PlanCache(), job)
            hybrid = task.engine
            session = hybrid._simulator
            draws = {
                "walk": (hybrid._walker._rng, walk_gen),
                "visit keys": (hybrid._visit_rng, visit_gen),
                "cross-validation": (
                    ensure_rng(hybrid._seed_seq.spawn(1)[0]),
                    crossval_gen,
                ),
                "cold sink": (hybrid._rng, two_phase_gen),
                "warm sink": (hybrid._plan_rng, engine_gen),
                "session": (session._rng, session_gen),
            }
            for name, (stream, expected) in draws.items():
                assert stream.random(4).tolist() == (
                    expected.random(4).tolist()
                ), name


def _trace_event_classes():
    pending, classes = [TraceEvent], []
    while pending:
        kind = pending.pop()
        classes.append(kind)
        pending.extend(kind.__subclasses__())
    return classes


def _counted_init(built, init):
    def counting(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    return counting


class TestUntracedEvents:
    """An untraced run constructs no trace event — the tracer's
    "no allocation" promise, counted over a served stream."""

    def test_an_untraced_stream_builds_no_event(
        self, small_network, monkeypatch
    ):
        built = []
        for kind in _trace_event_classes():
            if "__init__" in vars(kind):
                monkeypatch.setattr(
                    kind, "__init__", _counted_init(built, kind.__init__)
                )
        EstimateEvent(engine="x", agg="count", estimate=1.0)
        assert len(built) == 1  # the patches are live
        del built[:]

        service = make_service(small_network, max_in_flight=4)
        for query in WORKLOAD:  # cold and warm
            service.submit(query, 0.1)
        assert {outcome.status for outcome in service.run()} == {"done"}
        assert built == []

        # The same stream, traced, builds them when its traces are read
        # (the count can see them).
        service, tickets, _ = run_workload_at(small_network, 4)
        assert built == []
        for ticket in tickets:
            assert service.trace(ticket).events
        assert {"PhaseEvent", "EstimateEvent", "BatchVisitEvent"} <= set(built)


class TestGeneratorCounts:
    """Per served query only the streams something draws from become
    ``Generator``\\ s, each built once, through ``ensure_rng``: a cold
    query builds its walk, visit-key, cross-validation and sink
    streams (4), a warm one its walk, visit-key and engine streams
    (3).  Neither builds a session stream a clean query never reads,
    and a warm one constructs no numpy ``SeedSequence``: its seeds
    are the service's :class:`~repro._util.Seed`\\ 's children."""

    def test_cold_and_warm_queries(self, small_network, monkeypatch):
        built = []
        default_rng = np.random.default_rng

        def counting(seed=None):
            built.append(seed)
            return default_rng(seed)

        sequences = []

        class CountedSeedSequence(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                sequences.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        monkeypatch.setattr(_util, "SeedSequence", CountedSeedSequence)
        service = make_service(small_network, max_in_flight=1)
        cold = service.submit(COUNT_30, 0.1)
        service.await_result(cold)
        assert service.stats().cold_runs == 1
        assert len(built) == 4
        assert all(isinstance(s, ISpawnableSeedSequence) for s in built)

        del built[:]
        warm = service.submit(COUNT_30, 0.1)
        service.await_result(warm)
        assert service.stats().warm_runs == 1
        assert len(built) == 3
        assert all(isinstance(s, Seed) for s in built)
        assert sequences == []
        # The patch is live: an unseeded Seed draws its entropy there.
        Seed()
        assert len(sequences) == 1


class TestEngineTheQueryNames:
    """The service builds the engine a query names, so a GROUP BY is
    answered grouped (it used to come back as one ungrouped COUNT) and
    a MEDIAN is answered at all (it used to fail)."""

    @pytest.mark.parametrize(
        "sql, engine_class",
        [
            ("SELECT COUNT(A) FROM T GROUP BY A", GroupByEngine),
            ("SELECT AVG(A) FROM T GROUP BY A", GroupByEngine),
            ("SELECT MEDIAN(A) FROM T", MedianEngine),
            ("SELECT QUANTILE(A, 0.9) FROM T", MedianEngine),
        ],
    )
    def test_served_result_is_the_engine_run_with_the_jobs_seeds(
        self, small_network, sql, engine_class
    ):
        query = parse_query(sql)
        service = make_service(small_network)
        served = service.await_result(service.submit(query, 0.1))
        session_seed, engine_seed = np.random.SeedSequence(99).spawn(2)
        engine = engine_class(
            small_network.session(seed=session_seed), CONFIG, engine_seed,
            cache=PlanCache(),
        )
        assert served == engine.execute(query, 0.1)


class TestOneConfig:
    """Every served kind runs the service's own configuration — its
    retry policy and phase pooling included — and every phased engine
    reads ``pool_phases`` the same way."""

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30",
            "SELECT SUM(A) FROM T",
            "SELECT AVG(A) FROM T",
            "SELECT MEDIAN(A) FROM T",
            "SELECT QUANTILE(A, 0.9) FROM T",
            "SELECT COUNT(A) FROM T GROUP BY A",
        ],
    )
    def test_every_served_kind_runs_the_services_config(
        self, small_network, sql
    ):
        settings_ = EngineSettings(CONFIG, None, 25, 0.7, False)
        query = parse_query(sql)
        session_seed, engine_seed = np.random.SeedSequence(5).spawn(2)
        job = QueryJob(
            0, query, 0.1, query.to_sql(), None, None, None,
            session_seed, engine_seed, False,
        )
        task = build_task(small_network, settings_, PlanCache(), job)
        assert task.engine.config is settings_.config

    @staticmethod
    def phase_two_rows(engine):
        """Record the rows ``engine``'s phase II collects."""
        rows = {}
        collect = engine._collect

        def recording(sink, query, count, ledger, chunk_peers, phase):
            sample = yield from collect(
                sink, query, count, ledger, chunk_peers, phase
            )
            rows[phase] = sample
            return sample

        engine._collect = recording
        return rows

    def test_group_by_answers_from_phase_two_unpooled(self, small_network):
        query = parse_query("SELECT COUNT(A) FROM T GROUP BY A")
        results = {}
        for pool in (True, False):
            config = PhaseConfig(max_phase_two_peers=60, pool_phases=pool)
            engine = GroupByEngine(small_network, config, seed=3)
            rows = self.phase_two_rows(engine)
            results[pool] = engine.execute(query, 0.05, sink=0)
        two = rows["two"]
        assert len(two) > 0
        # Per-group Hajek totals over phase II's rows alone.
        weights = 1.0 / two["probability"]
        owners = np.repeat(np.arange(len(two)), two["shipped"])
        totals = {}
        for owner, (group, count, _) in zip(owners, two.values):
            totals[group] = totals.get(group, 0.0) + count * weights[owner]
        scale = small_network.num_peers / weights.sum()
        expected = {group: total * scale for group, total in totals.items()}
        assert results[False].groups == pytest.approx(expected, rel=1e-9)
        assert results[False].groups != results[True].groups
        assert results[False].phase_two == results[True].phase_two

    def test_median_answers_from_the_pool_when_phase_two_ships_none(
        self, small_network
    ):
        """MEDIAN's edge: a phase II whose peers hold no matching tuple
        ships no local median, so even unpooled the answer is read from
        both phases, as pooled."""
        query = parse_query(
            "SELECT MEDIAN(A) FROM T WHERE A BETWEEN 29 AND 30"
        )
        results = {}
        for pool in (True, False):
            config = PhaseConfig(max_phase_two_peers=2, pool_phases=pool)
            engine = MedianEngine(small_network, config, seed=1)
            rows = self.phase_two_rows(engine)
            results[pool] = engine.execute(query, 0.05, sink=0)
        assert len(rows["two"]) > 0 and not rows["two"]["shipped"].any()
        assert results[False] == results[True]


class TestPlanOccupancy:
    """``stats().plan_entries`` is the number of plans held: a stream
    of more distinct signatures than the bound holds exactly the bound
    per cache — one inline, one per worker — and no more."""

    BOUND = 6

    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_more_signatures_than_the_bound(
        self, small_network, monkeypatch, workers
    ):
        monkeypatch.setattr(two_phase, "PLAN_CACHE_ENTRIES", self.BOUND)
        monkeypatch.setattr(pool, "_WORKER_CAP_WARNED", True)
        queries = [
            parse_query(f"SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND {high}")
            for high in range(10, 40)
        ]
        shards = workers or 1
        owners = [shard_for_signature(q.to_sql(), shards) for q in queries]
        assert min(owners.count(w) for w in range(shards)) > self.BOUND
        config = TwoPhaseConfig(phase_one_peers=8, max_phase_two_peers=0)
        with QueryService(
            small_network, config, seed=99, workers=workers
        ) as service:
            for query in queries:
                service.submit(query, 0.5)
                service.run()
            stats = service.stats()
        assert stats.cold_runs == len(queries)
        assert stats.plan_entries == self.BOUND * shards


#: Python calls one warm served COUNT makes, from submit to its result
#: (recorded before planning moved into the two-phase loop; a change
#: may lower it, never raise it).
class TestWarmBuildsNothing:
    """Counts, no stopwatch: an engine's binding (its walker and its
    estimator pair) is built once per snapshot and no served query
    constructs an engine, so a warm served COUNT builds none of them; a
    rebind onto a churn snapshot binds each exactly once, and the delta
    run there still tops up from the survivors."""

    def test_warm_submit_and_rebind(self, monkeypatch):
        from repro.core.estimators import make_estimator
        from repro.data.localdb import LocalDatabase
        from repro.network.churn import ChurnConfig
        from repro.network.live import LiveNetwork
        from repro.network.walker import RandomWalker

        built = {"engine": 0, "bound": 0, "walker": 0, "estimators": 0}

        def counted(key, function):
            def wrapper(*args, **kwargs):
                built[key] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            two_phase._PhasedEngine, "__init__",
            counted("engine", two_phase._PhasedEngine.__init__),
        )
        monkeypatch.setattr(
            two_phase._PhasedEngine, "_bind",
            counted("bound", two_phase._PhasedEngine._bind),
        )
        monkeypatch.setattr(
            RandomWalker, "__init__", counted("walker", RandomWalker.__init__)
        )
        monkeypatch.setattr(
            two_phase, "make_estimator", counted("estimators", make_estimator)
        )
        rng = np.random.default_rng(3)
        topology = power_law_topology(120, 400, seed=2)
        live = LiveNetwork(
            topology,
            [
                LocalDatabase({"A": rng.integers(1, 101, 80)})
                for _ in range(topology.num_peers)
            ],
            churn_config=ChurnConfig(join_rate=0.5, leave_rate=0.5),
            seed=5,
        )
        service = QueryService(
            live.snapshot(seed=11), TwoPhaseConfig(phase_one_peers=20),
            seed=99, max_in_flight=1, delta_reestimation=True,
        )
        for _ in range(2):
            service.await_result(service.submit(COUNT_30, 0.2))
        assert built == {"engine": 0, "bound": 1, "walker": 1, "estimators": 1}
        assert service.stats().warm_runs == 1

        built.update(bound=0, walker=0, estimators=0)
        service.await_result(service.submit(COUNT_30, 0.2))
        assert service.stats().warm_runs == 2
        assert built == {"engine": 0, "bound": 0, "walker": 0, "estimators": 0}

        live.step(20)
        service.rebind(live.snapshot(seed=13))
        delta = service.await_result(service.submit(COUNT_30, 0.2))
        service.await_result(service.submit(COUNT_30, 0.2))
        stats = service.stats()
        assert (stats.delta_runs, stats.delta_hits, stats.warm_runs) == (1, 1, 3)
        assert delta.effective_sample_size == delta.requested_sample_size
        assert delta.cost.peers_visited < delta.requested_sample_size
        assert built == {"engine": 0, "bound": 1, "walker": 1, "estimators": 1}


WARM_CALL_CEILING = 281


class TestWarmCallCeiling:
    """A warm served aggregate run makes at most ``WARM_CALL_CEILING``
    Python calls, counted by a ``sys.setprofile`` hook (``call``
    events: function entries and generator resumes) — no stopwatch,
    so plumbing added to the warm path fails here by count."""

    def test_a_warm_served_count(self, small_network):
        import gc

        service = make_service(small_network, max_in_flight=1)
        service.await_result(service.submit(COUNT_30, 0.1))
        calls = 0
        # A hook already installed (tests/call_census.py) keeps seeing
        # every call, and is back in place afterwards.
        previous = sys.getprofile()

        def count(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1
            if previous is not None:
                previous(frame, event, arg)

        gc.disable()
        sys.setprofile(count)
        try:
            service.await_result(service.submit(COUNT_30, 0.1))
        finally:
            sys.setprofile(previous)
            gc.enable()
        assert service.stats().warm_runs == 1
        assert calls <= WARM_CALL_CEILING, calls
