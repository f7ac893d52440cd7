"""Parity suite for the sharded multi-process serving backend.

The headline assertion is the serial==sharded invariant: a workload
served by ``QueryService(workers=N)`` — N forked shard owners over a
shared-memory snapshot — is bit-identical to the same workload served
inline: every estimate, cost ledger, plan-cache counter and trace
digest.  The argument (documented on :mod:`repro.service.backend`):
jobs are fully seeded at submit in submission order, and plan-cache
traffic is partitioned by signature with one shard owner per
signature, so every signature sees exactly the cache history it would
have seen inline.

Around that: worker-pool lifecycle (clean close, crash detection,
shared oversubscription warning with ``run_trials``) and a slow soak
test driving 500+ queries through admission backpressure.
"""

import dataclasses
import functools
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
from multiprocessing import shared_memory

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro._pool as pool
from repro.core.groupby import GroupByResult
from repro.core.result import ApproximateResult, MedianResult
from repro.core.two_phase import TwoPhaseConfig, TwoPhaseEngine
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    ReproError,
    SamplingError,
    ServiceError,
    WorkerPoolError,
)
from repro.network.faults import CrashWindow, FaultPlan, LatencySpike
from repro.network.generators import power_law_topology
from repro.network.simulator import NetworkSimulator
from repro.network.walker import RetryPolicy
from repro.query.parser import parse_query
from repro.service import CostBudget, QueryService
from repro.service import backend as backend_module
from repro.service.backend import (
    EngineSettings,
    ForkedBackend,
    shard_for_signature,
)
from repro.sim.event_driven import EventDrivenSimulator
from repro.sim.latency import ConstantLatency, ExponentialLatency, LatencyModel
from repro.tools.trace.cli import main as trace_main

COUNT_30 = parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30")
SUM_50 = parse_query("SELECT SUM(A) FROM T WHERE A BETWEEN 1 AND 50")
AVG_ALL = parse_query("SELECT AVG(A) FROM T")
MEDIAN_ALL = parse_query("SELECT MEDIAN(A) FROM T")
QUANTILE_30 = parse_query(
    "SELECT QUANTILE(A, 0.25) FROM T WHERE A BETWEEN 1 AND 30"
)
GROUPED_COUNT = parse_query("SELECT COUNT(A) FROM T GROUP BY A")
GROUPED_AVG = parse_query("SELECT AVG(A) FROM T WHERE A BETWEEN 10 AND 60 GROUP BY A")

#: One signature per engine kind the service builds.
MIXED = [COUNT_30, MEDIAN_ALL, QUANTILE_30, GROUPED_COUNT, GROUPED_AVG]

#: Same shape as the inline determinism gate: mixed signatures with
#: repeats, so warm cache traffic is part of what must shard cleanly.
WORKLOAD = [
    COUNT_30, SUM_50, AVG_ALL, COUNT_30,
    SUM_50, AVG_ALL, COUNT_30, parse_query("SELECT SUM(A) FROM T"),
]

CONFIG = TwoPhaseConfig(max_phase_two_peers=200)


@pytest.fixture(autouse=True)
def _quiet_oversubscription(monkeypatch):
    # The CI container may expose a single core; QueryService(workers=N)
    # then warns (once per process) without capping.  Pre-mark the
    # shared flag so parity tests stay quiet; warning-behaviour tests
    # reset it explicitly.
    monkeypatch.setattr(pool, "_WORKER_CAP_WARNED", True)


def run_inline(small_network, max_in_flight, **kwargs):
    service = QueryService(
        small_network, CONFIG, seed=99,
        max_in_flight=max_in_flight, capture_traces=True, **kwargs,
    )
    tickets = [service.submit(query, 0.1) for query in WORKLOAD]
    outcomes = service.run()
    return service, tickets, outcomes


def run_sharded(small_network, workers, **kwargs):
    with QueryService(
        small_network, CONFIG, seed=99,
        workers=workers, capture_traces=True, **kwargs,
    ) as service:
        tickets = [service.submit(query, 0.1) for query in WORKLOAD]
        outcomes = service.run()
    return service, tickets, outcomes


def service_with_backend(network, workers, **backend_kwargs):
    """A traced QueryService around an explicitly-built ForkedBackend.

    The service API deliberately does not surface the transport knob
    (``measure_transport``); tests that need it construct the backend
    directly with settings matching the service defaults.
    """
    settings_ = EngineSettings(
        config=CONFIG, chunk_peers=8, max_age=25, decay=0.7,
        delta_reestimation=False,
    )
    backend = ForkedBackend(network, settings_, workers, **backend_kwargs)
    return QueryService(
        network, CONFIG, seed=99, backend=backend, capture_traces=True
    )


def answer(result):
    """What a served result says: the estimate, or the group vector."""
    if result is None:
        return None
    if isinstance(result, GroupByResult):
        return result.groups
    return result.estimate


def assert_outcomes_identical(reference, candidate):
    assert len(reference) == len(candidate) == len(WORKLOAD)
    for a, b in zip(reference, candidate):
        assert a.ticket.query_id == b.ticket.query_id
        assert a.status == b.status == "done"
        assert a.result.estimate == b.result.estimate
        assert a.result.scale == b.result.scale
        assert a.result.cost == b.result.cost
        assert (
            a.result.confidence_interval.half_width
            == b.result.confidence_interval.half_width
        )


class TestShardedParity:
    """serial == sharded, pinned on the full mixed workload."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sharded_results_equal_inline(self, small_network, workers):
        _, _, inline = run_inline(small_network, 1)
        _, _, sharded = run_sharded(small_network, workers)
        assert_outcomes_identical(inline, sharded)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_sharded_traces_equal_inline(self, small_network, workers):
        inline_svc, inline_tickets, _ = run_inline(small_network, 1)
        shard_svc, shard_tickets, _ = run_sharded(small_network, workers)
        for it, st_ in zip(inline_tickets, shard_tickets):
            inline_trace = inline_svc.trace(it)
            sharded_trace = shard_svc.trace(st_)
            assert inline_trace.lines == sharded_trace.lines
            assert inline_trace.digest() == sharded_trace.digest()

    def test_sharded_stats_equal_inline(self, small_network):
        # The per-worker caches partition the inline cache by
        # signature: the *summed* counters must be identical.  Ticks
        # are a scheduling artifact and legitimately differ.
        inline_svc, _, _ = run_inline(small_network, 4)
        shard_svc, _, _ = run_sharded(small_network, 4)
        a, b = inline_svc.stats(), shard_svc.stats()
        for field in (
            "submitted", "completed", "failed", "rejected",
            "warm_runs", "cold_runs", "delta_runs",
            "cache_hits", "cache_misses",
            "churn_invalidations", "delta_hits",
        ):
            assert getattr(a, field) == getattr(b, field), field
        assert b.warm_runs == b.cache_hits == 4
        assert b.cold_runs == b.cache_misses == 4

    def test_trace_diff_tool_sees_identical_runs(
        self, small_network, tmp_path
    ):
        inline_svc, _, _ = run_inline(small_network, 1)
        shard_svc, _, _ = run_sharded(small_network, 4)
        inline_paths = inline_svc.write_traces(tmp_path / "inline")
        shard_paths = shard_svc.write_traces(tmp_path / "sharded")
        assert len(inline_paths) == len(shard_paths) == len(WORKLOAD)
        for left, right in zip(inline_paths, shard_paths):
            assert trace_main(["diff", str(left), str(right)]) == 0

    def test_trace_diff_subprocess_entry_point(
        self, small_network, tmp_path
    ):
        """The documented CLI agrees: a sharded run's trace diffs
        clean against the inline serial reference."""
        inline_svc, _, _ = run_inline(small_network, 1)
        shard_svc, _, _ = run_sharded(small_network, 4)
        left = inline_svc.write_traces(tmp_path / "inline")[0]
        right = shard_svc.write_traces(tmp_path / "sharded")[0]
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.tools.trace", "diff",
                str(left), str(right),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_sharding_is_deterministic_routing(self):
        for query in WORKLOAD:
            signature = query.to_sql()
            owner = shard_for_signature(signature, 4)
            assert owner == shard_for_signature(signature, 4)
            assert 0 <= owner < 4
        assert shard_for_signature("anything", 1) == 0


class TestPropertyParity:
    """Random small workloads: sharding never changes answers."""

    POOL = [COUNT_30, SUM_50, AVG_ALL]

    @settings(max_examples=6, deadline=None)
    @given(
        picks=st.lists(
            st.integers(min_value=0, max_value=2), min_size=2, max_size=5
        ),
        workers=st.sampled_from([1, 2, 4]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_sharded_equals_inline(
        self, small_network, picks, workers, seed
    ):
        queries = [self.POOL[i] for i in picks]
        config = TwoPhaseConfig(max_phase_two_peers=60)

        def run(**backend_kwargs):
            with QueryService(
                small_network, config, seed=seed,
                chunk_peers=5, capture_traces=True, **backend_kwargs,
            ) as service:
                tickets = [service.submit(q, 0.15) for q in queries]
                service.run()
                outcomes = [service.outcome(t) for t in tickets]
                digests = [service.trace(t).digest() for t in tickets]
            return outcomes, digests

        inline, inline_digests = run(max_in_flight=1)
        sharded, sharded_digests = run(workers=workers)
        assert inline_digests == sharded_digests
        for a, b in zip(inline, sharded):
            assert a.status == b.status
            assert a.result.estimate == b.result.estimate
            assert a.result.cost == b.result.cost


@pytest.fixture(scope="module")
def other_network(small_dataset):
    """A second snapshot (different population) to rebind onto."""
    return NetworkSimulator(
        power_law_topology(150, 600, seed=11),
        small_dataset.databases[:150],
        seed=13,
    )


class TestInterleavingParity:
    """Control calls woven through live traffic change nothing.

    Arbitrary interleavings of submit bursts, single ticks, trace
    reads (with job replies possibly in flight) and rebinds (one
    ``_Rebind`` and one acknowledgement per worker) must leave every
    outcome, ledger, cache counter and trace identical to the inline
    service driven through the same script — and the backend idle.

    Every submission draws its own budget, so the jobs are mixed:
    some run a take per phase, some are cut (and stopped) every
    ``chunk_peers`` visits.  A query's chunk boundaries are a function
    of its own job, which is what keeps ``chunks`` and the traces equal
    across serial, concurrent and sharded service.
    """

    POOL = [COUNT_30, SUM_50, AVG_ALL, *MIXED[1:]]

    BUDGETS = [
        None,
        CostBudget(),
        CostBudget(max_visits=20),
        CostBudget(max_hops=150),
    ]

    OPS = st.one_of(
        st.tuples(
            st.just("burst"),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=6),
                    st.integers(min_value=0, max_value=3),
                ),
                min_size=1, max_size=4,
            ),
        ),
        st.tuples(st.just("tick"), st.none()),
        st.tuples(st.just("read"), st.integers(min_value=0)),
        st.tuples(st.just("rebind"), st.none()),
    )

    def _drive(self, service, networks, script):
        tickets = []
        bound = 0
        for op, arg in script:
            if op == "burst":
                tickets.extend(
                    service.submit(
                        self.POOL[pick], 0.15, budget=self.BUDGETS[budget]
                    )
                    for pick, budget in arg
                )
            elif op == "tick":
                service.tick()
            elif op == "read":
                resolved = [
                    t for t in tickets if service.outcome(t) is not None
                ]
                if resolved:
                    assert service.trace(resolved[arg % len(resolved)]).lines
            else:
                # Rebind needs an idle service; what was in flight
                # resolves against the snapshot it was submitted to.
                service.run()
                bound = 1 - bound
                service.rebind(networks[bound])
        service.run()
        assert service.idle and service.backend.idle
        outcomes = [service.outcome(t) for t in tickets]
        traces = [service.trace(t) for t in tickets]
        return (
            [
                (
                    o.status, o.detail, o.chunks, o.cost,
                    answer(o.result),
                )
                for o in outcomes
            ],
            [(t.digest(), t.lines) for t in traces],
            dataclasses.replace(service.stats(), ticks=0),
        )

    @settings(max_examples=10, deadline=None)
    @given(
        script=st.lists(OPS, min_size=1, max_size=10),
        workers=st.sampled_from([1, 2]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_any_interleaving_equals_inline(
        self, small_network, other_network, script, workers, seed
    ):
        networks = [small_network, other_network]
        config = TwoPhaseConfig(max_phase_two_peers=60)

        def run(**backend_kwargs):
            with QueryService(
                small_network, config, seed=seed,
                chunk_peers=5, capture_traces=True, **backend_kwargs,
            ) as service:
                return self._drive(service, networks, script)

        serial = run(max_in_flight=1)
        assert run(max_in_flight=4) == serial
        assert run(workers=workers) == serial


class TestMixedEngines:
    """The service answers every query its parser accepts with the
    engine the query names, on both backends, and every kind is served
    warm when its signature repeats."""

    STREAM = [*MIXED, SUM_50, *MIXED]

    def serve(self, network, workers, config=CONFIG, **submit):
        with QueryService(
            network, config, seed=99, workers=workers, max_in_flight=4,
            capture_traces=True,
        ) as service:
            tickets = [
                service.submit(query, 0.1, **submit) for query in self.STREAM
            ]
            service.run()
            outcomes = [service.outcome(ticket) for ticket in tickets]
            traces = [service.trace(ticket).lines for ticket in tickets]
            return outcomes, traces, service.stats()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_kind_is_served_and_warms_alike(
        self, small_network, workers
    ):
        inline, inline_traces, inline_stats = self.serve(small_network, None)
        forked, forked_traces, forked_stats = self.serve(
            small_network, workers
        )
        kinds = [type(outcome.result) for outcome in inline]
        assert kinds[:5] == [
            ApproximateResult, MedianResult, MedianResult, GroupByResult,
            GroupByResult,
        ]
        for a, b in zip(inline, forked):
            assert (a.status, a.chunks, a.cost) == ("done", b.chunks, b.cost)
            assert answer(a.result) == answer(b.result)
            assert type(a.result) is type(b.result)
        assert inline_traces == forked_traces
        # The first pass is cold, the repeat of every signature warm.
        warm = len(MIXED)
        for stats in (inline_stats, forked_stats):
            assert (stats.cold_runs, stats.warm_runs) == (warm + 1, warm)
            assert (stats.cache_misses, stats.cache_hits) == (warm + 1, warm)
            assert stats.plan_entries == warm + 1
        for lines in inline_traces[-warm:]:
            assert any('"phase":"warm"' in line for line in lines)

    @pytest.mark.chaos
    @pytest.mark.parametrize("workers", [None, 2])
    def test_a_faulted_median_is_degraded_or_typed(
        self, small_network, workers
    ):
        """Under the timed chaos workload's plan a served MEDIAN
        resolves done (possibly degraded) or with the engine's own
        typed error — never a ServiceError around a raw exception."""
        topology = small_network.topology
        simulator = EventDrivenSimulator(
            topology, small_network.databases(), seed=1,
            fault_plan=FaultPlan(
                seed=5,
                crashes=tuple(
                    CrashWindow(peer_id=peer, start=0, stop=10**9)
                    for peer in range(0, topology.num_peers, 17)
                ),
                reply_loss=0.1,
                latency_spike=LatencySpike(rate=0.05, extra_ms=400.0),
                probe_timeout_ms=250.0,
            ),
            latency=LatencyModel(
                seed=3, request=ExponentialLatency(20.0),
                reply=ExponentialLatency(20.0), hop=ConstantLatency(1.0),
            ),
            probe_timeout_ms=250.0,
        )
        config = TwoPhaseConfig(
            max_phase_two_peers=400, retry_policy=RetryPolicy(max_attempts=3)
        )
        outcomes, _, stats = self.serve(
            simulator, workers, config, deadline_ms=60_000.0
        )
        assert stats.warm_runs == len(MIXED)
        for outcome in outcomes:
            if outcome.status == "done":
                continue
            assert outcome.status == "failed"
            assert isinstance(outcome.error, ReproError)
            assert not isinstance(outcome.error, ServiceError)


class TestWorkerFailure:
    """A job that raises inside its shard worker fails *that* query."""

    def test_worker_side_exception_resolves_typed_and_bounded(
        self, small_network, other_network, monkeypatch
    ):
        """Regression: the bare exception used to surface from
        ``run()`` with no query id and leave the ticket outstanding —
        the service never went idle again, the next ``run()`` sat out
        the pool's whole silence bound, and rebind was refused
        forever."""
        real_build = backend_module.build_task

        def build_or_raise(simulator, settings_, cache, job):
            if job.query_id == 1:
                raise RuntimeError("kaboom")
            return real_build(simulator, settings_, cache, job)

        # Patched before the fork, so the worker inherits it.
        monkeypatch.setattr(backend_module, "build_task", build_or_raise)
        with QueryService(
            small_network, CONFIG, seed=99, workers=1
        ) as service:
            tickets = [
                service.submit(query, 0.1)
                for query in (COUNT_30, SUM_50, AVG_ALL)
            ]
            outcomes = service.run()
            assert service.idle
            assert [o.status for o in outcomes] == [
                "done", "failed", "done"
            ]
            error = outcomes[1].error
            assert isinstance(error, ServiceError)
            assert "query 1" in str(error)
            assert "RuntimeError('kaboom')" in str(error)
            with pytest.raises(ServiceError, match="query 1"):
                service.await_result(tickets[1])
            stats = service.stats()
            assert (stats.completed, stats.failed) == (2, 1)
            # Still serving: nothing is owed, so rebind goes through.
            service.rebind(other_network)
            assert service.await_result(
                service.submit(COUNT_30, 0.1)
            ) is not None


class TestFailureParity:
    """A query that cannot be served resolves ``failed`` the same way
    on both backends, and the service keeps serving."""

    @staticmethod
    def serve(network, workers, queries):
        with QueryService(
            network, CONFIG, seed=99, workers=workers
        ) as service:
            for query, delta_req in queries:
                service.submit(query, delta_req)
            outcomes = service.run()
            stats = service.stats()
        assert stats.in_flight == 0 and stats.queued == 0
        return outcomes, stats

    @pytest.mark.parametrize("workers", [None, 1], ids=["inline", "forked"])
    @pytest.mark.parametrize(
        "delta_req", [0.0, -0.1, 1.5, float("nan")],
        ids=["zero", "negative", "above-one", "nan"],
    )
    def test_a_warm_query_with_a_bad_delta_fails_before_the_lookup(
        self, small_network, workers, delta_req
    ):
        """Regression: a warm query skipped the loop's range check —
        Δ 0 raised a raw ``ZeroDivisionError`` out of an inline tick
        (then resolved ``done`` with no result), Δ 1.5 and −0.1 were
        served, and only NaN failed."""
        outcomes, stats = self.serve(
            small_network, workers,
            [(COUNT_30, 0.1), (COUNT_30, delta_req)],
        )
        assert [o.status for o in outcomes] == ["done", "failed"]
        failed = outcomes[1]
        assert not failed.ok and failed.result is None
        assert isinstance(failed.error, SamplingError)
        assert "delta_req must be in (0, 1]" in failed.detail
        # The check ran before the plan cache was read.
        assert (stats.cache_hits, stats.cache_misses) == (0, 1)
        assert (stats.cold_runs, stats.warm_runs) == (1, 0)

    def test_a_raising_engine_fails_alike_on_both_backends(
        self, small_network, monkeypatch
    ):
        """Regression: the inline backend let a non-``ReproError``
        escape ``tick()`` and later reported the dead query ``done``
        with no result, where a shard worker resolved it ``failed``."""
        analyze = TwoPhaseEngine._analyze

        def analyze_or_raise(self, query, sample, delta_req):
            if query == SUM_50:
                raise RuntimeError("kaboom")
            return analyze(self, query, sample, delta_req)

        # Patched before the fork, so the worker inherits it.
        monkeypatch.setattr(TwoPhaseEngine, "_analyze", analyze_or_raise)
        queries = [(COUNT_30, 0.1), (SUM_50, 0.1), (AVG_ALL, 0.1)]
        inline, inline_stats = self.serve(small_network, None, queries)
        forked, forked_stats = self.serve(small_network, 1, queries)
        for outcomes in (inline, forked):
            assert [o.status for o in outcomes] == [
                "done", "failed", "done"
            ]
            error = outcomes[1].error
            assert isinstance(error, ServiceError)
            assert str(error) == "query 1 failed: RuntimeError('kaboom')"
        assert [(o.status, o.detail, o.chunks) for o in inline] == [
            (o.status, o.detail, o.chunks) for o in forked
        ]
        assert (inline_stats.completed, inline_stats.failed) == (2, 1)
        assert (forked_stats.completed, forked_stats.failed) == (2, 1)


class TestShardedLifecycle:
    def test_close_is_idempotent_and_reaps_workers(self, small_network):
        service = QueryService(
            small_network, CONFIG, seed=99, workers=2
        )
        service.await_result(service.submit(COUNT_30, 0.1))
        service.close()
        service.close()  # idempotent
        assert service.backend._fork_pool.alive_workers() == []

    def test_submit_after_close_raises(self, small_network):
        service = QueryService(
            small_network, CONFIG, seed=99, workers=2
        )
        service.close()
        with pytest.raises(ServiceError):
            service.submit(COUNT_30, 0.1)

    def test_cache_lives_in_the_workers(self, small_network):
        with QueryService(
            small_network, CONFIG, seed=99, workers=2
        ) as service:
            service.await_result(service.submit(COUNT_30, 0.1))
            service.await_result(service.submit(COUNT_30, 0.1))
            with pytest.raises(ServiceError, match="worker"):
                service.cache
            stats = service.stats()
            assert stats.cache_misses == 1
            assert stats.cache_hits == 1
            assert stats.warm_runs == 1

    def test_rebind_churn_invalidates_sharded(
        self, small_network, small_dataset
    ):
        with QueryService(
            small_network, CONFIG, seed=99, workers=2
        ) as service:
            service.await_result(service.submit(COUNT_30, 0.1))
            assert service.stats().cold_runs == 1

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

    def test_rebind_requires_idle(self, small_network):
        with QueryService(
            small_network, CONFIG, seed=99, workers=2
        ) as service:
            service.submit(COUNT_30, 0.1)
            with pytest.raises(ServiceError):
                service.rebind(small_network)
            service.run()

    def test_rebind_after_close_exports_nothing(
        self, small_network, monkeypatch
    ):
        """Regression: a closed backend's rebind exported a segment,
        then unlinked it and failed with ``WorkerPoolError``."""
        service = QueryService(
            small_network, CONFIG, seed=99, workers=2
        )
        service.close()
        exports = []
        real_export = backend_module.ForkedBackend._export

        def counting(simulator):
            exports.append(simulator)
            return real_export(simulator)

        monkeypatch.setattr(
            backend_module.ForkedBackend, "_export",
            staticmethod(counting),
        )
        with pytest.raises(ServiceError, match="closed"):
            service.rebind(small_network)
        assert exports == []

    @pytest.mark.parametrize("deadline_ms", [100.0, 0.0, -1.0])
    def test_deadline_validation_matches_inline(
        self, small_network, deadline_ms
    ):
        """A deadline against a clockless snapshot fails at submit
        with the same error either way — and burns a query id either
        way, so submission-order seeding stays aligned.

        Both backends call the simulator's own ``validate_deadline``,
        so the precedence is pinned by construction: on a plain
        snapshot the needs-virtual-time error wins even for a
        nonpositive deadline (positivity is the *event-driven*
        simulator's check)."""

        def probe(**backend_kwargs):
            with QueryService(
                small_network, CONFIG, seed=99, **backend_kwargs
            ) as service:
                with pytest.raises(ConfigurationError) as err:
                    service.submit(
                        COUNT_30, 0.1, deadline_ms=deadline_ms
                    )
                follow_up = service.submit(COUNT_30, 0.1)
                service.run()
            return str(err.value), follow_up.query_id

        # The id after the failed submit is 1 in both backends.
        inline_msg, inline_id = probe(max_in_flight=2)
        sharded_msg, sharded_id = probe(workers=2)
        assert inline_msg == sharded_msg
        assert "virtual time" in sharded_msg
        assert inline_id == sharded_id == 1

    def test_workers_and_backend_are_exclusive(self, small_network):
        from repro.service.backend import EngineSettings, InlineBackend

        settings_ = EngineSettings(
            config=CONFIG, chunk_peers=8, max_age=25, decay=0.7,
            delta_reestimation=False,
        )
        backend = InlineBackend(small_network, settings_)
        with pytest.raises(ConfigurationError):
            QueryService(
                small_network, CONFIG, workers=2, backend=backend
            )

    def test_workers_validation(self, small_network):
        with pytest.raises(ConfigurationError):
            QueryService(small_network, CONFIG, workers=0)


class TestSharedPoolBehaviour:
    """run_trials and QueryService(workers=N) share one pool layer."""

    def test_oversubscription_warning_is_shared_once_per_process(
        self, small_network, monkeypatch
    ):
        import warnings as warnings_module

        from repro.experiments.configs import synthetic_bundle
        from repro.experiments.runner import run_trials

        monkeypatch.setattr(pool, "available_cores", lambda: 1)
        monkeypatch.setattr(pool, "_WORKER_CAP_WARNED", False)
        with pytest.warns(RuntimeWarning, match="QueryService"):
            QueryService(
                small_network, CONFIG, seed=99, workers=4
            ).close()
        # The flag is process-wide: the *other* entry point stays
        # silent now that the warning has fired once.
        bundle = synthetic_bundle(scale=0.02, seed=5)
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", RuntimeWarning)
            run_trials(bundle, COUNT_30, 0.1, trials=2, seed=1, workers=4)
            QueryService(
                small_network, CONFIG, seed=99, workers=4
            ).close()

    def test_service_does_not_cap_workers(self, small_network, monkeypatch):
        # run_trials caps at the core count (work is embarrassingly
        # parallel); the sharded service must NOT cap — signature
        # routing needs exactly the requested shard count.
        monkeypatch.setattr(pool, "available_cores", lambda: 1)
        with QueryService(
            small_network, CONFIG, seed=99, workers=3
        ) as service:
            assert service.backend.workers == 3

    def test_fault_plans_force_the_serial_trial_path(self, small_network):
        from repro.network.faults import FaultPlan

        faulty = NetworkSimulator(
            small_network.topology,
            small_network.databases(),
            seed=7,
            fault_plan=FaultPlan(seed=11, reply_loss=0.2),
        )
        reason = pool.shared_fault_serial_reason(faulty)
        assert reason is not None and "fault" in reason
        assert pool.shared_fault_serial_reason(small_network) is None


def _double(value):
    return value * 2


def _explode(value):
    raise ValueError(f"boom on {value}")


def _die(value):
    import os

    os._exit(3)


def _double_or_explode(value):
    if value < 0:
        raise ValueError(f"boom on {value}")
    return value * 2


def _die_on_marker(value):
    if value == "die":
        os._exit(3)
    return value


class TestForkPool:
    def test_run_forked_map_preserves_order(self):
        items = list(range(23))
        results = pool.run_forked_map(_double, items, 3, name="t-map")
        assert results == [value * 2 for value in items]

    def test_worker_exception_propagates(self):
        with pool.ForkPool(2, _explode, name="t-raise") as fork_pool:
            fork_pool.send(0, 0, 7)
            with pytest.raises(ValueError, match="boom on 7"):
                fork_pool.recv()

    def test_worker_crash_is_detected(self):
        with pool.ForkPool(2, _die, name="t-crash") as fork_pool:
            fork_pool.send(1, 0, "job")
            with pytest.raises(WorkerPoolError):
                fork_pool.recv(poll_s=0.01, max_polls=500)

    def test_close_is_idempotent_and_reaps(self):
        fork_pool = pool.ForkPool(2, _double, name="t-close")
        fork_pool.send(0, 0, 21)
        assert fork_pool.recv()[2] == 42
        fork_pool.close()
        fork_pool.close()
        assert fork_pool.closed
        assert fork_pool.alive_workers() == []

    def test_effective_workers_validation(self):
        with pytest.raises(ConfigurationError):
            pool.effective_workers(0)

class TestBatchedPool:
    """send_many/recv_many: one queue message per batch, no reply loss."""

    def test_send_many_round_trips_in_order(self):
        with pool.ForkPool(2, _double, name="t-batch") as fork_pool:
            fork_pool.send_many(0, [(tag, tag) for tag in range(5)])
            fork_pool.send_many(1, [(9, 100)])
            got = []
            while len(got) < 6:
                got.extend(fork_pool.recv_many())
            worker0 = [
                (tag, payload)
                for worker, tag, payload in got
                if worker == 0
            ]
            assert worker0 == [(tag, tag * 2) for tag in range(5)]
            assert (1, 9, 200) in got

    def test_send_many_empty_is_a_noop(self):
        with pool.ForkPool(1, _double, name="t-empty") as fork_pool:
            fork_pool.send_many(0, [])
            fork_pool.send(0, 0, 3)
            # FIFO inbox: anything the empty batch produced would
            # arrive ahead of this reply.
            assert fork_pool.recv_many() == [(0, 0, 6)]

    def test_send_many_validates_worker(self):
        with pool.ForkPool(1, _double, name="t-val") as fork_pool:
            with pytest.raises(ConfigurationError):
                fork_pool.send_many(7, [(0, 1)])

    def test_batch_exception_fills_its_slot_only(self):
        """One bad job in a batch fails *that* job: the replies before
        it are delivered first, the exception surfaces on the next
        call, and the replies after it are still there."""
        with pool.ForkPool(1, _double_or_explode, name="t-slot") as fp:
            fp.send_many(0, [(0, 2), (1, -1), (2, 4)])
            assert fp.recv_many() == [(0, 0, 4)]
            with pytest.raises(ValueError, match="boom on -1"):
                fp.recv_many()
            assert fp.recv()[2] == 8

    def test_worker_crash_mid_batch_is_typed_not_a_hang(self):
        """A worker dying partway through a batch loses nothing it
        finished: the reply of the job before the crash is delivered,
        then the death surfaces as WorkerPoolError, not a hang."""
        with pool.ForkPool(2, _die_on_marker, name="t-mid") as fp:
            fp.send_many(0, [(0, "ok"), (1, "die"), (2, "ok")])
            assert fp.recv_many(poll_s=0.01, max_polls=1000) == [
                (0, 0, "ok")
            ]
            with pytest.raises(WorkerPoolError, match="died"):
                fp.recv_many(poll_s=0.01, max_polls=1000)
            with pytest.raises(WorkerPoolError, match="dead"):
                fp.send(0, 3, "ok")


#: Larger than a pipe's default capacity (64 KiB on Linux, less
#: elsewhere).
_PAST_PIPE = 1 << 18


def _gated(event, item):
    """``"gated"`` waits for the parent's event; anything else echoes."""
    if item == "gated":
        return event.wait(2.0)
    return item


def _threads(_item):
    return threading.active_count()


def _large(item):
    return bytes([item % 256]) * _PAST_PIPE


def _large_padded(item):
    index, _padding = item
    return _large(index)


def _large_then_signal(event, item):
    event.set()
    return _large(item)


class TestStreamedReplies:
    """A reply leaves its worker when its job ends, over that worker's
    own pipe, with no thread on either side and no deadlock or hang
    when both directions fill their pipes."""

    def test_early_reply(self):
        """The fast job's reply arrives while its batch's gated job is
        still waiting; the gated job sees the event the parent sets
        only after that reply."""
        event = multiprocessing.get_context("fork").Event()
        handler = functools.partial(_gated, event)
        with pool.ForkPool(1, handler, name="t-early") as fp:
            fp.send_many(0, [(0, "fast"), (1, "gated")])
            assert fp.recv() == (0, 0, "fast")
            event.set()
            assert fp.recv() == (0, 1, True)

    def test_neither_side_runs_a_thread(self):
        before = threading.active_count()
        with pool.ForkPool(2, _threads, name="t-threads") as fp:
            # The second job runs after the first reply has left.
            for tag in range(2):
                fp.send(0, tag, None)
                assert fp.recv() == (0, tag, 1)
            assert threading.active_count() == before

    def test_no_deadlock_mapping_replies_past_the_pipe(self):
        items = list(range(6))
        results = pool.run_forked_map(_large, items, 2, name="t-big-map")
        assert results == [_large(item) for item in items]

    def test_no_deadlock_burst_past_the_pipe_while_replies_stream(self):
        """Each job batch and each reply is larger than its pipe, and
        every burst is sent before any reply is read."""
        padding = b"p" * (_PAST_PIPE // 2)
        with pool.ForkPool(2, _large_padded, name="t-big-burst") as fp:
            for burst in range(3):
                for worker in range(2):
                    fp.send_many(worker, [
                        (tag, (tag, padding))
                        for tag in range(burst * 4, burst * 4 + 4)
                    ])
            got = []
            while len(got) < 2 * 3 * 4:
                got.extend(fp.recv_many())
        assert sorted((worker, tag) for worker, tag, _ in got) == [
            (worker, tag) for worker in range(2) for tag in range(12)
        ]
        assert all(payload == _large(tag) for _, tag, payload in got)

    def test_close_reaps_a_worker_blocked_writing(self):
        """A worker blocked on a reply nobody reads exits on its own
        (EPIPE) when the pool closes; it is not terminated.  A pool
        forked while this one is alive holds none of its pipe ends,
        or the EPIPE would never come."""
        event = multiprocessing.get_context("fork").Event()
        handler = functools.partial(_large_then_signal, event)
        fp = pool.ForkPool(1, handler, name="t-blocked")
        with pool.ForkPool(1, _double, name="t-younger"):
            fp.send(0, 0, 1)
            assert event.wait(10.0)
            fp.close()
        assert fp.alive_workers() == []
        assert fp._processes[0].exitcode == 0


class TestLazyTraceTransport:
    """Trace shipping: a traced reply carries its lines and digest."""

    def test_fetch_interleaved_with_live_traffic(self, small_network):
        service = service_with_backend(small_network, 2)
        try:
            first = service.submit(COUNT_30, 0.1)
            service.await_result(first)
            later = [service.submit(query, 0.1) for query in WORKLOAD]
            service.tick()  # flush the batch so replies are in flight
            # Reading the early trace mid-workload must not drop any
            # of the job replies still arriving.
            assert service.trace(first).lines
            service.run()
            outcomes = [service.outcome(ticket) for ticket in later]
            assert all(o is not None and o.ok for o in outcomes)
        finally:
            service.close()

    def test_pump_exception_preserves_folded_replies(
        self, small_network, monkeypatch
    ):
        """Regression: a bad payload mid-drain used to discard every
        reply pump had already folded (tickets popped, replies gone)."""
        service = service_with_backend(small_network, 1)
        try:
            backend = service.backend
            service.submit(COUNT_30, 0.1)
            real = backend._fork_pool.recv_many

            def poisoned(**kwargs):
                return list(real(**kwargs)) + [(0, 99, ("garbage",))]

            monkeypatch.setattr(
                backend._fork_pool, "recv_many", poisoned
            )
            with pytest.raises(ServiceError, match="wire payload"):
                backend.pump()
            # The reply folded before the poison survived the raise.
            assert len(backend._ready) == 1
            monkeypatch.setattr(backend._fork_pool, "recv_many", real)
            assert len(backend.pump()) == 1
            assert backend.idle
        finally:
            service.close()

    def test_trace_lines_survive_their_workers(self, small_network):
        inline_svc, inline_tickets, _ = run_inline(small_network, 1)
        service = service_with_backend(small_network, 2)
        tickets = [service.submit(query, 0.1) for query in WORKLOAD]
        service.run()
        for process in service.backend._fork_pool._processes:
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=10)
        service.close()  # must not hang, and has nothing to fetch
        for inline_ticket, ticket in zip(inline_tickets, tickets):
            inline_trace = inline_svc.trace(inline_ticket)
            trace = service.trace(ticket)
            assert trace.lines == inline_trace.lines
            assert trace.num_events == inline_trace.num_events
            assert trace.digest() == inline_trace.digest()

    def test_transport_accounting(self, small_network):
        service = service_with_backend(
            small_network, 1, measure_transport=True
        )
        try:
            tickets = [service.submit(query, 0.1) for query in WORKLOAD]
            service.run()
            stats = service.backend.transport_stats()
            trace_bytes = sum(
                len(line)
                for ticket in tickets
                for line in service.trace(ticket).lines
            )
        finally:
            service.close()
        # Every submit happened before the first pump, so the whole
        # workload crossed as ONE job message (that's the batching).
        assert stats.job_messages == 1
        assert stats.replies == len(WORKLOAD)
        assert stats.total_bytes == stats.job_bytes + stats.reply_bytes
        # Trace lines ride the replies: all replies together are at
        # least as large as the trace text they carry.
        assert stats.reply_bytes >= trace_bytes > 0

    def test_transport_stats_require_opt_in(self, small_network):
        with QueryService(
            small_network, CONFIG, seed=99, workers=1
        ) as service:
            with pytest.raises(ConfigurationError, match="transport"):
                service.backend.transport_stats()

class TestShmLifecycle:
    """The creator-unlinks-once rule survives every failure path."""

    def test_init_failure_unlinks_segment(
        self, small_network, monkeypatch
    ):
        """Regression: a ForkPool that fails to come up after the
        snapshot export must not leak the /dev/shm segment."""
        captured = {}
        real_export = backend_module.export_snapshot

        def capturing(simulator):
            pack = real_export(simulator)
            captured["segment"] = pack.manifest.segment
            return pack

        monkeypatch.setattr(
            backend_module, "export_snapshot", capturing
        )

        def refuse(*args, **kwargs):
            raise RuntimeError("fork refused")

        monkeypatch.setattr(pool, "ForkPool", refuse)
        with pytest.raises(RuntimeError, match="fork refused"):
            QueryService(small_network, CONFIG, seed=99, workers=2)
        assert "segment" in captured
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=captured["segment"])

    def test_rebind_export_failure_leaves_service_intact(
        self, small_network, small_dataset, monkeypatch
    ):
        """Regression: a rebind whose export raises must leave the old
        pack, simulator and worker caches fully serving."""
        with QueryService(
            small_network, CONFIG, seed=99, workers=2
        ) as service:
            assert service.await_result(
                service.submit(COUNT_30, 0.1)
            ) is not None
            old_segment = service.backend._pack.manifest.segment

            def refuse(simulator):
                raise RuntimeError("no segment for you")

            monkeypatch.setattr(
                backend_module.ForkedBackend, "_export",
                staticmethod(refuse),
            )
            other = NetworkSimulator(
                power_law_topology(150, 600, seed=11),
                small_dataset.databases[:150],
                seed=13,
            )
            with pytest.raises(RuntimeError, match="no segment"):
                service.rebind(other)
            # Old pack intact, old snapshot still bound, caches warm.
            assert (
                service.backend._pack.manifest.segment == old_segment
            )
            assert service.await_result(
                service.submit(COUNT_30, 0.1)
            ) is not None
            stats = service.stats()
            assert stats.warm_runs == 1
            assert stats.churn_invalidations == 0

    def test_rebind_bad_ack_is_unwound(
        self, small_network, small_dataset, monkeypatch
    ):
        """Regression: a rebind whose acknowledgement is bad must
        unlink the staged segment and keep the old one."""
        with QueryService(
            small_network, CONFIG, seed=99, workers=2
        ) as service:
            old_segment = service.backend._pack.manifest.segment
            staged = []
            real_export = backend_module.ForkedBackend._export

            def capturing(simulator):
                pack = real_export(simulator)
                staged.append(pack.manifest.segment)
                return pack

            monkeypatch.setattr(
                backend_module.ForkedBackend, "_export",
                staticmethod(capturing),
            )
            monkeypatch.setattr(
                service.backend._fork_pool, "recv",
                lambda: (0, 0, "nonsense"),
            )
            other = NetworkSimulator(
                power_law_topology(150, 600, seed=11),
                small_dataset.databases[:150],
                seed=13,
            )
            with pytest.raises(ServiceError, match="rebind"):
                service.rebind(other)
            # The staged segment is gone; the old one still backs us.
            assert (
                service.backend._pack.manifest.segment == old_segment
            )
            assert len(staged) == 1
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=staged[0])

    def test_worker_crash_leaves_no_orphaned_segment(
        self, small_network
    ):
        service = QueryService(
            small_network, CONFIG, seed=99, workers=2
        )
        segment = service.backend._pack.manifest.segment
        for _ in range(4):
            service.submit(COUNT_30, 0.1)
            service.submit(SUM_50, 0.1)
        for process in service.backend._fork_pool._processes:
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=10)
        with pytest.raises(WorkerPoolError):
            service.run()
        service.close()
        assert service.backend._fork_pool.alive_workers() == []
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=segment)


@pytest.mark.slow
class TestShardedSoak:
    """500+ queries through a 4-worker service under backpressure."""

    BATCHES = 5
    BATCH_SIZE = 104  # 5 x 104 = 520 queries

    @staticmethod
    def _rss_kib():
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
        raise RuntimeError("VmRSS not found")

    @staticmethod
    def _shm_segments():
        if not os.path.isdir("/dev/shm"):
            return set()
        return set(os.listdir("/dev/shm"))

    def test_soak_no_deadlock_no_orphans_stable_rss(self, small_network):
        queries = [COUNT_30, SUM_50, AVG_ALL,
                   parse_query("SELECT SUM(A) FROM T")]
        shm_before = self._shm_segments()
        service = QueryService(
            small_network, CONFIG, seed=99, workers=4, max_queue=32,
        )
        rss_per_batch = []
        completed = 0
        try:
            for _ in range(self.BATCHES):
                tickets = []
                for index in range(self.BATCH_SIZE):
                    query = queries[index % len(queries)]
                    while True:
                        try:
                            tickets.append(service.submit(query, 0.1))
                            break
                        except AdmissionError:
                            # Backpressure: drain some replies, retry.
                            service.tick()
                service.run()
                outcomes = [service.outcome(t) for t in tickets]
                assert all(o is not None and o.ok for o in outcomes)
                completed += len(outcomes)
                rss_per_batch.append(self._rss_kib())
        finally:
            service.close()
        assert completed == self.BATCHES * self.BATCH_SIZE
        assert service.idle
        stats = service.stats()
        assert stats.completed == completed
        assert stats.rejected > 0  # backpressure actually engaged
        # Repeat signatures serve warm, modulo max_age re-planning.
        assert stats.warm_runs + stats.cold_runs == completed
        assert stats.warm_runs > completed * 0.9
        # Clean shutdown: close() reaped every worker, twice is safe.
        service.close()
        assert service.backend._fork_pool.alive_workers() == []
        # Nothing left behind in /dev/shm: the snapshot segment was
        # unlinked exactly once, by its creator.
        leaked = self._shm_segments() - shm_before
        assert not leaked, f"leaked shared-memory segments: {leaked}"
        # Steady state: RSS after the first batch may include lazily
        # built caches; later batches must not grow it materially.
        assert rss_per_batch[-1] - rss_per_batch[0] < 64 * 1024, (
            f"RSS grew across batches: {rss_per_batch} KiB"
        )
