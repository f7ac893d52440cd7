"""Chaos scenarios for the query-serving layer.

The service's determinism invariant has to survive fault injection:
every query's session carries its own failure RNG and fault clock, so
a faulty workload run concurrently must still be bit-identical to the
same workload run serially — the *same* probes fail either way.  And
the per-query outcomes must honour the chaos contract: a degraded
result or a typed :class:`~repro.errors.ReproError`, never a silent
wrong answer.
"""

import os
from pathlib import Path

import numpy as np
import pytest

import repro._pool as pool
from repro.core.groupby import GroupByEngine
from repro.core.two_phase import PlanCache, TwoPhaseConfig
from repro.data.flat import FlatDataset
from repro.errors import DeadlineExceededError
from repro.network.churn import ChurnConfig
from repro.network.faults import CrashWindow, FaultPlan, LatencySpike
from repro.network.live import LiveNetwork
from repro.network.simulator import NetworkSimulator
from repro.network.walker import ResilientCollector, RetryPolicy
from repro.query.parser import parse_query
from repro.service import QueryService
from repro.sim.event_driven import EventDrivenSimulator
from repro.sim.latency import ConstantLatency, ExponentialLatency, LatencyModel

pytestmark = pytest.mark.chaos

WORKLOAD = [
    parse_query("SELECT COUNT(A) FROM T"),
    parse_query("SELECT AVG(A) FROM T"),
    parse_query("SELECT COUNT(A) FROM T"),
    parse_query("SELECT SUM(A) FROM T WHERE A BETWEEN 1 AND 50"),
    parse_query("SELECT COUNT(A) FROM T"),
]

PLAN = FaultPlan(
    seed=11,
    reply_loss=0.2,
    crashes=tuple(
        CrashWindow(peer_id=peer, start=0, stop=10**6)
        for peer in range(0, 200, 9)
    ),
    probe_timeout_ms=200.0,
)

CONFIG = TwoPhaseConfig(
    phase_one_peers=40,
    max_phase_two_peers=120,
    retry_policy=RetryPolicy(max_attempts=3, backoff_base_ms=10.0),
)


def faulty_simulator(small_network):
    return NetworkSimulator(
        small_network.topology,
        small_network.databases(),
        seed=7,
        fault_plan=PLAN,
    )


def run_workload(simulator, max_in_flight):
    service = QueryService(
        simulator,
        CONFIG,
        seed=99,
        max_in_flight=max_in_flight,
        chunk_peers=8,
        capture_traces=True,
    )
    tickets = [service.submit(query, 0.1) for query in WORKLOAD]
    service.run()
    return service, tickets


class TestServiceUnderFaults:
    def test_every_outcome_is_degraded_or_typed(self, small_network):
        service, tickets = run_workload(
            faulty_simulator(small_network), max_in_flight=4
        )
        for ticket in tickets:
            outcome = service.outcome(ticket)
            assert outcome is not None
            # The chaos contract: a real (possibly degraded) result or
            # a typed error — never a hang, never a silent bad answer.
            assert outcome.status in ("done", "failed")
            if outcome.ok:
                result = outcome.result
                assert (
                    result.effective_sample_size
                    <= result.requested_sample_size
                )
                if (
                    result.effective_sample_size
                    < result.requested_sample_size
                ):
                    assert result.degraded
            else:
                assert outcome.error is not None
        # The schedule actually injected faults somewhere.
        stats = service.stats()
        assert stats.completed + stats.failed == len(WORKLOAD)

    def test_faulty_workload_is_still_deterministic(self, small_network):
        """Serial and concurrent runs see the *same* injected faults:
        per-query sessions isolate the failure RNG and fault clock."""
        serial_svc, serial_tickets = run_workload(
            faulty_simulator(small_network), max_in_flight=1
        )
        conc_svc, conc_tickets = run_workload(
            faulty_simulator(small_network), max_in_flight=5
        )
        for st, ct in zip(serial_tickets, conc_tickets):
            a = serial_svc.outcome(st)
            b = conc_svc.outcome(ct)
            assert a.status == b.status
            if a.ok:
                assert a.result.estimate == b.result.estimate
                assert a.result.cost == b.result.cost
                assert a.result.degraded == b.result.degraded
                assert (
                    a.result.effective_sample_size
                    == b.result.effective_sample_size
                )
            assert serial_svc.trace(st).lines == conc_svc.trace(ct).lines


def run_workload_sharded(simulator, workers):
    with QueryService(
        simulator,
        CONFIG,
        seed=99,
        workers=workers,
        chunk_peers=8,
        capture_traces=True,
    ) as service:
        tickets = [service.submit(query, 0.1) for query in WORKLOAD]
        service.run()
    return service, tickets


class TestShardedUnderChaos:
    """Fault plans, churn epochs and deadlines with ``workers > 1``
    uphold the degraded-or-typed-error contract and stay byte-for-byte
    equal to the serial reference.  A faulted collection resolves fate
    per probe but reads its survivors' rows from the flat view like a
    clean one, so the view is primed and the shared-memory segment
    exported whether or not a fault plan is bound."""

    @pytest.fixture(autouse=True)
    def _quiet_oversubscription(self, monkeypatch):
        monkeypatch.setattr(pool, "_WORKER_CAP_WARNED", True)

    def test_sharded_faulty_outcomes_uphold_contract(self, small_network):
        service, tickets = run_workload_sharded(
            faulty_simulator(small_network), workers=4
        )
        for ticket in tickets:
            outcome = service.outcome(ticket)
            assert outcome is not None
            assert outcome.status in ("done", "failed")
            if outcome.ok:
                result = outcome.result
                assert (
                    result.effective_sample_size
                    <= result.requested_sample_size
                )
                if (
                    result.effective_sample_size
                    < result.requested_sample_size
                ):
                    assert result.degraded
            else:
                assert outcome.error is not None
        stats = service.stats()
        assert stats.completed + stats.failed == len(WORKLOAD)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_sharded_faulty_workload_matches_serial(
        self, small_network, workers
    ):
        """The *same* probes fail in a worker process as inline: each
        job carries its session's failure RNG and fault clock."""
        serial_svc, serial_tickets = run_workload(
            faulty_simulator(small_network), max_in_flight=1
        )
        shard_svc, shard_tickets = run_workload_sharded(
            faulty_simulator(small_network), workers=workers
        )
        for st, ct in zip(serial_tickets, shard_tickets):
            a = serial_svc.outcome(st)
            b = shard_svc.outcome(ct)
            assert a.status == b.status
            if a.ok:
                assert a.result.estimate == b.result.estimate
                assert a.result.cost == b.result.cost
                assert a.result.degraded == b.result.degraded
                assert (
                    a.result.effective_sample_size
                    == b.result.effective_sample_size
                )
            assert serial_svc.trace(st).lines == shard_svc.trace(ct).lines

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="needs POSIX shared memory"
    )
    def test_faulted_live_snapshot_is_flattened_once_and_mapped(
        self, small_network, monkeypatch
    ):
        """A churn epoch's databases are a hand-built list, so their
        flat view is a concatenation: it happens once, in the parent,
        before the fork — never mid-query, never per worker — and the
        workers map it from one segment."""

        def snapshot():
            live = LiveNetwork(
                small_network.topology,
                small_network.databases(),
                churn_config=ChurnConfig(leave_rate=0.3, join_rate=0.3),
                fault_plan=PLAN,
                seed=5,
            )
            live.step(40)
            return live.snapshot(seed=7)

        serial_svc, serial_tickets = run_workload(
            snapshot(), max_in_flight=1
        )

        parent = os.getpid()
        concatenations = []
        real = FlatDataset.from_databases.__func__

        def guarded(cls, databases):
            if os.getpid() != parent:
                raise AssertionError("a worker concatenated its own view")
            concatenations.append(len(databases))
            return real(cls, databases)

        monkeypatch.setattr(
            FlatDataset, "from_databases", classmethod(guarded)
        )
        simulator = snapshot()
        with QueryService(
            simulator, CONFIG, seed=99, workers=2,
            chunk_peers=8, capture_traces=True,
        ) as service:
            assert concatenations == [simulator.num_peers]
            # Judged by the pack's own segment name: other processes
            # may create and remove segments meanwhile.
            segment = Path("/dev/shm", service.backend._pack.manifest.segment)
            assert segment.exists()
            tickets = [service.submit(query, 0.1) for query in WORKLOAD]
            service.run()
            traces = [service.trace(ticket).lines for ticket in tickets]
        assert concatenations == [simulator.num_peers]
        assert not segment.exists()

        for st, ct, lines in zip(serial_tickets, tickets, traces):
            a = serial_svc.outcome(st)
            b = service.outcome(ct)
            assert a.status == b.status, (a.error, b.error)
            if a.ok:
                assert a.result.estimate == b.result.estimate
                assert a.result.cost == b.result.cost
            assert serial_svc.trace(st).lines == lines
        assert any(
            serial_svc.outcome(ticket).ok for ticket in serial_tickets
        )

    def test_sharded_churn_epoch_matches_serial(self, small_network):
        """A rebind mid-service (churn epoch) re-exports the snapshot
        to the workers; post-churn traffic still matches serial."""

        def epochs(**backend_kwargs):
            with QueryService(
                small_network, CONFIG, seed=99,
                chunk_peers=8, capture_traces=True, **backend_kwargs,
            ) as service:
                first = [service.submit(q, 0.1) for q in WORKLOAD[:2]]
                service.run()
                churned = NetworkSimulator(
                    small_network.topology,
                    small_network.databases(),
                    seed=23,
                    fault_plan=PLAN,
                )
                service.rebind(churned)
                second = [service.submit(q, 0.1) for q in WORKLOAD[2:]]
                service.run()
                outcomes = [
                    service.outcome(t) for t in first + second
                ]
                stats = service.stats()
            return outcomes, stats

        serial, serial_stats = epochs(max_in_flight=1)
        sharded, sharded_stats = epochs(workers=3)
        for a, b in zip(serial, sharded):
            assert a.status == b.status
            if a.ok:
                assert a.result.estimate == b.result.estimate
                assert a.result.cost == b.result.cost
        assert serial_stats.cold_runs == sharded_stats.cold_runs
        assert serial_stats.warm_runs == sharded_stats.warm_runs
        assert (
            serial_stats.churn_invalidations
            == sharded_stats.churn_invalidations
        )

    def test_sharded_deadline_stop_matches_serial(self, small_network):
        """A latency spike past the deadline stops the query with the
        typed error at the same chunk boundary, worker or not."""

        def build():
            return EventDrivenSimulator(
                small_network.topology,
                small_network.databases(),
                seed=7,
                latency=LatencyModel(
                    seed=3,
                    request=ConstantLatency(5.0),
                    reply=ConstantLatency(5.0),
                ),
                fault_plan=FaultPlan(
                    seed=5,
                    latency_spike=LatencySpike(rate=0.5, extra_ms=400.0),
                ),
            )

        def stop(**backend_kwargs):
            with QueryService(
                build(), CONFIG, seed=3, chunk_peers=8, **backend_kwargs
            ) as service:
                ticket = service.submit(
                    WORKLOAD[0], 0.2, deadline_ms=150.0
                )
                with pytest.raises(DeadlineExceededError):
                    service.await_result(ticket)
                outcome = service.outcome(ticket)
                assert outcome.status == "deadline-exceeded"
                assert service.stats().deadline_stopped == 1
            return outcome

        serial = stop(max_in_flight=1)
        sharded = stop(workers=2)
        assert serial.detail == sharded.detail
        assert serial.cost == sharded.cost
        assert serial.chunks == sharded.chunks


def chaos_timed_simulator(small_network):
    """The timed chaos workload's network over the small fixture: an
    event-driven simulator, every 17th peer crashed, 10% reply loss
    and latency spikes."""
    return EventDrivenSimulator(
        small_network.topology,
        small_network.databases(),
        seed=1,
        fault_plan=FaultPlan(
            seed=5,
            crashes=tuple(
                CrashWindow(peer_id=peer, start=0, stop=10**9)
                for peer in range(0, small_network.num_peers, 17)
            ),
            reply_loss=0.1,
            latency_spike=LatencySpike(rate=0.05, extra_ms=400.0),
            probe_timeout_ms=250.0,
        ),
        latency=LatencyModel(
            seed=3,
            request=ExponentialLatency(20.0),
            reply=ExponentialLatency(20.0),
            hop=ConstantLatency(1.0),
        ),
        probe_timeout_ms=250.0,
    )


class TestServedGroupByRetries:
    """Regression: the service built a GROUP BY's configuration by
    copying the fields it shared with the service's, and the retry
    policy was not one of them — under the same fault plan a COUNT
    retried and the GROUP BY next to it dropped every failed probe."""

    DEADLINE_MS = 60_000.0

    def test_served_group_by_is_the_engine_run_with_the_policy(
        self, small_network, monkeypatch
    ):
        collections = []
        collect = ResilientCollector.collect

        def recording(self, *args, **kwargs):
            sample, stats = collect(self, *args, **kwargs)
            collections.append(stats)
            return sample, stats

        monkeypatch.setattr(ResilientCollector, "collect", recording)
        config = TwoPhaseConfig(
            max_phase_two_peers=400, retry_policy=RetryPolicy(max_attempts=3)
        )
        simulator = chaos_timed_simulator(small_network)
        query = parse_query("SELECT COUNT(A) FROM T GROUP BY A")
        service = QueryService(simulator, config, seed=99, chunk_peers=8)
        served = service.await_result(
            service.submit(query, 0.1, deadline_ms=self.DEADLINE_MS)
        )
        assert sum(stats.retries for stats in collections) > 0

        del collections[:]
        session_seed, engine_seed = np.random.SeedSequence(99).spawn(2)
        session = simulator.session(seed=session_seed)
        session.arm_deadline(self.DEADLINE_MS)
        engine = GroupByEngine(session, config, engine_seed, cache=PlanCache())
        assert served == engine.execute(query, 0.1)
        assert sum(stats.retries for stats in collections) > 0
