"""The keystone parity invariant, property-tested.

A zero-latency :class:`~repro.sim.event_driven.EventDrivenSimulator`
(no latency model, no timeline, no timeout, no deadline) must be
**bit-identical** to the synchronous
:class:`~repro.network.simulator.NetworkSimulator`: same estimates,
same :class:`~repro.metrics.cost.CostLedger` totals, same trace
digests — engines, fault plans and the serving layer included.  And any *timed* schedule (latency + churn timeline) must
replay bit-identically under the same seeds.

CI runs this file twice (the ``sim`` job) with derandomized
hypothesis, so a parity break cannot hide behind example shuffling.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.median import MedianConfig, MedianEngine
from repro.core.two_phase import TwoPhaseConfig, TwoPhaseEngine
from repro.data.generator import DatasetConfig, generate_dataset
from repro.network.faults import CrashWindow, FaultPlan, LatencySpike
from repro.network.generators import power_law_topology
from repro.network.simulator import NetworkSimulator
from repro.network.walker import RandomWalker, ResilientCollector, RetryPolicy
from repro.obs.tracer import Tracer, tracing
from repro.query.parser import parse_query
from repro.service.service import QueryService
from repro.sim.event_driven import EventDrivenSimulator
from repro.sim.latency import ExponentialLatency, LatencyModel, UniformLatency
from repro.sim.timeline import ChurnTimeline

COUNT_30 = parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30")
SUM_A = parse_query("SELECT SUM(A) FROM T WHERE A BETWEEN 5 AND 70")
MEDIAN_ALL = parse_query("SELECT MEDIAN(A) FROM T")

FAULT_PLAN = FaultPlan(
    seed=5,
    crashes=(CrashWindow(peer_id=3, start=0, stop=50),),
    reply_loss=0.2,
    latency_spike=LatencySpike(rate=0.1, extra_ms=50.0),
    probe_timeout_ms=1000.0,
)

TOPOLOGY = power_law_topology(120, 480, seed=7)
DATASET = generate_dataset(
    TOPOLOGY,
    DatasetConfig(num_tuples=6_000, cluster_level=0.25, skew=0.2),
    seed=7,
)


def _simulator(simulator_class, fault_plan=None, **extra):
    return simulator_class(
        TOPOLOGY, DATASET.databases, seed=7, fault_plan=fault_plan,
        **extra,
    )


def _fingerprint(simulator, engine_seed, query=COUNT_30, delta=0.15):
    """Everything parity is defined over: estimate, ledger, digest."""
    engine = TwoPhaseEngine(
        simulator, TwoPhaseConfig(phase_one_peers=20), seed=engine_seed
    )
    tracer = Tracer()
    with tracing(tracer):
        result = engine.execute(query, delta, sink=0)
    return (
        result.estimate,
        result.confidence_interval,
        dataclasses.astuple(result.cost),
        result.degraded,
        tracer.digest(),
    )


class TestZeroLatencyParity:
    @pytest.mark.parametrize("fault_plan", [None, FAULT_PLAN],
                             ids=["clean", "faulty"])
    def test_two_phase_bit_identical(self, fault_plan):
        sync = _fingerprint(_simulator(NetworkSimulator, fault_plan), 42)
        event = _fingerprint(
            _simulator(EventDrivenSimulator, fault_plan), 42
        )
        assert sync == event

    def test_median_bit_identical(self):
        def run(simulator_class):
            engine = MedianEngine(
                _simulator(simulator_class),
                MedianConfig(phase_one_peers=25),
                seed=9,
            )
            tracer = Tracer()
            with tracing(tracer):
                result = engine.execute(MEDIAN_ALL, 0.05, sink=1)
            return (result.estimate, dataclasses.astuple(result.cost),
                    tracer.digest())

        assert run(NetworkSimulator) == run(EventDrivenSimulator)

    def test_passthrough_results_carry_no_timing(self):
        engine = TwoPhaseEngine(
            _simulator(EventDrivenSimulator),
            TwoPhaseConfig(phase_one_peers=20),
            seed=42,
        )
        result = engine.execute(COUNT_30, 0.15, sink=0)
        assert result.timing is None  # indistinguishable from sync

    @given(
        engine_seed=st.integers(min_value=0, max_value=2**31 - 1),
        faulty=st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_parity_over_arbitrary_engine_seeds(self, engine_seed, faulty):
        """Parity is not an artifact of one lucky seed: any engine
        seed, with or without a fault plan, fingerprints identically
        across execution modes."""
        fault_plan = FAULT_PLAN if faulty else None
        sync = _fingerprint(
            _simulator(NetworkSimulator, fault_plan), engine_seed, SUM_A
        )
        event = _fingerprint(
            _simulator(EventDrivenSimulator, fault_plan),
            engine_seed,
            SUM_A,
        )
        assert sync == event


class TestServiceParity:
    def test_service_over_event_driven_matches_synchronous(self):
        """The serving layer on a zero-latency event-driven snapshot
        reproduces the synchronous service bit for bit — statuses,
        estimates and per-query trace digests."""
        queries = [COUNT_30, SUM_A, COUNT_30]

        def run(simulator_class):
            service = QueryService(
                _simulator(simulator_class), seed=3, capture_traces=True
            )
            tickets = [service.submit(q, 0.2) for q in queries]
            service.run()
            rows = []
            for ticket in tickets:
                outcome = service.outcome(ticket)
                rows.append((
                    outcome.status,
                    outcome.result.estimate if outcome.ok else None,
                    service.trace(ticket).digest(),
                ))
            return rows

        assert run(NetworkSimulator) == run(EventDrivenSimulator)


class TestTimedReplay:
    @given(
        latency_seed=st.integers(min_value=0, max_value=2**31 - 1),
        churn_seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=8, deadline=None)
    def test_any_timed_schedule_replays_bit_identical(
        self, latency_seed, churn_seed
    ):
        """Same seeds, same latency/churn schedule, same everything:
        results, ledgers, virtual-timestamped trace digests, timing."""
        latency = LatencyModel(
            seed=latency_seed,
            request=UniformLatency(2.0, 20.0),
            reply=ExponentialLatency(8.0),
            hop=UniformLatency(0.2, 1.5),
        )
        timeline = ChurnTimeline.sampled(
            seed=churn_seed,
            num_peers=TOPOLOGY.num_peers,
            horizon_ms=30_000.0,
            departure_rate_per_s=0.02,
            epoch_every_ms=8_000.0,
        )

        def run():
            simulator = _simulator(
                EventDrivenSimulator, latency=latency, timeline=timeline
            )
            engine = TwoPhaseEngine(
                simulator, TwoPhaseConfig(phase_one_peers=20), seed=42
            )
            tracer = Tracer(time_source=simulator.virtual_clock.read)
            with tracing(tracer):
                result = engine.execute(COUNT_30, 0.15, sink=0)
                simulator.drain()
            return (
                result.estimate,
                dataclasses.astuple(result.cost),
                result.timing,
                tracer.digest(),
                simulator.virtual_now_ms,
            )

        first = run()
        second = run()
        assert first == second
        assert first[2] is not None  # timed runs report timing

    def test_timed_sessions_replay_identically_per_query(self):
        """Every session clones the time domain from zero, so the
        serving layer's serial == concurrent invariant survives
        latency and churn: same submissions, different interleaving
        widths, identical outcomes and digests."""
        latency = LatencyModel(
            seed=11,
            request=UniformLatency(2.0, 12.0),
            reply=ExponentialLatency(5.0),
        )
        simulator = _simulator(EventDrivenSimulator, latency=latency)
        queries = [COUNT_30, SUM_A, COUNT_30, SUM_A]

        def run(max_in_flight):
            service = QueryService(
                simulator, seed=3, capture_traces=True,
                max_in_flight=max_in_flight,
            )
            tickets = [service.submit(q, 0.2) for q in queries]
            service.run()
            return [
                (
                    service.outcome(t).status,
                    service.outcome(t).result.estimate
                    if service.outcome(t).ok
                    else None,
                    service.trace(t).digest(),
                )
                for t in tickets
            ]

        assert run(1) == run(4)


class TestArmednessIsResolvedOnce:
    def test_a_collection_never_asks_whether_time_is_armed(self, monkeypatch):
        """Armed-ness is decided at construction / ``session()`` /
        ``arm_deadline()``; a 100-probe resilient collection on an
        armed session re-reads neither ingredient.  Counts, not
        timing."""
        timeline = ChurnTimeline.sampled(
            seed=9, num_peers=TOPOLOGY.num_peers, horizon_ms=5_000.0,
            departure_rate_per_s=0.2,
        )
        latency = LatencyModel(
            seed=11,
            request=UniformLatency(1.0, 5.0),
            hop=UniformLatency(0.5, 1.0),
        )
        session = _simulator(
            EventDrivenSimulator, fault_plan=FAULT_PLAN,
            latency=latency, timeline=timeline,
        ).session(seed=3)
        assert session.time_armed

        reads = []
        for owner, name in (
            (LatencyModel, "is_null"),
            (ChurnTimeline, "is_empty"),
        ):
            def counted(self, original=getattr(owner, name).fget, name=name):
                reads.append(name)
                return original(self)

            monkeypatch.setattr(owner, name, property(counted))
        assert latency.is_null is False and reads == ["is_null"]  # wrapped
        reads.clear()

        collector = ResilientCollector(
            RandomWalker(session.topology, seed=3),
            session,
            RetryPolicy(max_attempts=3),
        )
        _, stats = collector.collect_aggregate(
            0, COUNT_30, 100, session.new_ledger(), probe_bytes=64
        )
        assert stats.attempts >= 100
        assert reads == []
