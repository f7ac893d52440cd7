"""Chaos-in-time: queries racing churn, latency and deadlines.

Every scenario asserts the degraded-or-typed-error contract under the
discrete-event kernel: a query that races a crash, a latency spike
past its deadline, or a churn epoch either completes with honestly
degraded metadata or raises one of the package's typed errors — never
a silent wrong answer, never an untyped crash.

Includes the regression test for the FaultPlan slow/lost conflation
fix: a latency spike past the probe timeout must still *deliver* the
reply late on the virtual clock (observable as a late-delivery trace
event), where the synchronous simulator simply discarded it.
"""

import pytest

from repro.core.two_phase import TwoPhaseConfig, TwoPhaseEngine
from repro.data.generator import DatasetConfig, generate_dataset
from repro.errors import (
    DeadlineExceededError,
    PeerDepartedError,
    ProbeTimeoutError,
    ReproError,
    StaleReplyError,
)
from repro.network.faults import FaultPlan, LatencySpike
from repro.network.generators import power_law_topology
from repro.network.simulator import NetworkSimulator
from repro.obs.events import LateDeliveryEvent, ProbeEvent, StaleReplyEvent
from repro.obs.tracer import Tracer, tracing
from repro.query.parser import parse_query
from repro.service.service import QueryService
from repro.sim.event_driven import EventDrivenSimulator
from repro.sim.latency import ConstantLatency, LatencyModel, UniformLatency
from repro.sim.timeline import ChurnTimeline, TimelineEntry

pytestmark = pytest.mark.chaos

COUNT_30 = parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30")

TOPOLOGY = power_law_topology(100, 400, seed=7)
DATASET = generate_dataset(
    TOPOLOGY,
    DatasetConfig(num_tuples=5_000, cluster_level=0.25, skew=0.2),
    seed=7,
)


def _simulator(**extra):
    return EventDrivenSimulator(
        TOPOLOGY, DATASET.databases, seed=7, **extra
    )


class TestDepartureMidFlight:
    def test_probe_to_peer_departing_mid_flight_is_typed(self):
        """The request is sent, the peer leaves before the reply
        lands: the sink waits out its patience, then gets the typed
        departure error — and one timeout is charged."""
        simulator = _simulator(
            latency=LatencyModel(
                seed=3,
                request=ConstantLatency(10.0),
                reply=ConstantLatency(10.0),
            ),
            timeline=ChurnTimeline(entries=(
                TimelineEntry(15.0, "depart", peer=1),
            )),
            probe_timeout_ms=100.0,
        )
        ledger = simulator.new_ledger()
        with pytest.raises(PeerDepartedError):
            simulator.visit_aggregate(1, COUNT_30, sink=0, ledger=ledger)
        assert simulator.virtual_now_ms == 100.0  # waited out patience
        cost = ledger.snapshot()
        assert cost.timeouts == 1
        assert simulator.kernel.is_departed(1)

    def test_probe_to_already_departed_peer_is_typed(self):
        simulator = _simulator(
            timeline=ChurnTimeline(entries=(
                TimelineEntry(0.0, "depart", peer=2),
            )),
        )
        simulator.drain()
        with pytest.raises(PeerDepartedError):
            simulator.visit_aggregate(
                2, COUNT_30, sink=0, ledger=simulator.new_ledger()
            )

    def test_engine_racing_heavy_churn_degrades_or_raises_typed(self):
        """The whole-engine contract: under a departure-heavy
        timeline the run either completes (degraded allowed, flagged)
        or raises a typed ReproError — nothing else escapes."""
        simulator = _simulator(
            latency=LatencyModel(
                seed=5,
                request=UniformLatency(5.0, 30.0),
                reply=UniformLatency(5.0, 30.0),
            ),
            timeline=ChurnTimeline.sampled(
                seed=17,
                num_peers=TOPOLOGY.num_peers,
                horizon_ms=10_000.0,
                departure_rate_per_s=0.3,
            ),
            probe_timeout_ms=200.0,
        )
        engine = TwoPhaseEngine(
            simulator, TwoPhaseConfig(phase_one_peers=20), seed=42
        )
        try:
            result = engine.execute(COUNT_30, 0.15, sink=0)
        except ReproError:
            return  # typed failure is within contract
        assert result.effective_sample_size <= result.requested_sample_size
        if result.effective_sample_size < result.requested_sample_size:
            assert result.degraded
        assert result.timing is not None


class TestDeadlines:
    def test_latency_spike_past_deadline_is_typed(self):
        """A fault-plan latency spike pushes the virtual clock past
        the query's deadline; the service stops it with the typed
        deadline error at the next chunk boundary."""
        simulator = _simulator(
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
        service = QueryService(simulator, seed=3)
        ticket = service.submit(COUNT_30, 0.2, deadline_ms=150.0)
        with pytest.raises(DeadlineExceededError):
            service.await_result(ticket)
        assert service.stats().deadline_stopped == 1
        outcome = service.outcome(ticket)
        assert outcome.status == "deadline-exceeded"
        assert outcome.cost is not None  # partial work is accounted

    def test_generous_deadline_completes_with_timing(self):
        simulator = _simulator(
            latency=LatencyModel(
                seed=3,
                request=ConstantLatency(1.0),
                reply=ConstantLatency(1.0),
            ),
        )
        service = QueryService(simulator, seed=3)
        ticket = service.submit(COUNT_30, 0.2, deadline_ms=1e9)
        result = service.await_result(ticket)
        assert result.timing is not None
        assert not result.timing.deadline_missed
        assert 0.0 < result.timing.duration_ms < 1e9

    def test_deadline_needs_virtual_time(self):
        from repro.errors import ConfigurationError

        plain = NetworkSimulator(TOPOLOGY, DATASET.databases, seed=7)
        service = QueryService(plain, seed=3)
        with pytest.raises(ConfigurationError):
            service.submit(COUNT_30, 0.2, deadline_ms=100.0)


class TestEpochRaces:
    def _epoch_race_simulator(self, stale_mode):
        # Epoch mark at t=15, reply lands at t=40: every first probe's
        # reply crosses the epoch boundary mid-flight.
        return _simulator(
            latency=LatencyModel(
                seed=3,
                request=ConstantLatency(20.0),
                reply=ConstantLatency(20.0),
            ),
            timeline=ChurnTimeline(entries=(TimelineEntry(15.0, "epoch"),)),
            stale_mode=stale_mode,
        )

    def test_epoch_between_probe_and_reply_marks_stale(self):
        simulator = self._epoch_race_simulator("accept")
        tracer = Tracer()
        with tracing(tracer):
            reply = simulator.visit_aggregate(
                1, COUNT_30, sink=0, ledger=simulator.new_ledger()
            )
        assert reply is not None  # accept mode: delivered, flagged
        stale = [e for e in tracer.events
                 if isinstance(e, StaleReplyEvent)]
        assert len(stale) == 1
        assert stale[0].sent_epoch == 0
        assert stale[0].delivered_epoch == 1
        assert simulator.kernel.stale_replies == 1

    def test_reject_mode_turns_stale_reply_into_typed_error(self):
        simulator = self._epoch_race_simulator("reject")
        tracer = Tracer()
        with tracing(tracer):
            with pytest.raises(StaleReplyError):
                simulator.visit_aggregate(
                    1, COUNT_30, sink=0, ledger=simulator.new_ledger()
                )
        outcomes = [e.outcome for e in tracer.events
                    if isinstance(e, ProbeEvent)]
        assert "stale" in outcomes

    def test_timing_reports_epochs_crossed(self):
        simulator = self._epoch_race_simulator("accept")
        engine = TwoPhaseEngine(
            simulator, TwoPhaseConfig(phase_one_peers=15), seed=42
        )
        result = engine.execute(COUNT_30, 0.2, sink=0)
        assert result.timing is not None
        assert result.timing.epochs_crossed == 1
        assert result.timing.stale_replies >= 1
        assert result.timing.stale


class TestSlowIsNotLost:
    """Regression: FaultPlan conflated slow with lost.

    Before the fix, a latency spike larger than the probe timeout
    raised ProbeTimeoutError and the reply simply ceased to exist —
    indistinguishable from a lost message.  Under virtual time the
    reply must still land (late), and the trace must show it.
    """

    SPIKE_PLAN = FaultPlan(
        seed=5,
        latency_spike=LatencySpike(rate=0.999, extra_ms=500.0),
        probe_timeout_ms=100.0,
    )

    def _timed_simulator(self):
        return _simulator(
            latency=LatencyModel(
                seed=3,
                request=ConstantLatency(10.0),
                reply=ConstantLatency(5.0),
            ),
            fault_plan=self.SPIKE_PLAN,
        )

    def test_spike_past_timeout_still_delivers_late(self):
        simulator = self._timed_simulator()
        ledger = simulator.new_ledger()
        tracer = Tracer()
        with tracing(tracer):
            with pytest.raises(ProbeTimeoutError):
                simulator.visit_aggregate(
                    1, COUNT_30, sink=0, ledger=ledger
                )
            assert simulator.virtual_now_ms == 100.0  # gave up at patience
            assert simulator.kernel.pending_events == 1  # still in flight
            simulator.drain()
        late = [e for e in tracer.events
                if isinstance(e, LateDeliveryEvent)]
        assert len(late) == 1
        # Base latency 10+5 plus the 500 ms spike: lands at 515.
        assert late[0].sent_ms == 0.0
        assert late[0].delivered_ms == pytest.approx(515.0)
        assert simulator.virtual_now_ms == pytest.approx(515.0)
        # The ledger charges exactly the patience the sink spent.
        cost = ledger.snapshot()
        assert cost.timeouts == 1
        assert cost.latency_ms == pytest.approx(100.0)

    def test_sub_timeout_spike_delays_but_delivers(self):
        simulator = _simulator(
            latency=LatencyModel(
                seed=3,
                request=ConstantLatency(10.0),
                reply=ConstantLatency(5.0),
            ),
            fault_plan=FaultPlan(
                seed=5,
                latency_spike=LatencySpike(rate=0.999, extra_ms=50.0),
                probe_timeout_ms=1000.0,
            ),
        )
        ledger = simulator.new_ledger()
        reply = simulator.visit_aggregate(
            1, COUNT_30, sink=0, ledger=ledger
        )
        assert reply is not None
        # The spike rode the virtual clock: 10 + 5 + 50.
        assert simulator.virtual_now_ms == pytest.approx(65.0)

    def test_synchronous_plan_still_conflates_documented(self):
        """The synchronous simulator keeps its legacy semantics (the
        reply vanishes); only virtual time can represent 'late'.  This
        pins the asymmetry the fix introduced deliberately."""
        plain = NetworkSimulator(
            TOPOLOGY, DATASET.databases, seed=7,
            fault_plan=self.SPIKE_PLAN,
        )
        tracer = Tracer()
        with tracing(tracer):
            with pytest.raises(ProbeTimeoutError):
                plain.visit_aggregate(
                    1, COUNT_30, sink=0, ledger=plain.new_ledger()
                )
        assert not any(
            isinstance(e, LateDeliveryEvent) for e in tracer.events
        )
