"""The session contract, tested directly.

``simulator.session()`` is what every served query runs against: a
view that *shares* everything a network is (one
:class:`~repro.network.simulator.NetworkSnapshot`, by reference) and
*owns* everything a query draws (sub-sampling RNG, fault clock; for the event-driven simulator also the time domain).  The
serving suites exercise it end to end; this file pins the contract
itself, for both simulator classes:

(a) sharing is by identity, memoized views included;
(b) same seed => same draws and fault decisions, however sessions
    interleave, and session traffic never moves the base's streams;
(c) fault-clock semantics, and fork == fresh bind at every step;
(d) the event-driven time domain is reset, its configuration carried;
(e) ``session()`` does no work proportional to the network — measured
    deterministically (allocated bytes, constructor calls), not timed.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.localdb import LocalDatabase
from repro.errors import (
    ConfigurationError,
    PeerUnavailableError,
    ProbeTimeoutError,
)
from repro.network import faults as faults_module
from repro.network import simulator as simulator_module
from repro.network.faults import (
    MESSAGE_KINDS,
    CrashWindow,
    FaultPlan,
    LatencySpike,
    RegionalOutage,
)
from repro.network.generators import power_law_topology
from repro.network.simulator import NetworkSimulator
from repro.network.walker import RetryPolicy
from repro.obs.tracer import Tracer, tracing
from repro.query.model import AggregateOp, AggregationQuery
from repro.service import QueryService
from repro.sim.event_driven import EventDrivenSimulator
from repro.sim.latency import ConstantLatency, LatencyModel, UniformLatency
from repro.sim.timeline import ChurnTimeline, TimelineEntry

SUM_ALL = AggregationQuery(agg=AggregateOp.SUM, column="A")

LATENCY = LatencyModel(
    seed=3,
    request=UniformLatency(1.0, 4.0),
    reply=UniformLatency(1.0, 4.0),
    hop=UniformLatency(0.5, 1.0),
)
TIMELINE = ChurnTimeline(
    (
        TimelineEntry(time_ms=40.0, action="depart", peer=5),
        TimelineEntry(time_ms=90.0, action="epoch"),
    )
)
#: Extra constructor arguments per simulator class; the event-driven
#: one runs with its time domain armed.
EXTRA = {
    NetworkSimulator: {},
    EventDrivenSimulator: {"latency": LATENCY, "timeline": TIMELINE},
}

FAULT_PLAN = FaultPlan(
    seed=11,
    crashes=(CrashWindow(peer_id=2, start=3, stop=40),),
    outages=(RegionalOutage(center=7, radius=1, start=10, stop=25),),
    reply_loss=0.2,
    latency_spike=LatencySpike(rate=0.2, extra_ms=30.0),
    probe_timeout_ms=200.0,
)

simulator_classes = pytest.mark.parametrize(
    "simulator_class",
    [NetworkSimulator, EventDrivenSimulator],
    ids=["synchronous", "event-driven"],
)


def _network(simulator_class, num_peers=60, **kwargs):
    topology = power_law_topology(num_peers, 4 * num_peers, seed=7)
    rng = np.random.default_rng(5)
    databases = [
        LocalDatabase({"A": rng.integers(1, 100, size=12)}, block_size=4)
        for _ in range(num_peers)
    ]
    return simulator_class(
        topology, databases, seed=1, **EXTRA[simulator_class], **kwargs
    )


def _unarmed_network(**kwargs):
    """An event-driven network that only ``kwargs`` can arm (no
    latency, no timeline, no timeout of its own)."""
    return EventDrivenSimulator(
        power_law_topology(20, 60, seed=1),
        [LocalDatabase({"A": np.arange(4)})] * 20,
        seed=1,
        **kwargs,
    )


def _visit(session, peer, ledger):
    """One sub-sampled visit: the reply, or how it failed."""
    try:
        reply = session.visit_aggregate(
            peer, SUM_ALL, sink=0, ledger=ledger, tuples_per_peer=5
        )
    except PeerUnavailableError as error:
        return type(error).__name__
    return reply


def _observed(session, outcomes, ledger):
    """Everything a run leaves behind that replay must reproduce."""
    clock = session.fault_state.clock if session.fault_state else None
    return outcomes, ledger.snapshot(), clock


def _drive(session, peers):
    ledger = session.new_ledger()
    outcomes = [_visit(session, peer, ledger) for peer in peers]
    return _observed(session, outcomes, ledger)


# ---------------------------------------------------------------------------
# (a) sharing by identity
# ---------------------------------------------------------------------------


@simulator_classes
class TestSharedSnapshot:
    def test_immutable_data_is_shared_by_identity(self, simulator_class):
        base = _network(simulator_class, fault_plan=FAULT_PLAN)
        session = base.session(seed=2)
        assert type(session) is simulator_class
        assert session.topology is base.topology
        assert session.cost_model is base.cost_model
        assert session.fault_plan is base.fault_plan
        assert session._snapshot is base._snapshot
        for peer_id in (0, base.num_peers - 1):
            assert session.database(peer_id) is base.database(peer_id)

    def test_view_first_touched_by_a_session_reaches_everyone(
        self, simulator_class
    ):
        base = _network(simulator_class)
        early = base.session(seed=2)
        flat = early.flat_dataset  # first touch is through a session
        cpu_speeds = early._snapshot.cpu_speeds()
        total = early.total_tuples()
        late = base.session(seed=3)
        assert base.flat_dataset is flat
        assert late.flat_dataset is flat
        assert base._snapshot.cpu_speeds() is cpu_speeds
        assert late._snapshot.cpu_speeds() is cpu_speeds
        assert base.total_tuples() == late.total_tuples() == total

    def test_adopted_flat_view_reaches_every_session(self, simulator_class):
        base = _network(simulator_class)
        session = base.session(seed=2)
        donor = _network(simulator_class).flat_dataset
        base.adopt_flat_dataset(donor)
        assert session.flat_dataset is donor
        assert base.session(seed=3).flat_dataset is donor


# ---------------------------------------------------------------------------
# (b) isolation and replay
# ---------------------------------------------------------------------------


@simulator_classes
class TestIsolationAndReplay:
    PEERS = [4, 2, 9, 7, 2, 30, 8, 7, 15, 2, 41, 6] * 3

    def _base(self, simulator_class):
        return _network(simulator_class, fault_plan=FAULT_PLAN)

    def test_same_seed_replays_and_interleaving_is_invisible(
        self, simulator_class
    ):
        base = self._base(simulator_class)
        reference = _drive(base.session(seed=5), self.PEERS)
        assert "PeerCrashedError" in reference[0]  # the plan is live
        assert reference == _drive(base.session(seed=5), self.PEERS)

        # Two same-seed sessions advanced in lock step with a
        # differently seeded one in between.
        sessions = [base.session(seed=seed) for seed in (5, 6, 5)]
        ledgers = [session.new_ledger() for session in sessions]
        outcomes = [[] for _ in sessions]
        for peer in self.PEERS:
            for session, ledger, seen in zip(sessions, ledgers, outcomes):
                seen.append(_visit(session, peer, ledger))
        runs = [
            _observed(*parts) for parts in zip(sessions, outcomes, ledgers)
        ]
        assert runs[0] == runs[2] == reference
        assert runs[1][0] != reference[0]

    def test_session_traffic_never_moves_the_base(self, simulator_class):
        base = self._base(simulator_class)
        rng_state = base._rng.bit_generator.state
        session = base.session(seed=5)
        _drive(session, self.PEERS)
        assert session.fault_state.clock == len(self.PEERS)
        assert base.fault_state.clock == 0
        assert base._rng.bit_generator.state == rng_state

    def test_generator_seed_is_adopted_not_copied(self, simulator_class):
        # The service hands each session a spawned Generator; the
        # session must consume *that* stream (same contract as the
        # constructor's ``seed=``).
        base = self._base(simulator_class)
        stream = np.random.default_rng(77)
        session = base.session(seed=stream)
        assert session._rng is stream


# ---------------------------------------------------------------------------
# (c) fault-clock semantics; fork == fresh bind
# ---------------------------------------------------------------------------


@simulator_classes
class TestFaultClock:
    def test_default_is_the_bases_current_clock(self, simulator_class):
        base = _network(simulator_class, fault_plan=FAULT_PLAN, fault_clock=4)
        assert base.session(seed=1).fault_state.clock == 4
        _drive(base, [1, 3, 6])  # the base itself moves on
        assert base.fault_state.clock == 7
        assert base.session(seed=1).fault_state.clock == 7

    def test_explicit_clock_wins(self, simulator_class):
        base = _network(simulator_class, fault_plan=FAULT_PLAN, fault_clock=4)
        assert base.session(seed=1, fault_clock=0).fault_state.clock == 0
        assert base.session(seed=1, fault_clock=19).fault_state.clock == 19
        with pytest.raises(ConfigurationError, match="clock_start"):
            base.session(seed=1, fault_clock=-1)

    def test_no_plan_means_no_fault_state(self, simulator_class):
        base = _network(simulator_class)
        assert base.session(seed=1, fault_clock=9).fault_state is None


FORK_TOPOLOGY = power_law_topology(30, 90, seed=3)

_windows = st.tuples(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=25),
)


@st.composite
def fault_plans(draw, max_peer):
    peers = st.integers(min_value=0, max_value=max_peer)
    crashes = tuple(
        CrashWindow(peer_id=peer, start=start, stop=start + length)
        for peer, (start, length) in draw(
            st.lists(st.tuples(peers, _windows), max_size=4)
        )
    )
    outages = tuple(
        RegionalOutage(
            center=center, radius=radius, start=start, stop=start + length
        )
        for center, radius, (start, length) in draw(
            st.lists(
                st.tuples(
                    peers, st.integers(min_value=0, max_value=2), _windows
                ),
                max_size=3,
            )
        )
    )
    spike = draw(
        st.one_of(
            st.none(),
            st.builds(
                LatencySpike,
                rate=st.floats(min_value=0.0, max_value=0.9),
                extra_ms=st.sampled_from([5.0, 500.0]),
            ),
        )
    )
    return FaultPlan(
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        crashes=crashes,
        outages=outages,
        reply_loss=draw(st.floats(min_value=0.0, max_value=0.9)),
        latency_spike=spike,
        probe_timeout_ms=draw(st.sampled_from([None, 100.0])),
    )


class TestForkEqualsFreshBind:
    @given(
        data=st.data(),
        strict=st.booleans(),
        bound_at=st.integers(min_value=0, max_value=20),
        forked_at=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_decisions_at_every_step(
        self, data, strict, bound_at, forked_at
    ):
        num_peers = FORK_TOPOLOGY.num_peers
        # Non-strict binds skip schedule entries naming absent peers.
        max_peer = num_peers - 1 if strict else num_peers + 5
        plan = data.draw(fault_plans(max_peer))
        parent = plan.bind(
            FORK_TOPOLOGY, clock_start=bound_at, strict_peers=strict
        )
        forked = parent.fork(forked_at)
        fresh = plan.bind(
            FORK_TOPOLOGY, clock_start=forked_at, strict_peers=strict
        )
        assert forked.plan is plan
        for step in range(40):
            peer = (step * 7) % num_peers
            kind = MESSAGE_KINDS[step % len(MESSAGE_KINDS)]
            assert forked.clock == fresh.clock == forked_at + step
            assert forked.crashed_peers(forked.clock) == fresh.crashed_peers(
                fresh.clock
            )
            assert forked.probe(peer, kind) == fresh.probe(peer, kind)
        assert parent.clock == bound_at  # the fork owns its clock

    def test_fork_rejects_a_negative_clock(self):
        state = FAULT_PLAN.bind(FORK_TOPOLOGY)
        with pytest.raises(ConfigurationError, match="clock_start"):
            state.fork(-1)


# ---------------------------------------------------------------------------
# (d) the event-driven time domain
# ---------------------------------------------------------------------------


class TestEventDrivenSession:
    def test_time_domain_is_reset_and_configuration_carried(self):
        base = _network(
            EventDrivenSimulator,
            probe_timeout_ms=250.0,
            stale_mode="reject",
        )
        _drive(base, [1, 2, 3])
        base.arm_deadline(500.0)
        assert base.virtual_now_ms > 0.0
        assert base.kernel.messages > 0

        session = base.session(seed=9)
        assert session.kernel is not base.kernel
        assert session.virtual_now_ms == 0.0
        assert session.kernel.messages == 0
        assert session.kernel.pending_events == len(TIMELINE.entries)
        assert session.deadline_ms is None
        assert base.deadline_ms == 500.0
        assert session.latency is LATENCY
        assert session.timeline is TIMELINE
        assert session.stale_mode == "reject"
        assert session._time.patience_ms == 250.0
        assert session.time_armed

    def test_a_deferred_spike_dies_with_its_probe(self):
        """A spike past the timeout is carried into *that* probe's
        delivery only — not into the next probe's, nor into the first
        probe of a later ``session()``: every delivered probe takes
        exactly the round trip the kernel drew for it."""
        plan = FaultPlan(
            seed=4,
            latency_spike=LatencySpike(rate=0.5, extra_ms=500.0),
            probe_timeout_ms=50.0,
        )
        base = _network(EventDrivenSimulator, fault_plan=plan)

        def timed_probes(session):
            """(delivered?, virtual ms it took, round trip drawn) x 20."""
            ledger = session.new_ledger()
            for index in range(20):
                peer = 1 + index % 4  # peer 5 departs at 40 ms
                message = session.kernel.messages
                before_ms = session.virtual_now_ms
                try:
                    session.visit_aggregate(
                        peer, SUM_ALL, sink=0, ledger=ledger
                    )
                    delivered = True
                except ProbeTimeoutError:
                    delivered = False
                yield (
                    delivered,
                    session.virtual_now_ms - before_ms,
                    LATENCY.probe_delay_ms(message, peer, "aggregate"),
                )

        session = base.session(seed=9)
        probes = list(timed_probes(session))
        fates = [delivered for delivered, _, _ in probes]
        assert True in fates[fates.index(False):]  # a clean one after a spike
        assert session.kernel.pending_events > 0  # late replies in flight
        # The spiked session is the parent of the next one.
        for delivered, took_ms, drawn_ms in probes + list(
            timed_probes(session.session(seed=9, fault_clock=0))
        ):
            expected_ms = drawn_ms if delivered else plan.probe_timeout_ms
            assert took_ms == pytest.approx(expected_ms, abs=1e-9)

    def test_unarmed_session_stays_in_passthrough(self):
        base = EventDrivenSimulator(
            power_law_topology(20, 60, seed=1),
            [LocalDatabase({"A": np.arange(4)})] * 20,
            seed=1,
        )
        session = base.session(seed=2)
        assert not session.time_armed
        assert session.virtual_clock is None

    def test_unarmed_session_runs_the_synchronous_code(self):
        """Parity by identity, not by delegation: an un-armed session
        holds no time domain and overrides none of the seams."""
        session = _unarmed_network().session(seed=2)
        assert session._time is None
        assert session.virtual_clock is None
        for name in (
            "_probe_checks",
            "_apply_faults",
            "walk_hops",
            "flood",
            "begin_timing",
        ):
            assert getattr(type(session), name) is getattr(
                NetworkSimulator, name
            )

    def test_arm_deadline_arms_this_session_only(self):
        base = _unarmed_network(
            fault_plan=FaultPlan(
                seed=4, latency_spike=LatencySpike(rate=0.5, extra_ms=30.0)
            )
        )
        session = base.session(seed=2)
        with pytest.raises(ConfigurationError):
            session.arm_deadline(float("nan"))
        assert session._time is None  # a refused deadline arms nothing
        assert session.virtual_clock is None

        session.arm_deadline(500.0)
        assert session.time_armed
        assert session.deadline_ms == 500.0
        assert session.virtual_clock is session.kernel.clock
        tracer = Tracer(time_source=session.virtual_clock.read)
        with tracing(tracer):
            _drive(session, range(1, 9))
        assert session.virtual_now_ms > 0.0  # spikes now take time
        assert any('"vt"' in line for line in tracer.lines)

        assert not base.time_armed
        assert not session.session(seed=3).time_armed

    def test_a_timed_flood_takes_its_depth_and_skips_the_departed(self):
        gone = int(_unarmed_network().topology.neighbors(0)[0])
        session = _unarmed_network(
            latency=LatencyModel(seed=3, hop=ConstantLatency(2.0)),
            timeline=ChurnTimeline(
                (TimelineEntry(time_ms=0.0, action="depart", peer=gone),)
            ),
        ).session(seed=2)
        ledger = session.new_ledger()
        reached = session.flood(0, ttl=2, ledger=ledger)
        assert gone not in {peer for peer, _ in reached}
        depth = max(depth for _, depth in reached)
        assert depth > 0
        assert session.virtual_now_ms == 2.0 * depth
        # A capped flood stops mid-frontier and still takes its depth.
        capped = session.flood(0, ttl=2, ledger=ledger, max_peers=3)
        assert capped == reached[:3]
        assert session.virtual_now_ms == 2.0 * (depth + capped[-1][1])


class TestEnforcedTimesAreFinite:
    """A time value that *enforces* something must be positive and
    finite: NaN passes a ``<= 0`` test and silently switches the
    timeout / deadline off, and ``inf`` is spelled ``None``."""

    BAD_TIMES = pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), float("-inf")],
        ids=["nan", "+inf", "-inf"],
    )
    ENTRY_POINTS = {
        "EventDrivenSimulator(probe_timeout_ms=)": lambda value: (
            _unarmed_network(probe_timeout_ms=value)
        ),
        "FaultPlan(probe_timeout_ms=)": lambda value: (
            FaultPlan(seed=1, probe_timeout_ms=value)
        ),
        "LatencySpike(extra_ms=)": lambda value: (
            LatencySpike(rate=0.1, extra_ms=value)
        ),
        "RetryPolicy(backoff_base_ms=)": lambda value: (
            RetryPolicy(backoff_base_ms=value)
        ),
        "RetryPolicy(backoff_factor=)": lambda value: (
            RetryPolicy(backoff_factor=value)
        ),
        "validate_deadline": lambda value: (
            _unarmed_network().validate_deadline(value)
        ),
        "arm_deadline": lambda value: (
            _network(EventDrivenSimulator).session(seed=2).arm_deadline(value)
        ),
    }

    @BAD_TIMES
    @pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
    def test_every_entry_point_refuses(self, entry_point, value):
        with pytest.raises(ConfigurationError):
            self.ENTRY_POINTS[entry_point](value)

    @BAD_TIMES
    def test_submit_refuses_a_bad_deadline_on_both_backends(self, value):
        """In the parent, with one message, before anything ran."""
        messages = []
        for backend in ({}, {"workers": 2}):
            simulator = _network(EventDrivenSimulator, fault_plan=FAULT_PLAN)
            with QueryService(simulator, seed=3, **backend) as service:
                with pytest.raises(ConfigurationError) as refused:
                    service.submit(SUM_ALL, 0.1, deadline_ms=value)
                assert service.stats().submitted == 0
            assert simulator.fault_state.clock == 0
            messages.append(str(refused.value))
        assert messages[0] == messages[1]


# ---------------------------------------------------------------------------
# (e) size independence (deterministic, not timed)
# ---------------------------------------------------------------------------

#: One ``session()`` may allocate this much, whatever the network's
#: size: two Generators, a forked clock and (event-driven) a kernel
#: with a two-entry timeline measure about 3 KiB.
SESSION_ALLOCATION_BOUND = 32 * 1024

BIG_PLAN = FaultPlan(
    seed=2,
    crashes=tuple(
        CrashWindow(peer_id=peer, start=peer, stop=peer + 30)
        for peer in range(50)
    ),
    outages=tuple(
        RegionalOutage(center=center, radius=2, start=5, stop=60)
        for center in (10, 200, 400)
    ),
    reply_loss=0.1,
)


def _sized_network(simulator_class, num_peers):
    return simulator_class(
        power_law_topology(num_peers, 4 * num_peers, seed=7),
        [LocalDatabase({"A": np.arange(8)})] * num_peers,
        seed=1,
        fault_plan=BIG_PLAN,
        **EXTRA[simulator_class],
    )


@pytest.fixture(scope="module", params=[500, 8_000])
def sized_networks(request):
    return {
        simulator_class: _sized_network(simulator_class, request.param)
        for simulator_class in (NetworkSimulator, EventDrivenSimulator)
    }


@simulator_classes
class TestSizeIndependence:
    def test_allocation_is_bounded_independent_of_size(
        self, sized_networks, simulator_class
    ):
        base = sized_networks[simulator_class]
        base.session(seed=0)  # warm any first-call caches
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            session = base.session(seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert session.num_peers == base.num_peers
        assert peak - before < SESSION_ALLOCATION_BOUND

    def test_session_replays_no_constructor(
        self, sized_networks, simulator_class, monkeypatch
    ):
        base = sized_networks[simulator_class]
        calls = []

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        for owner, name in [
            (simulator_module.NetworkSnapshot, "__init__"),
            (simulator_module.NetworkSimulator, "__init__"),
            (simulator_module.NetworkSnapshot, "cpu_speeds"),
            (faults_module.FaultState, "__init__"),
            (faults_module, "_bfs_ball"),
        ]:
            label = f"{owner.__name__.rpartition('.')[2]}.{name}"
            monkeypatch.setattr(
                owner, name, counting(label, getattr(owner, name))
            )
        # The patches are live: a real construction trips them, and so
        # does the first read of its CPU speeds (they are drawn then).
        network = _network(simulator_class, num_peers=30, fault_plan=FAULT_PLAN)
        network._snapshot.cpu_speeds()
        assert "faults._bfs_ball" in calls
        assert "NetworkSnapshot.cpu_speeds" in calls
        calls.clear()
        base.session(seed=1)
        base.session(seed=2, fault_clock=3)
        assert calls == []
