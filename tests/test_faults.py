"""Unit tests for the deterministic fault-injection subsystem."""

import dataclasses

import pytest

from repro.errors import (
    ConfigurationError,
    PeerCrashedError,
    PeerUnavailableError,
    ProbeTimeoutError,
    ReproError,
)
from repro.network.faults import (
    MESSAGE_KINDS,
    CrashWindow,
    FaultPlan,
    LatencySpike,
    RegionalOutage,
)
from repro.network.topology import Topology
from repro.network.walker import RetryPolicy


@pytest.fixture(scope="module")
def path_topology():
    """A 6-peer path: 0-1-2-3-4-5 (easy BFS-ball arithmetic)."""
    return Topology(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


class TestValidation:
    def test_crash_window_rejects_empty_interval(self):
        with pytest.raises(ConfigurationError):
            CrashWindow(peer_id=0, start=5, stop=5)
        with pytest.raises(ConfigurationError):
            CrashWindow(peer_id=0, start=5, stop=3)

    def test_crash_window_rejects_negative_fields(self):
        with pytest.raises(ConfigurationError):
            CrashWindow(peer_id=-1, start=0, stop=1)
        with pytest.raises(ConfigurationError):
            CrashWindow(peer_id=0, start=-1, stop=1)

    def test_outage_rejects_negative_radius(self):
        with pytest.raises(ConfigurationError):
            RegionalOutage(center=0, radius=-1, start=0, stop=1)

    def test_spike_rejects_nonpositive_extra(self):
        with pytest.raises(ConfigurationError):
            LatencySpike(rate=0.1, extra_ms=0.0)

    def test_timeout_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(probe_timeout_ms=0.0)

    def test_unknown_message_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown message kind"):
            FaultPlan(reply_loss={"telepathy": 0.1})

    def test_duplicate_message_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            FaultPlan(reply_loss=(("aggregate", 0.1), ("aggregate", 0.2)))

    def test_all_errors_are_repro_errors(self):
        assert issubclass(PeerCrashedError, PeerUnavailableError)
        assert issubclass(ProbeTimeoutError, PeerUnavailableError)
        assert issubclass(PeerUnavailableError, ReproError)


class TestLossRateRange:
    """Regression tests for the ``[0, 1)`` rate convention.

    The validation predicate, the error message, and the documented
    range must all agree: rates live in the half-open interval
    ``[0, 1)`` — a rate of exactly 1 is a blackout and must be
    expressed as a crash window.
    """

    def test_plan_loss_rate_one_rejected_with_half_open_message(self):
        with pytest.raises(ConfigurationError, match=r"\[0, 1\)"):
            FaultPlan(reply_loss=1.0)

    def test_plan_spike_rate_one_rejected_with_half_open_message(self):
        with pytest.raises(ConfigurationError, match=r"\[0, 1\)"):
            LatencySpike(rate=1.0, extra_ms=10.0)

    def test_boundaries_zero_accepted_one_minus_epsilon_accepted(self):
        FaultPlan(reply_loss=0.0)
        FaultPlan(reply_loss=0.999999)
        with pytest.raises(ConfigurationError, match=r"\[0, 1\)"):
            FaultPlan(reply_loss=-0.1)


class TestFaultPlan:
    def test_scalar_loss_normalizes_to_all_kinds(self):
        plan = FaultPlan(reply_loss=0.25)
        for kind in MESSAGE_KINDS:
            assert plan.loss_rate(kind) == 0.25

    def test_mapping_loss_is_per_kind(self):
        plan = FaultPlan(reply_loss={"aggregate": 0.4, "values": 0.1})
        assert plan.loss_rate("aggregate") == 0.4
        assert plan.loss_rate("values") == 0.1
        assert plan.loss_rate("ping") == 0.0

    def test_loss_rate_unknown_kind_raises(self):
        with pytest.raises(ConfigurationError):
            FaultPlan().loss_rate("telepathy")

    def test_is_null(self):
        assert FaultPlan().is_null
        assert not FaultPlan(reply_loss=0.1).is_null
        assert not FaultPlan(
            crashes=(CrashWindow(peer_id=0, start=0, stop=1),)
        ).is_null

    def test_plans_are_hashable_and_comparable(self):
        a = FaultPlan(seed=1, reply_loss=0.1)
        b = FaultPlan(seed=1, reply_loss=0.1)
        assert a == b
        assert hash(a) == hash(b)


class TestBind:
    def test_outage_ball_expands_by_bfs_radius(self, path_topology):
        plan = FaultPlan(
            outages=(RegionalOutage(center=2, radius=1, start=0, stop=10),)
        )
        state = plan.bind(path_topology)
        down = state.crashed_peers(0)
        assert down == frozenset({1, 2, 3})

    def test_outage_radius_zero_is_single_peer(self, path_topology):
        plan = FaultPlan(
            outages=(RegionalOutage(center=2, radius=0, start=0, stop=10),)
        )
        assert plan.bind(path_topology).crashed_peers(0) == frozenset({2})

    def test_crash_window_covers_half_open_interval(self, path_topology):
        plan = FaultPlan(crashes=(CrashWindow(peer_id=3, start=2, stop=5),))
        state = plan.bind(path_topology)
        assert not state.is_crashed(3, 1)
        assert state.is_crashed(3, 2)
        assert state.is_crashed(3, 4)
        assert not state.is_crashed(3, 5)

    def test_strict_bind_rejects_out_of_range_peer(self, path_topology):
        plan = FaultPlan(crashes=(CrashWindow(peer_id=99, start=0, stop=1),))
        with pytest.raises(ConfigurationError):
            plan.bind(path_topology)

    def test_lenient_bind_skips_departed_peers(self, path_topology):
        plan = FaultPlan(
            crashes=(
                CrashWindow(peer_id=99, start=0, stop=10),
                CrashWindow(peer_id=1, start=0, stop=10),
            ),
            outages=(RegionalOutage(center=50, radius=2, start=0, stop=10),),
        )
        state = plan.bind(path_topology, strict_peers=False)
        assert state.crashed_peers(0) == frozenset({1})

    def test_clock_start_offsets_the_schedule(self, path_topology):
        plan = FaultPlan(crashes=(CrashWindow(peer_id=0, start=5, stop=10),))
        early = plan.bind(path_topology, clock_start=0)
        late = plan.bind(path_topology, clock_start=5)
        assert not early.probe(0, "aggregate").crashed  # step 0
        assert late.probe(0, "aggregate").crashed  # step 5

    def test_negative_clock_start_rejected(self, path_topology):
        with pytest.raises(ConfigurationError):
            FaultPlan().bind(path_topology, clock_start=-1)


class TestProbe:
    def test_each_probe_consumes_one_step(self, path_topology):
        state = FaultPlan().bind(path_topology)
        assert state.clock == 0
        decisions = [state.probe(0, "aggregate") for _ in range(3)]
        assert [d.step for d in decisions] == [0, 1, 2]
        assert state.clock == 3

    def test_crash_dominates_loss_and_spike(self, path_topology):
        plan = FaultPlan(
            seed=9,
            crashes=(CrashWindow(peer_id=0, start=0, stop=1000),),
            reply_loss=0.9,
            latency_spike=LatencySpike(rate=0.9, extra_ms=1.0),
        )
        state = plan.bind(path_topology)
        for _ in range(50):
            decision = state.probe(0, "aggregate")
            assert decision.crashed
            assert not decision.lost and not decision.timed_out

    def test_spike_times_out_only_beyond_timeout(self, path_topology):
        spiky = FaultPlan(
            seed=5,
            latency_spike=LatencySpike(rate=0.999, extra_ms=300.0),
            probe_timeout_ms=250.0,
        )
        state = spiky.bind(path_topology)
        decisions = [state.probe(1, "aggregate") for _ in range(50)]
        assert any(d.timed_out for d in decisions)
        assert not any(d.extra_latency_ms > 0 for d in decisions)

        tolerant = dataclasses.replace(spiky, probe_timeout_ms=400.0)
        state = tolerant.bind(path_topology)
        decisions = [state.probe(1, "aggregate") for _ in range(50)]
        assert not any(d.timed_out for d in decisions)
        spiked = [d for d in decisions if d.extra_latency_ms > 0]
        assert spiked and all(
            d.extra_latency_ms == 300.0 for d in spiked
        )

    def test_unknown_kind_raises(self, path_topology):
        state = FaultPlan().bind(path_topology)
        with pytest.raises(ConfigurationError):
            state.probe(0, "telepathy")

    @pytest.mark.parametrize("peer", [3, 4], ids=["crashed", "alive"])
    def test_unknown_kind_is_refused_before_the_clock_steps(
        self, path_topology, peer
    ):
        """Regression: the kind used to be resolved only after the step
        was consumed (clock 1 -> 2 across the raise), and not at all
        for a crashed peer, which answered ``crashed=True``."""
        plan = FaultPlan(
            seed=2,
            crashes=(CrashWindow(peer_id=3, start=0, stop=100),),
            reply_loss=0.3,
        )
        state = plan.bind(path_topology, clock_start=1)
        with pytest.raises(
            ConfigurationError, match="unknown message kind 'bogus'"
        ):
            state.probe(peer, "bogus")
        assert state.clock == 1
        assert state.probe(peer, "aggregate").step == 1

    def test_replay_is_bit_identical(self, path_topology):
        plan = FaultPlan(
            seed=21,
            crashes=(CrashWindow(peer_id=2, start=3, stop=9),),
            reply_loss={"aggregate": 0.3, "values": 0.2},
            latency_spike=LatencySpike(rate=0.2, extra_ms=100.0),
            probe_timeout_ms=50.0,
        )
        probes = [(peer, kind) for peer in range(6)
                  for kind in ("aggregate", "values", "ping")]
        first = plan.bind(path_topology)
        second = plan.bind(path_topology)
        for peer, kind in probes:
            assert first.probe(peer, kind) == second.probe(peer, kind)

    def test_different_seeds_give_different_schedules(self, path_topology):
        probes = [(peer, "aggregate") for peer in range(6)] * 20
        outcomes = []
        for seed in (1, 2):
            state = FaultPlan(seed=seed, reply_loss=0.5).bind(path_topology)
            outcomes.append(
                tuple(state.probe(p, k).lost for p, k in probes)
            )
        assert outcomes[0] != outcomes[1]


# ---------------------------------------------------------------------------
# Simulator integration
# ---------------------------------------------------------------------------


class TestSimulatorFaults:
    def test_crashed_peer_raises_typed_error_and_charges_timeout(
        self, small_topology, small_dataset
    ):
        from repro.network.simulator import NetworkSimulator
        from repro.query.parser import parse_query

        plan = FaultPlan(
            crashes=(CrashWindow(peer_id=0, start=0, stop=1000),),
            probe_timeout_ms=300.0,
        )
        simulator = NetworkSimulator(
            small_topology, small_dataset.databases, seed=1, fault_plan=plan
        )
        ledger = simulator.new_ledger()
        query = parse_query("SELECT COUNT(A) FROM T")
        with pytest.raises(PeerCrashedError):
            simulator.visit_aggregate(0, query, sink=1, ledger=ledger)
        cost = ledger.snapshot()
        assert cost.timeouts == 1
        assert cost.peers_visited == 1
        assert cost.latency_ms == 300.0

    def test_faults_active_property(self, small_topology, small_dataset):
        from repro.network.simulator import NetworkSimulator

        plain = NetworkSimulator(small_topology, small_dataset.databases)
        assert not plain.faults_active
        faulty = NetworkSimulator(
            small_topology,
            small_dataset.databases,
            fault_plan=FaultPlan(reply_loss=0.1),
        )
        assert faulty.faults_active
        assert faulty.fault_plan is not None
        assert faulty.fault_state is not None

    def test_flood_skips_crashed_region(self, small_topology, small_dataset):
        from repro.network.simulator import NetworkSimulator

        plain = NetworkSimulator(
            small_topology, small_dataset.databases, seed=2
        )
        full = plain.flood(0, ttl=3, ledger=plain.new_ledger())

        crashed = NetworkSimulator(
            small_topology,
            small_dataset.databases,
            seed=2,
            fault_plan=FaultPlan(
                outages=(
                    RegionalOutage(center=0, radius=1, start=0, stop=10**6),
                ),
            ),
        )
        ledger = crashed.new_ledger()
        reduced = crashed.flood(0, ttl=3, ledger=ledger)
        # The sink's whole neighborhood is down: the flood cannot
        # leave peer 0, and the messages sent into the outage are
        # still charged.
        assert reduced == [(0, 0)]
        assert len(reduced) < len(full)
        assert ledger.snapshot().messages == small_topology.degree(0)


class TestReplyLossInjection:
    """Uniform reply loss: a fault plan with one ``reply_loss`` rate."""

    def test_lost_visit_still_charged(self, small_topology, small_dataset):
        from repro.network.simulator import NetworkSimulator
        from repro.query.parser import parse_query

        network = NetworkSimulator(
            small_topology,
            small_dataset.databases,
            seed=1,
            # just under the cap
            fault_plan=FaultPlan(seed=1, reply_loss=0.999999 - 1e-7),
        )
        ledger = network.new_ledger()
        query = parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30")
        with pytest.raises(PeerUnavailableError):
            network.visit_aggregate(0, query, sink=1, ledger=ledger)
        cost = ledger.snapshot()
        assert cost.peers_visited == 1
        assert cost.tuples_processed == 0

    def test_zero_rate_never_fails(self, small_network):
        from repro.query.parser import parse_query

        query = parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30")
        ledger = small_network.new_ledger()
        for _ in range(200):
            small_network.visit_aggregate(0, query, sink=1, ledger=ledger)

    @pytest.mark.statistical
    def test_losses_occur_at_configured_rate(
        self, small_topology, small_dataset
    ):
        from repro.network.simulator import NetworkSimulator
        from repro.query.parser import parse_query

        network = NetworkSimulator(
            small_topology,
            small_dataset.databases,
            seed=7,
            fault_plan=FaultPlan(seed=7, reply_loss=0.2),
        )
        query = parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30")
        ledger = network.new_ledger()
        losses = 0
        trials = 400
        for _ in range(trials):
            try:
                network.visit_aggregate(0, query, sink=1, ledger=ledger)
            except PeerUnavailableError:
                losses += 1
        assert losses / trials == pytest.approx(0.2, abs=0.06)


class TestRetryPolicy:
    def test_defaults_are_valid(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.backoff_ms(0) == 50.0
        assert policy.backoff_ms(1) == 100.0
        assert policy.backoff_ms(2) == 200.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_base_ms=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_substitutions=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy().backoff_ms(-1)
