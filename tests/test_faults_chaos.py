"""Chaos scenarios: every failure mode ends in a degraded-flagged
estimate inside an error envelope, or a typed :class:`ReproError` —
never a silent wrong answer and never a hang.

The scenario matrix from the fault-injection design:

* **crash mid-walk** — peers crash while the walk is in flight and the
  resilient walker substitutes around them;
* **correlated outage** — a whole BFS ball partitions away at once;
* **timeout storm** — latency spikes push most probes past the probe
  timeout;
* **loss + churn combined** — reply loss while the network itself is
  churning between epochs, with the fault clock spanning snapshots.

All scenarios use a plan-seeded fault schedule, so each run replays
the exact same failures.
"""

import numpy as np
import pytest

from repro.core.groupby import GroupByEngine
from repro.core.median import MedianConfig, MedianEngine
from repro.core.two_phase import TwoPhaseConfig, TwoPhaseEngine
from repro.errors import ReproError
from repro.sampling.baselines import BFSEngine
from repro.network.faults import (
    CrashWindow,
    FaultPlan,
    LatencySpike,
    RegionalOutage,
)
from repro.network.live import LiveNetwork
from repro.network.churn import ChurnConfig
from repro.network.simulator import NetworkSimulator
from repro.network.walker import RetryPolicy
from repro.query.exact import evaluate_exact
from repro.query.parser import parse_query

pytestmark = pytest.mark.chaos

#: Normalized error envelope for chaos runs: generous (faults shrink
#: the sample well below the planner's target) but strict enough to
#: catch an estimator corrupted by fault handling (for scale: dropping
#: every other observation of a COUNT would land near 0.5).
ENVELOPE = 0.35

RETRY = RetryPolicy(max_attempts=3, backoff_base_ms=10.0)


def _run_count(simulator, seed, retry=RETRY):
    query = parse_query("SELECT COUNT(A) FROM T")
    config = TwoPhaseConfig(
        phase_one_peers=40, max_phase_two_peers=120, retry_policy=retry
    )
    engine = TwoPhaseEngine(simulator, config, seed=seed)
    result = engine.execute(query, delta_req=0.05, sink=0)
    truth = evaluate_exact(query, simulator.databases())
    return result, truth


def _assert_degraded_but_sound(result, truth):
    """The chaos contract: the estimate carries its degradation
    honestly and still lands inside the envelope."""
    assert result.effective_sample_size <= result.requested_sample_size
    if result.effective_sample_size < result.requested_sample_size:
        assert result.degraded
    assert abs(result.estimate - truth) / truth <= ENVELOPE
    assert result.cost.peers_visited > 0


class TestCrashMidWalk:
    def test_crashes_during_walk_yield_degraded_or_typed_error(
        self, small_network
    ):
        plan = FaultPlan(
            seed=11,
            crashes=tuple(
                CrashWindow(peer_id=peer, start=0, stop=10**6)
                for peer in range(0, 200, 7)  # ~14% of peers down
            ),
            probe_timeout_ms=200.0,
        )
        simulator = NetworkSimulator(
            small_network.topology,
            small_network.databases(),
            seed=7,
            fault_plan=plan,
        )
        try:
            result, truth = _run_count(simulator, seed=5)
        except ReproError:
            return  # a typed failure is an acceptable outcome
        _assert_degraded_but_sound(result, truth)
        # Crashes were actually exercised and detected as timeouts.
        assert result.cost.timeouts > 0

    def test_crash_substitution_recovers_sample_size(self, small_network):
        """With retry+substitution the engine recovers observations a
        plain engine loses to the same schedule."""
        plan = FaultPlan(
            seed=12,
            crashes=tuple(
                CrashWindow(peer_id=peer, start=0, stop=10**6)
                for peer in range(0, 200, 5)  # 20% of peers down
            ),
        )

        def build():
            return NetworkSimulator(
                small_network.topology,
                small_network.databases(),
                seed=7,
                fault_plan=plan,
            )

        resilient, truth = _run_count(build(), seed=5)
        plain, _ = _run_count(build(), seed=5, retry=None)
        assert (
            resilient.effective_sample_size / resilient.requested_sample_size
            >= plain.effective_sample_size / plain.requested_sample_size
        )
        _assert_degraded_but_sound(resilient, truth)


class TestCorrelatedOutage:
    def test_regional_outage_partitions_but_estimate_survives(
        self, small_network, small_topology
    ):
        plan = FaultPlan(
            seed=13,
            outages=(
                RegionalOutage(center=3, radius=1, start=0, stop=10**6),
            ),
            probe_timeout_ms=150.0,
        )
        simulator = NetworkSimulator(
            small_topology,
            small_network.databases(),
            seed=7,
            fault_plan=plan,
        )
        ball_size = len(
            plan.bind(small_topology).crashed_peers(0)
        )
        assert ball_size > 1  # the outage really is correlated
        try:
            result, truth = _run_count(simulator, seed=6)
        except ReproError:
            return
        _assert_degraded_but_sound(result, truth)


class TestTimeoutStorm:
    def test_storm_of_timeouts_terminates_with_flagged_result(
        self, small_network
    ):
        plan = FaultPlan(
            seed=14,
            latency_spike=LatencySpike(rate=0.6, extra_ms=5_000.0),
            probe_timeout_ms=1_000.0,
        )
        simulator = NetworkSimulator(
            small_network.topology,
            small_network.databases(),
            seed=7,
            fault_plan=plan,
        )
        try:
            result, truth = _run_count(simulator, seed=8)
        except ReproError:
            return
        # 60% of probes time out; bounded retries must still terminate
        # and the timeouts must be visible in the cost and the flag.
        assert result.cost.timeouts > 0
        _assert_degraded_but_sound(result, truth)

    def test_median_engine_survives_timeout_storm(self, small_network):
        plan = FaultPlan(
            seed=15,
            latency_spike=LatencySpike(rate=0.5, extra_ms=2_000.0),
            probe_timeout_ms=500.0,
        )
        simulator = NetworkSimulator(
            small_network.topology,
            small_network.databases(),
            seed=7,
            fault_plan=plan,
        )
        query = parse_query("SELECT MEDIAN(A) FROM T")
        config = MedianConfig(
            phase_one_peers=40, max_phase_two_peers=120, retry_policy=RETRY
        )
        engine = MedianEngine(simulator, config, seed=9)
        try:
            result = engine.execute(query, delta_req=0.1, sink=0)
        except ReproError:
            return
        if result.effective_sample_size < result.requested_sample_size:
            assert result.degraded
        truth = evaluate_exact(query, simulator.databases())
        # Median envelope on the value domain (1..100).
        assert abs(result.estimate - truth) <= 20


class TestLossPlusChurn:
    def test_faults_compose_with_epochs_and_clock_persists(
        self, small_topology, small_dataset
    ):
        plan = FaultPlan(
            seed=16,
            reply_loss=0.2,
            crashes=(CrashWindow(peer_id=2, start=0, stop=10**9),),
        )
        live = LiveNetwork(
            small_topology,
            small_dataset.databases,
            churn_config=ChurnConfig(join_rate=0.5, leave_rate=0.5),
            fault_plan=plan,
            seed=31,
        )
        assert live.fault_clock == 0
        query = parse_query("SELECT COUNT(A) FROM T")
        # No retry policy here: raw losses must surface as degradation
        # (a retrying engine would paper over a 20% loss rate).
        config = TwoPhaseConfig(phase_one_peers=30, max_phase_two_peers=60)
        previous_clock = 0
        for epoch in range(3):
            simulator = live.snapshot(seed=100 + epoch)
            state = simulator.fault_state
            assert state is not None
            assert state.clock == previous_clock
            engine = TwoPhaseEngine(simulator, config, seed=40 + epoch)
            try:
                result = engine.execute(query, delta_req=0.05, sink=0)
            except ReproError:
                live.step(20)
                previous_clock = live.fault_clock
                continue
            truth = evaluate_exact(query, simulator.databases())
            _assert_degraded_but_sound(result, truth)
            # 20% loss over 30+ unretried probes: a full sample would
            # be a ~0.1% fluke per epoch, so the flag must be raised.
            assert result.degraded
            live.step(20)
            previous_clock = live.fault_clock
            assert previous_clock > 0  # probes advanced the clock

    def test_epochs_advance_only_on_snapshot(self, small_topology):
        from repro.network.churn import ChurnProcess

        process = ChurnProcess(small_topology, seed=1)
        assert process.epoch == 0
        first = process.snapshot()
        second = process.snapshot()
        assert (first.epoch, second.epoch) == (0, 1)
        assert process.epoch == 2
        peek = process.snapshot(advance_epoch=False)
        assert peek.epoch == 2
        assert process.epoch == 2


# ---------------------------------------------------------------------------
# Engines under plain reply loss (merged from the old
# test_failure_injection.py module)
# ---------------------------------------------------------------------------


@pytest.fixture()
def lossy_network(small_topology, small_dataset):
    return NetworkSimulator(
        small_topology,
        small_dataset.databases,
        seed=7,
        fault_plan=FaultPlan(seed=7, reply_loss=0.2),
    )


class TestEnginesUnderLoss:
    """Every engine must degrade gracefully under 20% reply loss:
    skip the observation, keep the accounting consistent, and stay
    accurate as long as enough replies survive."""

    COUNT_30 = parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30")
    MEDIAN_ALL = parse_query("SELECT MEDIAN(A) FROM T")

    def test_two_phase_survives_and_stays_accurate(
        self, lossy_network, small_dataset
    ):
        truth = evaluate_exact(self.COUNT_30, small_dataset.databases)
        n = small_dataset.num_tuples
        errors = []
        for seed in range(6):
            engine = TwoPhaseEngine(
                lossy_network,
                config=TwoPhaseConfig(
                    phase_one_peers=60, max_phase_two_peers=400
                ),
                seed=seed,
            )
            result = engine.execute(self.COUNT_30, delta_req=0.1, sink=0)
            errors.append(abs(result.estimate - truth) / n)
        assert np.mean(errors) <= 0.1

    @pytest.mark.parametrize("agg", ["COUNT", "MEDIAN"])
    def test_phase_report_reflects_surviving_replies(self, lossy_network, agg):
        if agg == "COUNT":
            engine = TwoPhaseEngine(
                lossy_network,
                config=TwoPhaseConfig(phase_one_peers=60),
                seed=3,
            )
            result = engine.execute(self.COUNT_30, delta_req=0.2, sink=0)
        else:
            engine = MedianEngine(
                lossy_network, MedianConfig(phase_one_peers=60), seed=4
            )
            result = engine.execute(self.MEDIAN_ALL, delta_req=0.1, sink=0)
        # ~20% of replies are lost; the reports count survivors only.
        assert result.phase_one.peers_visited < 60
        assert result.phase_one.peers_visited >= 30
        reports = [result.phase_one, result.phase_two]
        assert result.effective_sample_size == sum(
            report.peers_visited for report in reports if report is not None
        )

    def test_median_survives(self, lossy_network, small_dataset):
        engine = MedianEngine(lossy_network, seed=4)
        result = engine.execute(self.MEDIAN_ALL, delta_req=0.15, sink=0)
        truth = evaluate_exact(self.MEDIAN_ALL, small_dataset.databases)
        assert abs(result.estimate - truth) <= 15

    def test_group_by_survives(self, lossy_network):
        engine = GroupByEngine(lossy_network, seed=5)
        result = engine.execute(
            parse_query("SELECT COUNT(A) FROM T GROUP BY A"), 0.2, sink=0
        )
        assert result.total > 0

    def test_bfs_survives(self, lossy_network):
        engine = BFSEngine(lossy_network, seed=6)
        result = engine.execute(self.COUNT_30, delta_req=0.2, sink=0)
        assert result.estimate > 0

    def test_total_loss_fails_loudly(self, small_topology, small_dataset):
        network = NetworkSimulator(
            small_topology,
            small_dataset.databases,
            seed=2,
            fault_plan=FaultPlan(seed=2, reply_loss=0.999999 - 1e-7),
        )
        engine = TwoPhaseEngine(network, seed=1)
        with pytest.raises(ReproError):
            engine.execute(self.COUNT_30, delta_req=0.1, sink=0)
