"""Unit and statistical tests for repro.network.walker."""

import numpy as np
import pytest

import repro.network.faults as faults_module
import repro.network.visits as visits_module
import repro.sim.latency as latency_module
from repro.errors import (
    ConfigurationError,
    PeerUnavailableError,
    ProbeTimeoutError,
    TopologyError,
)
from repro.network.faults import CrashWindow, FaultPlan, LatencySpike
from repro.network.topology import Topology
from repro.network.visits import AggregateVisits, ValueVisits
from repro.network.walker import (
    RandomWalkConfig,
    RandomWalker,
    ResilientCollector,
    RetryPolicy,
)
from repro.obs import Tracer, tracing
from repro.obs.events import FaultEvent, LateDeliveryEvent
from repro.query.parser import parse_query
from repro.sim import (
    ConstantLatency,
    EventDrivenSimulator,
    ExponentialLatency,
    LatencyModel,
)
from repro.sim.queue import EventQueue


class TestRandomWalkConfig:
    def test_defaults(self):
        config = RandomWalkConfig()
        assert config.jump == 10
        assert config.variant == "simple"
        assert config.effective_jump == 10
        assert config.effective_burn_in == 10

    def test_zero_jump_normalizes_to_one(self):
        assert RandomWalkConfig(jump=0).effective_jump == 1

    def test_negative_jump_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomWalkConfig(jump=-1)

    def test_explicit_burn_in(self):
        assert RandomWalkConfig(jump=5, burn_in=0).effective_burn_in == 0

    def test_negative_burn_in_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomWalkConfig(burn_in=-1)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomWalkConfig(variant="teleport")


class TestWalkMechanics:
    def test_step_moves_to_neighbor(self, tiny_topology):
        walker = RandomWalker(tiny_topology, seed=1)
        for _ in range(20):
            nxt = walker.step(0)
            assert nxt in (1, 2)

    def test_leaf_always_steps_back(self, tiny_topology):
        walker = RandomWalker(tiny_topology, seed=1)
        assert walker.step(4) == 3

    def test_trace_length(self, small_topology):
        walker = RandomWalker(small_topology, seed=1)
        trace = walker.trace(0, 50)
        assert trace.shape == (51,)
        assert trace[0] == 0

    def test_trace_moves_along_edges(self, tiny_topology):
        walker = RandomWalker(tiny_topology, seed=2)
        trace = walker.trace(0, 30)
        for current, nxt in zip(trace[:-1], trace[1:]):
            assert tiny_topology.has_edge(int(current), int(nxt))

    def test_trace_negative_hops(self, tiny_topology):
        walker = RandomWalker(tiny_topology, seed=2)
        with pytest.raises(ConfigurationError):
            walker.trace(0, -1)

    def test_lazy_walk_can_stay(self, tiny_topology):
        walker = RandomWalker(
            tiny_topology, RandomWalkConfig(variant="lazy"), seed=3
        )
        trace = walker.trace(0, 100)
        stays = sum(
            1 for a, b in zip(trace[:-1], trace[1:]) if a == b
        )
        assert stays > 20  # expect ~50

    def test_self_inclusive_walk_can_stay(self, tiny_topology):
        walker = RandomWalker(
            tiny_topology,
            RandomWalkConfig(variant="self-inclusive"),
            seed=3,
        )
        trace = walker.trace(4, 100)
        stays = sum(1 for a, b in zip(trace[:-1], trace[1:]) if a == b)
        assert stays > 10  # leaf stays w.p. 1/2

    def test_simple_walk_never_stays(self, tiny_topology):
        walker = RandomWalker(tiny_topology, seed=3)
        trace = walker.trace(0, 200)
        assert all(a != b for a, b in zip(trace[:-1], trace[1:]))

    def test_edgeless_rejected(self):
        with pytest.raises(TopologyError):
            RandomWalker(Topology(3, []))

    def test_isolated_start_rejected(self):
        topology = Topology(3, [(0, 1)])
        walker = RandomWalker(topology, seed=1)
        with pytest.raises(TopologyError):
            walker.step(2)

    def test_out_of_range_start(self, tiny_topology):
        walker = RandomWalker(tiny_topology, seed=1)
        with pytest.raises(TopologyError):
            walker.step(7)


class TestSamplePeers:
    def test_count_selected(self, small_topology):
        walker = RandomWalker(small_topology, seed=4)
        result = walker.sample_peers(0, 25)
        assert len(result) == 25
        assert result.start == 0

    def test_zero_count(self, small_topology):
        walker = RandomWalker(small_topology, seed=4)
        result = walker.sample_peers(0, 0)
        assert len(result) == 0
        assert result.hops == 0

    def test_negative_count_rejected(self, small_topology):
        walker = RandomWalker(small_topology, seed=4)
        with pytest.raises(ConfigurationError):
            walker.sample_peers(0, -1)

    def test_hops_match_jump(self, small_topology):
        config = RandomWalkConfig(jump=7, burn_in=7)
        walker = RandomWalker(small_topology, config, seed=4)
        result = walker.sample_peers(0, 10)
        # burn_in + (count - 1) selections * jump hops
        assert result.hops == 7 + 9 * 7

    def test_no_burn_in_selects_sink_first(self, small_topology):
        config = RandomWalkConfig(jump=1, burn_in=0)
        walker = RandomWalker(small_topology, config, seed=4)
        result = walker.sample_peers(3, 5)
        assert result.peers[0] == 3

    def test_jump_zero_selects_consecutive_neighbors(self, small_topology):
        config = RandomWalkConfig(jump=0, burn_in=0)
        walker = RandomWalker(small_topology, config, seed=4)
        result = walker.sample_peers(0, 10)
        for a, b in zip(result.peers[:-1], result.peers[1:]):
            assert small_topology.has_edge(int(a), int(b))

    def test_revisits_allowed_by_default(self, tiny_topology):
        walker = RandomWalker(
            tiny_topology, RandomWalkConfig(jump=1), seed=4
        )
        result = walker.sample_peers(0, 50)
        assert result.distinct_peers < 50  # only 5 peers exist

    def test_distinct_mode(self, small_topology):
        config = RandomWalkConfig(jump=2, allow_revisits=False)
        walker = RandomWalker(small_topology, config, seed=4)
        result = walker.sample_peers(0, 30)
        assert result.distinct_peers == 30

    def test_distinct_mode_impossible_raises(self, tiny_topology):
        config = RandomWalkConfig(jump=1, allow_revisits=False)
        walker = RandomWalker(tiny_topology, config, seed=4)
        with pytest.raises(TopologyError):
            walker.sample_peers(0, 10)  # only 5 peers exist

    def test_walk_result_is_reproducible(self, small_topology):
        a = RandomWalker(small_topology, seed=9).sample_peers(0, 20)
        b = RandomWalker(small_topology, seed=9).sample_peers(0, 20)
        np.testing.assert_array_equal(a.peers, b.peers)


class TestStationaryDistribution:
    def test_simple_variant_matches_topology(self, small_topology):
        walker = RandomWalker(small_topology, seed=1)
        np.testing.assert_allclose(
            walker.stationary_probabilities(),
            small_topology.stationary_distribution(),
        )

    def test_self_inclusive_distribution(self, tiny_topology):
        walker = RandomWalker(
            tiny_topology,
            RandomWalkConfig(variant="self-inclusive"),
            seed=1,
        )
        pi = walker.stationary_probabilities()
        expected = (tiny_topology.degrees + 1) / (2 * 5 + 5)
        np.testing.assert_allclose(pi, expected)
        assert pi.sum() == pytest.approx(1.0)

    def test_empirical_convergence_simple(self, tiny_topology):
        """After many hops the endpoint distribution approaches
        deg/2|E| (statistical, fixed seed)."""
        walker = RandomWalker(tiny_topology, seed=100)
        empirical = walker.empirical_distribution(0, walks=4000, hops=25)
        expected = tiny_topology.stationary_distribution()
        np.testing.assert_allclose(empirical, expected, atol=0.035)

    def test_empirical_convergence_lazy(self, tiny_topology):
        walker = RandomWalker(
            tiny_topology, RandomWalkConfig(variant="lazy"), seed=100
        )
        empirical = walker.empirical_distribution(0, walks=4000, hops=50)
        expected = tiny_topology.stationary_distribution()
        np.testing.assert_allclose(empirical, expected, atol=0.035)

    def test_empirical_convergence_self_inclusive(self, tiny_topology):
        walker = RandomWalker(
            tiny_topology,
            RandomWalkConfig(variant="self-inclusive"),
            seed=100,
        )
        empirical = walker.empirical_distribution(0, walks=4000, hops=50)
        expected = walker.stationary_probabilities()
        np.testing.assert_allclose(empirical, expected, atol=0.035)

    def test_endpoint_after(self, small_topology):
        walker = RandomWalker(small_topology, seed=5)
        endpoint = walker.endpoint_after(0, 100)
        assert 0 <= endpoint < small_topology.num_peers

    def test_empirical_distribution_validates(self, small_topology):
        walker = RandomWalker(small_topology, seed=5)
        with pytest.raises(ConfigurationError):
            walker.empirical_distribution(0, walks=0, hops=5)


class TestSampledFrequencies:
    def test_jump_walk_sampling_tracks_degree(self, small_topology):
        """Peers selected by a jumping walk should appear with
        frequency roughly proportional to degree."""
        walker = RandomWalker(
            small_topology, RandomWalkConfig(jump=8), seed=42
        )
        result = walker.sample_peers(0, 4000)
        counts = np.bincount(
            result.peers, minlength=small_topology.num_peers
        )
        empirical = counts / counts.sum()
        expected = small_topology.stationary_distribution()
        # Aggregate correlation check rather than pointwise.
        correlation = np.corrcoef(empirical, expected)[0, 1]
        assert correlation > 0.9


class TestMetropolisUniform:
    def test_stationary_is_uniform(self, small_topology):
        walker = RandomWalker(
            small_topology,
            RandomWalkConfig(variant="metropolis-uniform"),
            seed=1,
        )
        pi = walker.stationary_probabilities()
        np.testing.assert_allclose(pi, 1.0 / small_topology.num_peers)

    def test_empirical_convergence(self, tiny_topology):
        walker = RandomWalker(
            tiny_topology,
            RandomWalkConfig(variant="metropolis-uniform"),
            seed=100,
        )
        empirical = walker.empirical_distribution(0, walks=4000, hops=40)
        np.testing.assert_allclose(empirical, 0.2, atol=0.04)

    def test_can_reject_and_stay(self, tiny_topology):
        walker = RandomWalker(
            tiny_topology,
            RandomWalkConfig(variant="metropolis-uniform"),
            seed=3,
        )
        # From the leaf (deg 1) to its neighbor (deg 2), proposals are
        # rejected half the time, so stays must occur.
        trace = walker.trace(4, 200)
        stays = sum(1 for a, b in zip(trace[:-1], trace[1:]) if a == b)
        assert stays > 10

    def test_sampling_frequencies_flatten(self, small_topology):
        """Unlike the simple walk, selection frequency must NOT track
        degree."""
        walker = RandomWalker(
            small_topology,
            RandomWalkConfig(variant="metropolis-uniform", jump=8),
            seed=42,
        )
        result = walker.sample_peers(0, 4000)
        counts = np.bincount(
            result.peers, minlength=small_topology.num_peers
        )
        empirical = counts / counts.sum()
        degrees = small_topology.degrees.astype(float)
        correlation = np.corrcoef(empirical, degrees)[0, 1]
        assert abs(correlation) < 0.35


class TestWalkCursor:
    """The incremental cursor must be indistinguishable from one
    `sample_peers` call split at arbitrary boundaries."""

    @pytest.mark.parametrize(
        "config",
        [
            RandomWalkConfig(jump=10),
            RandomWalkConfig(jump=3, variant="metropolis-uniform"),
            RandomWalkConfig(jump=5, allow_revisits=False),
            RandomWalkConfig(jump=0, burn_in=0),
        ],
        ids=["simple", "metropolis", "distinct", "dfs"],
    )
    def test_chunked_takes_equal_one_walk(self, small_topology, config):
        whole = RandomWalker(small_topology, config, seed=21)
        reference = whole.sample_peers(3, 20)

        chunked = RandomWalker(small_topology, config, seed=21)
        cursor = chunked.cursor(3)
        pieces = [cursor.take(7), cursor.take(0), cursor.take(5),
                  cursor.take(8)]
        peers = [p for piece in pieces for p in piece.peers]
        assert peers == list(reference.peers)
        assert sum(piece.hops for piece in pieces) == reference.hops
        # The walker RNG advanced identically: the next draw agrees.
        assert whole.step(int(reference.peers[-1])) == chunked.step(
            int(reference.peers[-1])
        )

    def test_take_zero_before_start_consumes_nothing(self, small_topology):
        walker = RandomWalker(small_topology, seed=5)
        cursor = walker.cursor(0)
        empty = cursor.take(0)
        assert len(empty.peers) == 0 and empty.hops == 0
        assert cursor.total_hops == 0
        # Burn-in only happens once real selection begins.
        first = cursor.take(2)
        assert len(first.peers) == 2

    def test_negative_take_rejected(self, small_topology):
        cursor = RandomWalker(small_topology, seed=5).cursor(0)
        with pytest.raises(ConfigurationError):
            cursor.take(-1)

    def test_distinct_mode_spans_takes(self, small_topology):
        config = RandomWalkConfig(jump=4, allow_revisits=False)
        cursor = RandomWalker(small_topology, config, seed=9).cursor(0)
        seen = []
        for count in (6, 6, 6):
            seen.extend(cursor.take(count).peers)
        assert len(seen) == len(set(seen)) == 18

    def test_progress_properties(self, small_topology):
        cursor = RandomWalker(small_topology, seed=5).cursor(7)
        assert cursor.start == 7 and cursor.position == 7
        cursor.take(4)
        assert cursor.total_selected == 4
        assert cursor.total_hops > 0
        assert 0 <= cursor.position < small_topology.num_peers

    def test_invalid_start_rejected(self, small_topology):
        walker = RandomWalker(small_topology, seed=5)
        with pytest.raises(TopologyError):
            walker.cursor(small_topology.num_peers + 1)


COUNT_30 = parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30")
MEDIAN_ALL = parse_query("SELECT MEDIAN(A) FROM T")

#: (collector, query, the bad argument, the error it must raise)
REJECTED_COLLECTIONS = {
    "aggregate-budget": (
        "collect_aggregate", COUNT_30, {"tuples_per_peer": -5},
        "tuples_per_peer must be >= 0",
    ),
    "aggregate-method": (
        "collect_aggregate", COUNT_30, {"sampling_method": "bogus"},
        "unknown sampling method 'bogus'",
    ),
    "aggregate-query": (
        "collect_aggregate", MEDIAN_ALL, {}, "cannot be pushed down",
    ),
    "values-budget": (
        "collect_values", MEDIAN_ALL, {"tuples_per_peer": -5},
        "tuples_per_peer must be >= 0",
    ),
    "values-method": (
        "collect_values", MEDIAN_ALL, {"sampling_method": "bogus"},
        "unknown sampling method 'bogus'",
    ),
    "values-ship": (
        "collect_values", MEDIAN_ALL, {"ship": "bogus"},
        "unknown ship mode 'bogus'",
    ),
}


#: A collection of 10 replies to sink 0, by the collector entry point
#: named in the table above.
COLLECTIONS = {
    "collect_aggregate": lambda collector, session, query, ledger, **kw: (
        collector.collect_aggregate(0, query, 10, ledger, 23, **kw)
    ),
    "collect_values": lambda collector, session, query, ledger, **kw: (
        collector.collect(ValueVisits(session, query, 0, **kw), 10, ledger, 23)
    ),
}


class TestCollectionArgumentsAreCheckedBeforeTheWalk:
    """Regression: a collection with a rejected argument used to raise
    the right error only at its *first probe* — after the walk had been
    drawn, charged (``hops == 50``), traced and given its virtual time.
    It is ``TestVisitArgumentValidation`` (``test_network_simulator``)
    one level up: a rejected collection is rejected first.
    """

    @pytest.mark.parametrize("case", sorted(REJECTED_COLLECTIONS))
    def test_nothing_observable_happens(
        self, small_topology, small_dataset, case
    ):
        entry_point, query, arguments, message = REJECTED_COLLECTIONS[case]
        session = EventDrivenSimulator(
            small_topology,
            small_dataset.databases,
            seed=7,
            fault_plan=FaultPlan(
                seed=5,
                reply_loss=0.1,
                latency_spike=LatencySpike(rate=0.05, extra_ms=400.0),
            ),
            fault_clock=3,
            latency=LatencyModel(seed=3, hop=ConstantLatency(1.0)),
            probe_timeout_ms=250.0,
        ).session(seed=2)
        walk_rng = np.random.default_rng(4)
        untouched_rng = walk_rng.bit_generator.state
        collector = ResilientCollector(
            RandomWalker(small_topology, seed=walk_rng),
            session,
            RetryPolicy(max_attempts=3),
        )
        collect = COLLECTIONS[entry_point]
        ledger = session.new_ledger()
        untouched_ledger = ledger.snapshot()
        tracer = Tracer()
        with tracing(tracer), pytest.raises(ConfigurationError, match=message):
            collect(collector, session, query, ledger, **arguments)
        assert ledger.snapshot() == untouched_ledger
        assert walk_rng.bit_generator.state == untouched_rng
        assert session.fault_state.clock == 3
        assert session.virtual_clock.now_ms == 0.0
        assert session.kernel.messages == 0
        assert tracer.num_events == 0


def _counted(monkeypatch, owner, name, calls):
    """Append to ``calls`` whatever ``owner.name`` returns, from here on."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(result)
        return result

    monkeypatch.setattr(owner, name, counted)


class TestProbePathCounts:
    """Per probe, only what depends on the probe — pinned by count, on
    a session configured like the serving benchmark's chaos simulator
    (``bench/workloads.make_simulator``).  Counts repeat exactly; no
    stopwatch."""

    @staticmethod
    def _chaos_session(topology, dataset, hop=None):
        return EventDrivenSimulator(
            topology,
            dataset.databases,
            seed=1,
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
                seed=3,
                request=ExponentialLatency(20.0),
                reply=ExponentialLatency(20.0),
                hop=hop if hop is not None else ConstantLatency(1.0),
            ),
            probe_timeout_ms=250.0,
        ).session(seed=2)

    def test_a_collection_checks_its_arguments_once(
        self, small_topology, small_dataset, monkeypatch
    ):
        session = self._chaos_session(small_topology, small_dataset)
        checks = {
            name: [] for name in (
                "_check_pushdown",
                "_check_tuples_per_peer",
                "_check_sampling_method",
            )
        }
        for name, calls in checks.items():
            _counted(monkeypatch, visits_module, name, calls)
        # The survivors' rows are read once every probe is resolved:
        # whatever ran before it is what the walk and the probes cost.
        before_the_read = {}
        read_rows = type(session).read_visits

        def reading(self, *args, **kwargs):
            before_the_read.update(
                {name: len(calls) for name, calls in checks.items()}
            )
            return read_rows(self, *args, **kwargs)

        monkeypatch.setattr(type(session), "read_visits", reading)
        collector = ResilientCollector(
            RandomWalker(small_topology, seed=3),
            session,
            RetryPolicy(max_attempts=3),
        )
        _, stats = collector.collect_aggregate(
            0, COUNT_30, 40, session.new_ledger(), 23, tuples_per_peer=25
        )
        assert stats.attempts >= 40
        assert before_the_read == dict.fromkeys(checks, 1)
        # ... and the read checks nothing again.
        assert {name: len(calls) for name, calls in checks.items()} == (
            dict.fromkeys(checks, 1)
        )

    def test_a_probe_hashes_and_queues_only_what_it_must(
        self, small_topology, small_dataset, monkeypatch
    ):
        session = self._chaos_session(small_topology, small_dataset)
        rounds, handles = [], []
        _counted(monkeypatch, faults_module, "_splitmix64", rounds)
        _counted(monkeypatch, EventQueue, "schedule", handles)
        ledger = session.new_ledger()
        visits = AggregateVisits(session, COUNT_30, 0, 25)
        visits.check()
        uncontended = behind_a_late_reply = timed_out = 0
        tracer = Tracer()
        with tracing(tracer):
            for peer in range(small_topology.num_peers):
                del rounds[:], handles[:]
                seen = tracer.num_events
                pending = session.kernel.pending_events
                try:
                    session.probe_visit(peer, visits, ledger)
                except ProbeTimeoutError:
                    # A spike past the sink's patience: the reply is
                    # slow, not lost — queued, and still there, late.
                    (handle,) = handles
                    assert handle.late and not handle.cancelled
                    timed_out += 1
                    continue
                except PeerUnavailableError:
                    continue  # crashed or lost: nothing is sent
                faults = [
                    event for event in tracer.events[seen:]
                    if isinstance(event, FaultEvent)
                ]
                assert not faults  # no spike at this rate stays in time
                # Crash check, then (seed, step, peer, kind) hashed
                # once for the loss and spike coins: 3 + 2 + 2 rounds;
                # (seed, message, peer, kind) once for the request and
                # reply legs: 3 + 2 + 2.  Was 4 x 5 = 20.
                assert len(rounds) == 14
                if pending == 0:
                    assert handles == []  # nothing could intercept it
                    uncontended += 1
                else:
                    assert len(handles) <= 1
                    behind_a_late_reply += 1
            session.drain()
        assert uncontended >= 50 and behind_a_late_reply and timed_out
        late = [
            event for event in tracer.events
            if isinstance(event, LateDeliveryEvent)
        ]
        assert len(late) == timed_out

    @pytest.mark.parametrize(
        "hop, hashes",
        [(ConstantLatency(1.0), 0), (ExponentialLatency(1.0), 1)],
        ids=["constant", "exponential"],
    )
    def test_a_constant_hop_segment_hashes_nothing(
        self, small_topology, small_dataset, monkeypatch, hop, hashes
    ):
        session = self._chaos_session(small_topology, small_dataset, hop)
        calls = []
        _counted(monkeypatch, latency_module, "counter_uniforms", calls)
        session.walk_hops(37, session.new_ledger(), message_bytes=23)
        assert len(calls) == hashes
        assert session.kernel.messages == 1  # the counter ticks either way
        if not hashes:
            assert session.virtual_clock.now_ms == 37.0
