"""Unit tests for the simulation kernel's time domain.

Covers the latency models (counter-hash draws: same key, same draw),
churn timelines, and ``SimulationKernel.await_delivery`` — the one
primitive that interleaves message deliveries with churn through the
``(time, seq)`` total order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs.events import LateDeliveryEvent, TimelineEvent
from repro.obs.tracer import Tracer, tracing
from repro.sim.kernel import (
    DELIVERED,
    DEPARTED,
    TIMED_OUT,
    DeliveryOutcome,
    SimulationKernel,
    _Delivery,
)
from repro.sim.latency import (
    ConstantLatency,
    ExponentialLatency,
    LatencyModel,
    UniformLatency,
)
from repro.sim.queue import EventQueue
from repro.sim.timeline import ChurnTimeline, TimelineEntry


def queued_await_delivery(kernel, peer, kind, delay_ms, patience_ms):
    """Reference ``SimulationKernel.await_delivery``: the loop as it
    was when *every* delivery went through the queue, kept verbatim —
    schedule the handle, then pop events in ``(time, seq)`` order until
    it resolves.  The product skips the queue for a delivery nothing
    can intercept; this is what that must be indistinguishable from.
    Drives ``kernel`` through its private state, like the other
    oracles in this directory; keep it dumb."""
    if delay_ms < 0.0:
        raise ConfigurationError(f"delay_ms must be >= 0, got {delay_ms}")
    if patience_ms is not None and patience_ms < 0.0:
        raise ConfigurationError(
            f"patience_ms must be >= 0, got {patience_ms}"
        )
    sent_ms = kernel._clock.now_ms
    sent_epoch = kernel._epoch
    handle = kernel._queue.schedule(
        sent_ms + delay_ms,
        _Delivery(
            peer=peer, probe_kind=kind, sent_ms=sent_ms, sent_epoch=sent_epoch
        ),
    )
    deadline_ms = sent_ms + patience_ms if patience_ms is not None else None
    while True:
        head = kernel._queue.peek()
        if head is None:
            if deadline_ms is not None:
                kernel._clock.advance_to(deadline_ms)
            return DeliveryOutcome(
                DEPARTED, handle.time_ms, sent_epoch, kernel._epoch
            )
        if deadline_ms is not None and head.time_ms > deadline_ms:
            kernel._clock.advance_to(deadline_ms)
            if handle.cancelled:
                return DeliveryOutcome(
                    DEPARTED, handle.time_ms, sent_epoch, kernel._epoch
                )
            handle.late = True
            return DeliveryOutcome(
                TIMED_OUT, handle.time_ms, sent_epoch, kernel._epoch
            )
        event = kernel._queue.pop()
        kernel._clock.advance_to(event.time_ms)
        if event is handle:
            outcome = DeliveryOutcome(
                DELIVERED, event.time_ms, sent_epoch, kernel._epoch
            )
            if outcome.stale:
                kernel._stale_replies += 1
            return outcome
        kernel._apply(event)
        payload = event.payload
        if (
            isinstance(payload, TimelineEntry)
            and payload.action == "depart"
            and payload.peer == peer
            and not handle.cancelled
        ):
            kernel._queue.cancel(handle)
            if deadline_ms is None:
                return DeliveryOutcome(
                    DEPARTED, handle.time_ms, sent_epoch, kernel._epoch
                )


def _count_schedules(monkeypatch):
    """Count ``EventQueue.schedule`` calls from here on."""
    calls = []
    original = EventQueue.schedule

    def counted(self, time_ms, payload):
        calls.append(time_ms)
        return original(self, time_ms, payload)

    monkeypatch.setattr(EventQueue, "schedule", counted)
    return calls


# Times on a coarse grid, so "an event at exactly the arrival time"
# and "arrival at exactly the end of patience" come up constantly.
grid_ms = st.integers(min_value=0, max_value=24).map(lambda k: 5.0 * k)
timeline_entries = st.lists(
    st.tuples(
        grid_ms,
        st.sampled_from(["depart", "join", "epoch"]),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=6,
)
#: The sink's patience relative to the delay: forever, or ending
#: before / exactly at / after the arrival.
patience_cases = st.sampled_from(["forever", "shorter", "equal", "longer"])
sends = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), grid_ms, patience_cases),
    min_size=1,
    max_size=12,
)


def _patience_ms(case, delay_ms):
    return {
        "forever": None,
        "shorter": delay_ms / 2.0,
        "equal": delay_ms,
        "longer": delay_ms + 5.0,
    }[case]


class TestLatencyModels:
    def test_constant_is_constant(self):
        model = LatencyModel(seed=1, request=ConstantLatency(10.0),
                             reply=ConstantLatency(5.0))
        assert model.probe_delay_ms(0, peer=3, kind="aggregate") == 15.0
        assert model.probe_delay_ms(99, peer=8, kind="values") == 15.0

    def test_draws_are_keyed_by_message_and_peer(self):
        model = LatencyModel(seed=1, request=UniformLatency(1.0, 9.0),
                             reply=UniformLatency(1.0, 9.0))
        base = model.probe_delay_ms(0, peer=3, kind="aggregate")
        # Same key: identical draw.  Different message or peer: the
        # counter-hash re-keys, so the draw (almost surely) differs.
        assert model.probe_delay_ms(0, peer=3, kind="aggregate") == base
        assert model.probe_delay_ms(1, peer=3, kind="aggregate") != base
        assert model.probe_delay_ms(0, peer=4, kind="aggregate") != base

    def test_hop_delay_sums_per_hop_draws(self):
        model = LatencyModel(seed=2, hop=ConstantLatency(2.0))
        assert model.hop_delay_ms(0, hops=5) == 10.0
        assert model.hop_delay_ms(0, hops=0) == 0.0

    def test_exponential_mean_is_roughly_right(self):
        model = LatencyModel(seed=3, request=ExponentialLatency(20.0))
        draws = [
            model.probe_delay_ms(message, peer=0, kind="aggregate")
            for message in range(4000)
        ]
        assert all(d >= 0.0 for d in draws)
        assert 17.0 < sum(draws) / len(draws) < 23.0

    def test_is_null_detects_zero_latency(self):
        assert LatencyModel(seed=1).is_null
        assert not LatencyModel(seed=1, reply=ConstantLatency(1.0)).is_null

    def test_uniform_validates_bounds(self):
        with pytest.raises(ConfigurationError):
            UniformLatency(5.0, 1.0)
        with pytest.raises(ConfigurationError):
            ExponentialLatency(-1.0)


class TestChurnTimeline:
    def test_entries_sort_by_time(self):
        timeline = ChurnTimeline(entries=(
            TimelineEntry(50.0, "depart", peer=2),
            TimelineEntry(10.0, "join", peer=1),
            TimelineEntry(30.0, "epoch"),
        ))
        assert [e.time_ms for e in timeline.entries] == [10.0, 30.0, 50.0]
        assert not timeline.is_empty
        assert ChurnTimeline().is_empty

    def test_entry_validation(self):
        with pytest.raises(ConfigurationError):
            TimelineEntry(1.0, "explode")
        with pytest.raises(ConfigurationError):
            TimelineEntry(1.0, "depart")  # departure needs a peer
        with pytest.raises(ConfigurationError):
            TimelineEntry(1.0, "epoch", peer=3)  # epoch marks don't

    def test_sampled_is_deterministic(self):
        kwargs = dict(
            seed=9, num_peers=50, horizon_ms=10_000.0,
            departure_rate_per_s=0.1, epoch_every_ms=2_000.0,
        )
        first = ChurnTimeline.sampled(**kwargs)
        second = ChurnTimeline.sampled(**kwargs)
        assert first == second
        assert any(e.action == "depart" for e in first.entries)
        assert sum(e.action == "epoch" for e in first.entries) == 4


class TestAwaitDelivery:
    def test_plain_delivery_advances_clock(self):
        kernel = SimulationKernel()
        outcome = kernel.await_delivery(
            peer=1, kind="aggregate", delay_ms=12.0, patience_ms=100.0
        )
        assert outcome.status == DELIVERED
        assert not outcome.stale
        assert kernel.now_ms == 12.0

    def test_patience_expiry_marks_delivery_late(self):
        kernel = SimulationKernel()
        outcome = kernel.await_delivery(
            peer=1, kind="aggregate", delay_ms=500.0, patience_ms=100.0
        )
        assert outcome.status == TIMED_OUT
        assert outcome.delivered_ms == 500.0  # still scheduled to land
        assert kernel.now_ms == 100.0
        assert kernel.pending_events == 1
        tracer = Tracer()
        with tracing(tracer):
            kernel.drain()
        assert kernel.now_ms == 500.0
        late = [e for e in tracer.events
                if isinstance(e, LateDeliveryEvent)]
        assert len(late) == 1
        assert late[0].delivered_ms == 500.0

    def test_departure_mid_flight_loses_message(self):
        timeline = ChurnTimeline(entries=(
            TimelineEntry(10.0, "depart", peer=1),
        ))
        kernel = SimulationKernel(timeline=timeline)
        outcome = kernel.await_delivery(
            peer=1, kind="aggregate", delay_ms=50.0, patience_ms=80.0
        )
        assert outcome.status == DEPARTED
        # The sink cannot observe the departure — it waits out its
        # whole patience before declaring the peer gone.
        assert kernel.now_ms == 80.0
        assert kernel.is_departed(1)
        assert kernel.pending_events == 0  # cancelled, never late

    def test_departure_of_other_peer_does_not_interfere(self):
        timeline = ChurnTimeline(entries=(
            TimelineEntry(10.0, "depart", peer=7),
        ))
        kernel = SimulationKernel(timeline=timeline)
        outcome = kernel.await_delivery(
            peer=1, kind="aggregate", delay_ms=50.0, patience_ms=80.0
        )
        assert outcome.status == DELIVERED
        assert kernel.departed_peers() == frozenset({7})

    def test_rejoin_clears_departure(self):
        timeline = ChurnTimeline(entries=(
            TimelineEntry(10.0, "depart", peer=1),
            TimelineEntry(20.0, "join", peer=1),
        ))
        kernel = SimulationKernel(timeline=timeline)
        kernel.advance_by(25.0)
        assert not kernel.is_departed(1)

    def test_epoch_mid_flight_marks_reply_stale(self):
        timeline = ChurnTimeline(entries=(TimelineEntry(10.0, "epoch"),))
        kernel = SimulationKernel(timeline=timeline)
        outcome = kernel.await_delivery(
            peer=1, kind="aggregate", delay_ms=50.0, patience_ms=None
        )
        assert outcome.status == DELIVERED
        assert outcome.stale
        assert outcome.sent_epoch == 0
        assert outcome.delivered_epoch == 1
        assert kernel.stale_replies == 1
        assert kernel.epoch_started_ms == 10.0

    def test_timeline_events_are_traced(self):
        timeline = ChurnTimeline(entries=(
            TimelineEntry(5.0, "depart", peer=2),
            TimelineEntry(15.0, "epoch"),
        ))
        kernel = SimulationKernel(timeline=timeline)
        tracer = Tracer()
        with tracing(tracer):
            kernel.advance_by(20.0)
        actions = [e.action for e in tracer.events
                   if isinstance(e, TimelineEvent)]
        assert actions == ["depart", "epoch"]

    def test_message_counter_ticks_without_latency(self):
        # The counter discipline is unconditional so that adding a
        # latency model never re-keys an existing schedule's draws.
        kernel = SimulationKernel()
        assert kernel.probe_delay_ms(peer=1, kind="aggregate") == 0.0
        assert kernel.hop_delay_ms(hops=4) == 0.0
        assert kernel.messages == 2

    @pytest.mark.parametrize(
        "latency",
        [None, LatencyModel(seed=1, request=ConstantLatency(2.0))],
        ids=["no-model", "model"],
    )
    def test_unknown_kind_is_refused_before_the_counter_ticks(self, latency):
        """Regression: the counter used to tick before the kind was
        resolved (and without a latency model it never was), so a
        refused probe re-keyed every later draw of the session."""
        kernel = SimulationKernel(latency=latency)
        kernel.probe_delay_ms(peer=1, kind="aggregate")
        with pytest.raises(
            ConfigurationError, match="unknown message kind 'bogus'"
        ):
            kernel.probe_delay_ms(peer=1, kind="bogus")
        assert kernel.messages == 1

    def test_rejects_negative_delays(self):
        kernel = SimulationKernel()
        with pytest.raises(ConfigurationError):
            kernel.advance_by(-1.0)
        with pytest.raises(ConfigurationError):
            kernel.await_delivery(0, "aggregate", -1.0, None)
        with pytest.raises(ConfigurationError):
            kernel.await_delivery(0, "aggregate", 1.0, -1.0)

    # -- a delivery nothing can intercept is not queued ----------------

    @given(entries=timeline_entries, sends=sends)
    @settings(max_examples=300, deadline=None)
    def test_indistinguishable_from_the_queued_loop(self, entries, sends):
        """Over random timelines and send sequences — short patience
        leaves late deliveries pending behind later sends — the kernel
        and the always-queue reference agree after every send on the
        outcome and on everything a session can read back."""
        timeline = ChurnTimeline(entries=tuple(
            TimelineEntry(time_ms, action,
                          peer=None if action == "epoch" else peer)
            for time_ms, action, peer in entries
        ))

        def run(await_delivery):
            kernel = SimulationKernel(timeline=timeline)
            tracer = Tracer()
            trail = []
            with tracing(tracer):
                for peer, delay_ms, case in sends:
                    outcome = await_delivery(
                        kernel, peer, "aggregate", delay_ms,
                        _patience_ms(case, delay_ms),
                    )
                    trail.append((
                        outcome, outcome.stale, kernel.now_ms,
                        kernel.pending_events, kernel.stale_replies,
                        kernel.epoch, kernel.departed_peers(),
                        tracer.num_events,
                    ))
                kernel.drain()
            return trail, kernel.now_ms, tracer.events

        assert run(SimulationKernel.await_delivery) == run(
            queued_await_delivery
        )

    def test_uncontended_delivery_is_not_queued(self, monkeypatch):
        schedules = _count_schedules(monkeypatch)
        kernel = SimulationKernel()
        for delay_ms, patience_ms in (
            (12.0, 100.0),
            (7.0, None),   # infinite patience, empty queue
            (0.0, 5.0),    # zero delay: delivered where it was sent
            (0.0, 0.0),
            (30.0, 30.0),  # arrival at exactly the end of patience
        ):
            sent_ms = kernel.now_ms
            outcome = kernel.await_delivery(
                1, "aggregate", delay_ms, patience_ms
            )
            assert outcome == DeliveryOutcome(
                DELIVERED, sent_ms + delay_ms, 0, 0
            )
            assert kernel.now_ms == sent_ms + delay_ms
            assert kernel.pending_events == 0
        assert schedules == []

    def test_event_at_exactly_the_arrival_time_goes_first(self, monkeypatch):
        """A tie is the queue's to break: the timeline entry was
        scheduled first (lower ``seq``), so it fires before the
        delivery and the reply arrives stale."""
        timeline = ChurnTimeline(entries=(TimelineEntry(50.0, "epoch"),))
        kernel = SimulationKernel(timeline=timeline)
        schedules = _count_schedules(monkeypatch)
        outcome = kernel.await_delivery(1, "aggregate", 50.0, None)
        assert schedules == [50.0]
        assert outcome == DeliveryOutcome(DELIVERED, 50.0, 0, 1)
        assert outcome.stale and kernel.stale_replies == 1

    def test_delivery_behind_a_pending_late_reply_is_queued(
        self, monkeypatch
    ):
        kernel = SimulationKernel()
        assert kernel.await_delivery(
            1, "aggregate", 400.0, 250.0
        ).status == TIMED_OUT  # stays queued, late, due at 400
        schedules = _count_schedules(monkeypatch)
        tracer = Tracer()
        with tracing(tracer):
            # Lands before the late reply: nothing in its way.
            assert kernel.await_delivery(
                2, "aggregate", 100.0, 250.0
            ).status == DELIVERED
            assert schedules == [] and tracer.num_events == 0
            # Lands after it: the late reply surfaces mid-flight.
            outcome = kernel.await_delivery(3, "aggregate", 100.0, 250.0)
        assert schedules == [450.0]
        assert outcome.status == DELIVERED and kernel.now_ms == 450.0
        assert [type(event) for event in tracer.events] == [LateDeliveryEvent]
        assert kernel.pending_events == 0

    def test_cancelled_head_does_not_block_the_shortcut(self, monkeypatch):
        timeline = ChurnTimeline(entries=(
            TimelineEntry(10.0, "depart", peer=1),
        ))
        kernel = SimulationKernel(timeline=timeline)
        assert kernel.await_delivery(
            1, "aggregate", 500.0, 80.0
        ).status == DEPARTED  # its handle stays in the heap, cancelled
        schedules = _count_schedules(monkeypatch)
        outcome = kernel.await_delivery(2, "aggregate", 600.0, None)
        assert schedules == []
        assert outcome == DeliveryOutcome(DELIVERED, 680.0, 0, 0)
        assert kernel.pending_events == 0

    @pytest.mark.parametrize("delay_ms", [float("inf"), float("nan")])
    @pytest.mark.parametrize("patience_ms", [None, 100.0])
    def test_non_finite_delay_is_refused_as_before(
        self, delay_ms, patience_ms
    ):
        kernel = SimulationKernel()
        kernel.advance_by(3.0)
        with pytest.raises(
            ConfigurationError, match="event time must be finite and >= 0"
        ):
            kernel.await_delivery(1, "aggregate", delay_ms, patience_ms)
        assert kernel.now_ms == 3.0 and kernel.pending_events == 0


class TestKernelReplay:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        peers=st.lists(
            st.integers(min_value=0, max_value=19),
            min_size=1,
            max_size=20,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_same_seed_schedule_replays_bit_identical(self, seed, peers):
        """Any (seed, probe sequence) pair resolves identically on
        replay: same outcomes, same clock, same stale counts."""
        latency = LatencyModel(
            seed=seed,
            request=UniformLatency(1.0, 20.0),
            reply=ExponentialLatency(8.0),
        )
        timeline = ChurnTimeline.sampled(
            seed=seed, num_peers=20, horizon_ms=500.0,
            departure_rate_per_s=1.0, epoch_every_ms=100.0,
        )

        def run():
            kernel = SimulationKernel(latency=latency, timeline=timeline)
            trail = []
            for peer in peers:
                delay = kernel.probe_delay_ms(peer, "aggregate")
                outcome = kernel.await_delivery(
                    peer, "aggregate", delay, patience_ms=30.0
                )
                trail.append((outcome, kernel.now_ms))
            kernel.drain()
            return trail, kernel.now_ms, kernel.stale_replies

        assert run() == run()
