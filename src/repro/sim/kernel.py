"""The discrete-event kernel: clock + queue + churn + latency draws.

One kernel belongs to one query session.  It owns the whole time
domain of that session: the virtual clock, the event queue (message
deliveries and churn-timeline entries interleave through the same
``(time, seq)`` total order), the per-session message counter that
keys latency draws, and the churn state (departed set, epoch counter).

The central primitive is :meth:`SimulationKernel.await_delivery`: the
sink schedules a delivery and runs the queue forward until the message
lands, the probed peer departs mid-flight, or the sink's patience
expires.  A patience expiry does **not** discard the delivery — the
event stays queued, marked late, and surfaces as a
:class:`~repro.obs.events.LateDeliveryEvent` when the kernel drains
past its time.  Slow is not lost.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Final, NamedTuple, Optional, Set, Union

from ..errors import ConfigurationError
from ..network.faults import kind_code
from ..obs.events import LateDeliveryEvent, TimelineEvent
from ..obs.tracer import active_tracer
from .clock import VirtualClock
from .latency import LatencyModel
from .queue import EventHandle, EventQueue
from .timeline import ChurnTimeline, TimelineEntry

__all__ = [
    "DELIVERED",
    "DEPARTED",
    "TIMED_OUT",
    "DeliveryOutcome",
    "SimulationKernel",
]

#: Delivery resolution statuses.
DELIVERED: Final = "delivered"
TIMED_OUT: Final = "timed-out"
DEPARTED: Final = "departed"


@dataclasses.dataclass(frozen=True)
class _Delivery:
    """Queue payload for one in-flight message."""

    peer: int
    probe_kind: str
    sent_ms: float
    sent_epoch: int


_Payload = Union[TimelineEntry, _Delivery]


class DeliveryOutcome(NamedTuple):
    """How one awaited delivery resolved.

    ``delivered_ms`` is the message's scheduled arrival time even for
    timeouts (when it will land late) and departures (when it would
    have landed).
    """

    status: str
    delivered_ms: float
    sent_epoch: int
    delivered_epoch: int

    @property
    def stale(self) -> bool:
        """Whether the epoch advanced between send and resolution."""
        return self.delivered_epoch > self.sent_epoch


class SimulationKernel:
    """One session's deterministic time domain."""

    def __init__(
        self,
        latency: Optional[LatencyModel] = None,
        timeline: Optional[ChurnTimeline] = None,
        start_ms: float = 0.0,
    ):
        self._latency = latency
        self._clock = VirtualClock(start_ms)
        self._queue: EventQueue[_Payload] = EventQueue()
        self._messages = 0
        self._departed: Set[int] = set()
        self._epoch = 0
        self._epoch_started_ms = start_ms
        self._stale_replies = 0
        if timeline is not None:
            for entry in timeline.entries:
                self._queue.schedule(entry.time_ms, entry)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def clock(self) -> VirtualClock:
        """The session's virtual clock."""
        return self._clock

    @property
    def now_ms(self) -> float:
        """Current virtual time in milliseconds."""
        return self._clock.now_ms

    @property
    def epoch(self) -> int:
        """How many timeline epoch marks have fired."""
        return self._epoch

    @property
    def epoch_started_ms(self) -> float:
        """When the current epoch began (0 for the initial epoch)."""
        return self._epoch_started_ms

    @property
    def stale_replies(self) -> int:
        """Deliveries that resolved after their send epoch ended."""
        return self._stale_replies

    @property
    def messages(self) -> int:
        """How many messages have drawn latency so far."""
        return self._messages

    @property
    def pending_events(self) -> int:
        """Live entries still in the queue (late deliveries included)."""
        return len(self._queue)

    def is_departed(self, peer: int) -> bool:
        """Whether ``peer`` is currently departed (and has not rejoined)."""
        return peer in self._departed

    def departed_peers(self) -> frozenset[int]:
        """The currently departed vertex set."""
        return frozenset(self._departed)

    # ------------------------------------------------------------------
    # Latency draws (counter-hash; one counter tick per message)
    # ------------------------------------------------------------------

    def probe_delay_ms(self, peer: int, kind: str) -> float:
        """Round-trip delay for the next probe message to ``peer``.

        An unknown ``kind`` is refused before the message counter
        ticks, latency model or not.
        """
        kind_code(kind)
        message = self._messages
        self._messages += 1
        if self._latency is None:
            return 0.0
        return self._latency.probe_delay_ms(message, peer, kind)

    def hop_delay_ms(self, hops: int) -> float:
        """Forwarding delay for the next ``hops``-hop walk segment."""
        message = self._messages
        self._messages += 1
        if self._latency is None:
            return 0.0
        return self._latency.hop_delay_ms(message, hops)

    # ------------------------------------------------------------------
    # Running the queue
    # ------------------------------------------------------------------

    def drain_due(self) -> None:
        """Apply every queued event whose time is <= now."""
        while True:
            head = self._queue.peek()
            if head is None or head.time_ms > self._clock.now_ms:
                return
            popped = self._queue.pop()
            assert popped is not None
            self._apply(popped)

    def advance_by(self, delay_ms: float) -> None:
        """Let ``delay_ms`` of virtual time pass, applying due events."""
        if delay_ms < 0.0:
            raise ConfigurationError(
                f"delay_ms must be >= 0, got {delay_ms}"
            )
        target_ms = self._clock.now_ms + delay_ms
        self._run_until(target_ms)
        self._clock.advance_to(target_ms)

    def _run_until(self, target_ms: float) -> None:
        """Apply every queued event with time <= ``target_ms``."""
        while True:
            head = self._queue.peek()
            if head is None or head.time_ms > target_ms:
                return
            event = self._queue.pop()
            assert event is not None
            self._clock.advance_to(event.time_ms)
            self._apply(event)

    def drain(self) -> None:
        """Run every remaining event (late deliveries surface here)."""
        while True:
            event = self._queue.pop()
            if event is None:
                return
            self._clock.advance_to(event.time_ms)
            self._apply(event)

    def await_delivery(
        self,
        peer: int,
        kind: str,
        delay_ms: float,
        patience_ms: Optional[float],
    ) -> DeliveryOutcome:
        """Send one message and block (in virtual time) for its fate.

        Runs the queue strictly in ``(time, seq)`` order, so timeline
        events scheduled between send and delivery genuinely happen
        mid-flight: a departure of ``peer`` loses the message
        (``DEPARTED``, after the sink waits out its patience), and an
        epoch advance marks the eventual delivery stale.  When
        ``patience_ms`` elapses first the sink gives up (``TIMED_OUT``)
        but the delivery stays queued, marked late.

        A delivery nothing can intercept is not queued: when no live
        event sits at or before its arrival time and the sink's
        patience reaches it, the loop below would push the handle, pop
        it straight back and return ``DELIVERED`` in the send epoch —
        so the clock moves there and exactly that is returned.  An
        event at *exactly* the arrival time is not "later": ``(time,
        seq)`` order is the queue's to decide, so ties take the loop.
        """
        if delay_ms < 0.0:
            raise ConfigurationError(
                f"delay_ms must be >= 0, got {delay_ms}"
            )
        if patience_ms is not None and patience_ms < 0.0:
            raise ConfigurationError(
                f"patience_ms must be >= 0, got {patience_ms}"
            )
        sent_ms = self._clock.now_ms
        sent_epoch = self._epoch
        due_ms = sent_ms + delay_ms
        head = self._queue.peek()
        if (
            (head is None or head.time_ms > due_ms)
            and (patience_ms is None or due_ms <= sent_ms + patience_ms)
            and math.isfinite(due_ms)  # else: schedule() refuses it below
        ):
            self._clock.advance_to(due_ms)
            return DeliveryOutcome(DELIVERED, due_ms, sent_epoch, sent_epoch)
        handle = self._queue.schedule(
            due_ms,
            _Delivery(
                peer=peer,
                probe_kind=kind,
                sent_ms=sent_ms,
                sent_epoch=sent_epoch,
            ),
        )
        deadline_ms = (
            sent_ms + patience_ms if patience_ms is not None else None
        )
        while True:
            head = self._queue.peek()
            if head is None:
                # The delivery was cancelled by a mid-flight departure
                # and nothing else is scheduled; the sink still waits
                # out its patience before declaring the peer gone.
                if deadline_ms is not None:
                    self._clock.advance_to(deadline_ms)
                return DeliveryOutcome(
                    DEPARTED, handle.time_ms, sent_epoch, self._epoch
                )
            if deadline_ms is not None and head.time_ms > deadline_ms:
                self._clock.advance_to(deadline_ms)
                if handle.cancelled:
                    return DeliveryOutcome(
                        DEPARTED, handle.time_ms, sent_epoch, self._epoch
                    )
                handle.late = True
                return DeliveryOutcome(
                    TIMED_OUT, handle.time_ms, sent_epoch, self._epoch
                )
            event = self._queue.pop()
            assert event is not None
            self._clock.advance_to(event.time_ms)
            if event is handle:
                outcome = DeliveryOutcome(
                    DELIVERED, event.time_ms, sent_epoch, self._epoch
                )
                if outcome.stale:
                    self._stale_replies += 1
                return outcome
            self._apply(event)
            payload = event.payload
            if (
                isinstance(payload, TimelineEntry)
                and payload.action == "depart"
                and payload.peer == peer
                and not handle.cancelled
            ):
                self._queue.cancel(handle)
                if deadline_ms is None:
                    # Infinite patience: resolve at the departure
                    # instant (the model's "peer silently gone" case).
                    return DeliveryOutcome(
                        DEPARTED, handle.time_ms, sent_epoch, self._epoch
                    )

    # ------------------------------------------------------------------

    def _apply(self, event: EventHandle[_Payload]) -> None:
        payload = event.payload
        tracer = active_tracer()
        if isinstance(payload, TimelineEntry):
            if payload.action == "depart":
                if payload.peer is not None:
                    self._departed.add(payload.peer)
            elif payload.action == "join":
                if payload.peer is not None:
                    self._departed.discard(payload.peer)
            else:  # epoch
                self._epoch += 1
                self._epoch_started_ms = event.time_ms
            if tracer is not None:
                tracer.emit(
                    TimelineEvent, payload.action, event.time_ms,
                    payload.peer, self._epoch,
                )
            return
        # Only deliveries whose sink already gave up (marked late) can
        # surface here — live ones are consumed by await_delivery, and
        # departures cancel theirs.
        if tracer is not None and event.late:
            tracer.emit(
                LateDeliveryEvent, payload.peer, payload.probe_kind,
                payload.sent_ms, event.time_ms,
            )
