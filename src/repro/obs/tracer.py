"""The tracer and its zero-overhead activation switch.

Tracing is off by default: :func:`active_tracer` returns ``None`` and
every instrumented site guards its emission with a single ``is not
None`` check, so an untraced run executes the exact same instruction
stream it did before the observability layer existed (no RNG draws, no
allocation, no I/O).  The bit-identity property tests pin this.

Activation is scoped with a :class:`contextvars.ContextVar` rather
than module state, so traced and untraced code can nest and the fork-
based parallel trial runner inherits a clean default in its workers::

    with tracing(Tracer()) as tracer:
        engine.execute(query, 0.1, sink=0)
    print(tracer.digest())

A tracer assigns each event a monotone sequence number and stamps it
with the virtual time.  ``emit(kind, *fields)`` is an append of the
type, the stamp and the fields to one flat list: no event object
exists until something reads the trace.  The typed events, the
canonical JSONL lines, the digest, the cost total and the
:class:`~repro.obs.registry.MetricsRegistry` are *built on read* —
each event is decoded, encoded and aggregated exactly once, the first
time anything asks — so a traced run nobody inspects pays neither
objects nor encoding.  A tracer with a ``stream`` (or with
``capture=False``) folds on every emit instead: its line has been
written when ``emit`` returns.
"""

from __future__ import annotations

import contextlib
import hashlib
from contextvars import ContextVar
from typing import (
    IO, Any, Callable, Iterator, List, Optional, Protocol, Tuple, Type,
)

from .events import (
    ChurnEpochEvent,
    EstimateEvent,
    LateDeliveryEvent,
    ProbeEvent,
    QueryLifecycleEvent,
    RetryEvent,
    StaleReplyEvent,
    TimelineEvent,
    TraceCost,
    TraceEvent,
    WalkEvent,
)
from .jsonl import event_line
from .registry import MetricsRegistry

__all__ = [
    "TraceLike",
    "Tracer",
    "active_tracer",
    "emit_if_tracing",
    "tracing",
]


class TraceLike(Protocol):
    """What a completed trace looks like to its consumers.

    The serving layer hands traces around behind this protocol:
    :class:`Tracer` satisfies it directly (encoding its captured
    events on the first read of ``lines`` or ``digest()``, once), and
    so does the sharded backend's decoded reply trace
    (:class:`~repro.service.codec.TraceWire`), which carries the
    worker's lines and digest.  Consumers (``write_traces``, the
    trace-diff gates) only ever need the canonical lines and their
    digest, so they never observe which side of a process boundary
    the events were recorded on.
    """

    @property
    def lines(self) -> List[str]:
        """The canonical JSONL lines, in emission order."""
        ...

    @property
    def num_events(self) -> int:
        """How many events the trace holds."""
        ...

    def digest(self) -> str:
        """sha256 over the canonical lines."""
        ...


class Tracer:
    """Collects typed events from one (or more) seeded runs.

    Parameters
    ----------
    stream:
        Optional writable text stream; every event's canonical JSONL
        line is written (and newline-terminated) as it is emitted.
    capture:
        Keep events in memory (default).  Disable for stream-only
        tracing of very long runs: each event is then folded into the
        stream, the cost total and the registry as it is emitted, and
        dropped.
    time_source:
        Optional zero-argument callable returning the current virtual
        time in milliseconds (e.g. an event-driven simulator clock's
        ``read``).  When set, each emitted line is stamped with a
        ``vt`` field — but only while the reading is positive, so a
        clock that never advances leaves the lines byte-identical to
        an untimed run's.  The clock is read when the event is
        emitted, never when the trace is read.
    """

    def __init__(
        self,
        stream: Optional[IO[str]] = None,
        capture: bool = True,
        time_source: Optional[Callable[[], float]] = None,
    ):
        self._stream = stream
        self._registry = MetricsRegistry()
        self._capture = capture
        self._time_source = time_source
        # ``kind, vt, *fields`` of every event not yet decoded, flat and
        # in emission order: nothing per event for the GC to track.
        self._records: List[Any] = []
        # ``(seq, event, vt)`` decoded from them; the first
        # ``len(self._lines)`` are folded.
        self._events: List[Tuple[int, TraceEvent, Optional[float]]] = []
        self._lines: List[str] = []
        self._seq = 0
        self._decoded = 0
        self._cost = TraceCost()
        self._hasher = hashlib.sha256()

    @property
    def time_source(self) -> Optional[Callable[[], float]]:
        """The virtual-clock reader stamping ``vt``, if any."""
        return self._time_source

    @time_source.setter
    def time_source(self, source: Optional[Callable[[], float]]) -> None:
        self._time_source = source

    # ------------------------------------------------------------------

    @property
    def registry(self) -> MetricsRegistry:
        """The metrics registry this tracer aggregates into.

        Up to date as of this read; read it again (rather than holding
        the returned object) after further emits.
        """
        self._fold()
        return self._registry

    @property
    def events(self) -> List[TraceEvent]:
        """The captured events, in emission order."""
        return [event for _, event, _ in self._decode()]

    @property
    def sequenced_events(self) -> List[Tuple[int, TraceEvent]]:
        """``(seq, event)`` pairs, in emission order."""
        return [(seq, event) for seq, event, _ in self._decode()]

    @property
    def lines(self) -> List[str]:
        """The canonical JSONL lines, in emission order."""
        self._fold()
        return list(self._lines)

    @property
    def num_events(self) -> int:
        """How many events have been emitted."""
        return self._seq

    @property
    def cost_total(self) -> TraceCost:
        """Sum of every emitted event's ledger charge."""
        self._fold()
        return self._cost

    # ------------------------------------------------------------------

    def emit(self, kind: Type[TraceEvent], *fields: object) -> int:
        """Record the event ``kind(*fields)``, every field given in
        declaration order; returns its sequence number.

        The event itself is built when the trace is first read.  A
        field count other than ``kind``'s raises ``TypeError`` here.
        """
        if len(fields) != kind.arity:
            raise TypeError(
                f"a {kind.kind!r} event has {kind.arity} fields; "
                f"emit got {len(fields)}"
            )
        seq = self._seq
        self._seq = seq + 1
        time_source = self._time_source
        records = self._records
        records.append(kind)
        records.append(time_source() if time_source is not None else None)
        records.extend(fields)
        if self._stream is not None or not self._capture:
            self._fold()
        return seq

    def _decode(self) -> List[Tuple[int, TraceEvent, Optional[float]]]:
        """Build the event of every record not yet decoded, in order
        and each exactly once; returns every decoded event."""
        records = self._records
        events = self._events
        seq = self._decoded
        at = 0
        while at < len(records):
            kind = records[at]
            start = at + 2
            at = start + kind.arity
            events.append((seq, kind(*records[start:at]), records[start - 1]))
            seq += 1
        self._decoded = seq
        records.clear()
        return events

    def _fold(self) -> None:
        """Encode and aggregate every event not yet folded, in order.

        The one place an event becomes a line, a digest update, a
        stream write, a cost addend and registry updates — each
        exactly once.
        """
        events = self._decode()
        folded = len(self._lines)
        if folded == len(events):
            return
        stream = self._stream
        for seq, event, vt in events[folded:]:
            line = event_line(seq, event, vt=vt)
            self._hasher.update(f"{line}\n".encode("utf-8"))
            if self._capture:
                self._lines.append(line)
            if stream is not None:
                stream.write(line)
                stream.write("\n")
            cost = event.cost()
            self._cost = self._cost + cost
            self._aggregate(event, cost)
        if not self._capture:
            events.clear()

    def _aggregate(self, event: TraceEvent, cost: TraceCost) -> None:
        registry = self._registry
        registry.counter("events_total").inc()
        registry.counter(f"events.{event.kind}").inc()
        if cost.messages:
            registry.counter("cost.messages").inc(cost.messages)
        if cost.hops:
            registry.counter("cost.hops").inc(cost.hops)
        if cost.visits:
            registry.counter("cost.visits").inc(cost.visits)
        if cost.timeouts:
            registry.counter("cost.timeouts").inc(cost.timeouts)
        if isinstance(event, WalkEvent):
            registry.histogram("walk.hops").observe(float(event.hops))
        elif isinstance(event, ProbeEvent):
            if event.outcome != "ok":
                registry.counter(
                    f"probe.failures.{event.outcome}"
                ).inc()
        elif isinstance(event, RetryEvent):
            registry.counter("retries_total").inc()
            registry.histogram("retry.backoff_ms").observe(event.backoff_ms)
        elif isinstance(event, ChurnEpochEvent):
            registry.gauge("churn.epoch").set(float(event.epoch))
            registry.gauge("churn.peers").set(float(event.peers))
        elif isinstance(event, EstimateEvent):
            registry.gauge(f"estimate.{event.engine}").set(event.estimate)
        elif isinstance(event, QueryLifecycleEvent):
            registry.counter(f"query.{event.status}").inc()
        elif isinstance(event, TimelineEvent):
            registry.counter(f"sim.timeline.{event.action}").inc()
            registry.gauge("sim.epoch").set(float(event.epoch))
        elif isinstance(event, LateDeliveryEvent):
            registry.counter("sim.late_deliveries").inc()
            registry.histogram("sim.late_by_ms").observe(
                event.delivered_ms - event.sent_ms
            )
        elif isinstance(event, StaleReplyEvent):
            registry.counter("sim.stale_replies").inc()

    # ------------------------------------------------------------------

    def digest(self) -> str:
        """sha256 over the canonical lines of every emitted event,
        captured or only streamed.

        With a fixed engine, seed and topology this value is a pure
        function of the run — the golden-trace tests pin it.
        """
        self._fold()
        return self._hasher.hexdigest()


_ACTIVE: ContextVar[Optional[Tracer]] = ContextVar(
    "repro_active_tracer", default=None
)


def active_tracer() -> Optional[Tracer]:
    """The tracer in effect for this context, or ``None``.

    This is the whole fast path when tracing is disabled: one context-
    variable read per instrumented site, compared against ``None``.
    """
    return _ACTIVE.get()


def emit_if_tracing(kind: Type[TraceEvent], *fields: object) -> None:
    """Emit ``kind(*fields)`` to the active tracer, if there is one."""
    tracer = _ACTIVE.get()
    if tracer is not None:
        tracer.emit(kind, *fields)


@contextlib.contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Activate ``tracer`` for the dynamic extent of the block."""
    token = _ACTIVE.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)
