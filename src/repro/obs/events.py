"""Typed trace events emitted by the instrumented engine paths.

Every event is a frozen dataclass whose fields are plain, seeded-run
deterministic values — peer ids, hop counts, outcome strings, float
estimates.  No event carries a wall-clock timestamp or consumes
randomness, which is what makes the trace of a seeded run a stable,
byte-for-byte test artifact (see ``tests/test_trace_golden.py``).
Sites emit an event as its type and its fields in declaration order
(``tracer.emit(WalkEvent, start, hops, selected, distinct)``); these
classes are what reading the trace builds from them.

Cost reconciliation contract
----------------------------

Each event knows the exact :class:`~repro.metrics.cost.CostLedger`
charge recorded at its emission site (:meth:`TraceEvent.cost`), so the
per-field sum of event costs over a trace reconciles *exactly* with
the run's final ledger snapshot:

===================  ==========  =====  ======  ========
event                messages    hops   visits  timeouts
===================  ==========  =====  ======  ========
walk                 hops        hops   0       0
probe ok             replies     0/1*   1/0*    0
probe lost           request     req.   1       0
probe crashed        request     req.   1       1
probe timeout        request     req.   1       1
batch-visit          replies     0      req'd   0
batch-fallback       0           0      0       0
retry                0           0      0       0
substitute           jump        jump   0       0
fault                0           0      0       0
flood                messages    0      0       0
delta-reuse          0           0      0       0
timeline             0           0      0       0
late-delivery        0           0      0       0
stale-reply          0           0      0       0
phase/estimate/...   0           0      0       0
===================  ==========  =====  ======  ========

(*) A ``ping`` probe charges its request hop itself (1 message +
1 hop, no visit); a visit charges one visit and its reply messages
(one, or a panel's ``k``), and a batch visit the same per peer.
Walk hops are charged by the walk's *caller* via ``record_hops`` —
every engine collection path does so immediately after the walk,
which is why the walk event owns that charge.

Latency-only charges (backoff waits, latency spikes, flood depth) are
traced as events with zero countable cost: the reconciliation contract
covers the integer fields ``messages``/``hops``/``peers_visited``/
``timeouts``, which is what the paper's evaluation counts.
"""

from __future__ import annotations

import dataclasses
from typing import ClassVar, Dict, NamedTuple, Optional, Tuple, Type

__all__ = [
    "EVENT_TYPES",
    "TraceCost",
    "TraceEvent",
    "WalkEvent",
    "ProbeEvent",
    "BatchVisitEvent",
    "BatchFallbackEvent",
    "RetryEvent",
    "SubstituteEvent",
    "FaultEvent",
    "FloodEvent",
    "PhaseEvent",
    "EstimateEvent",
    "ChurnEpochEvent",
    "DeltaReuseEvent",
    "QueryLifecycleEvent",
    "TimelineEvent",
    "LateDeliveryEvent",
    "StaleReplyEvent",
]


class TraceCost(NamedTuple):
    """The exact ledger charge recorded at one event's emission site."""

    messages: int = 0
    hops: int = 0
    visits: int = 0
    timeouts: int = 0

    def __add__(self, other: object) -> "TraceCost":  # type: ignore[override]
        if not isinstance(other, TraceCost):
            return NotImplemented  # type: ignore[return-value]
        return TraceCost(
            messages=self.messages + other.messages,
            hops=self.hops + other.hops,
            visits=self.visits + other.visits,
            timeouts=self.timeouts + other.timeouts,
        )

    def nonzero(self) -> Dict[str, int]:
        """The non-zero fields, for compact serialization."""
        return {
            name: value
            for name, value in zip(self._fields, self)
            if value != 0
        }


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """Base class: an event kind plus its payload and ledger charge."""

    kind: ClassVar[str] = "event"
    #: Fields that are ledger charge (carried by :meth:`cost`), not
    #: payload.
    cost_fields: ClassVar[Tuple[str, ...]] = ()
    #: How many fields the event declares: what ``Tracer.emit`` takes
    #: after the event type (set for every type in :data:`EVENT_TYPES`).
    arity: ClassVar[int] = 0

    def cost(self) -> TraceCost:
        """The ledger charge recorded where this event was emitted."""
        return TraceCost()

    def payload(self) -> Dict[str, object]:
        """The event's serializable fields (cost is carried separately).

        A frozen, slot-less dataclass instance holds exactly its
        fields, so the instance dict *is* the field list.
        """
        payload = self.__dict__.copy()
        for name in self.cost_fields:
            del payload[name]
        return payload


@dataclasses.dataclass(frozen=True)
class WalkEvent(TraceEvent):
    """One sampling walk completed (``RandomWalker.sample_peers``).

    The walk's hops are charged by the caller via ``record_hops``
    immediately after the walk returns; this event owns that charge.
    """

    kind: ClassVar[str] = "walk"

    start: int = 0
    hops: int = 0
    selected: int = 0
    distinct: int = 0

    def cost(self) -> TraceCost:
        return TraceCost(messages=self.hops, hops=self.hops)


@dataclasses.dataclass(frozen=True)
class ProbeEvent(TraceEvent):
    """One peer probe resolved (reply received, lost, crash, timeout).

    ``charge`` is the exact ledger delta of the probe, computed at the
    emission site in the simulator — success charges the visit and its
    reply message(s); failures charge what the failure path charged.
    """

    kind: ClassVar[str] = "probe"
    cost_fields: ClassVar[Tuple[str, ...]] = ("charge",)

    peer: int = 0
    probe_kind: str = ""
    outcome: str = "ok"  # ok | lost | crashed | timeout
    replies: int = 0
    charge: TraceCost = TraceCost()

    def cost(self) -> TraceCost:
        return self.charge


@dataclasses.dataclass(frozen=True)
class BatchVisitEvent(TraceEvent):
    """A vectorized batch visit served all its ``requested`` peers in
    one pass; ``replies`` reply messages reached the sink (a panel
    sends ``k`` per visit)."""

    kind: ClassVar[str] = "batch-visit"

    probe_kind: str = ""
    requested: int = 0
    replies: int = 0

    def cost(self) -> TraceCost:
        return TraceCost(messages=self.replies, visits=self.requested)


@dataclasses.dataclass(frozen=True)
class BatchFallbackEvent(TraceEvent):
    """A batch visit resolves its probes one by one (faults or virtual
    time armed), each probe traced on its own.  The fate order follows
    the reply's size: a reply of fixed size (aggregate, panel) is
    charged per probe and the survivors' rows read in one pass
    afterwards; a reply sized by its rows (values, GROUP BY) is read
    per probe, through the same kernel with one segment."""

    kind: ClassVar[str] = "batch-fallback"

    probe_kind: str = ""
    requested: int = 0
    reason: str = "faults-active"


@dataclasses.dataclass(frozen=True)
class RetryEvent(TraceEvent):
    """The resilient collector is about to re-probe after a failure.

    Emitted *between* the failed probe event and the retried probe
    event for the same peer (the bracketing invariant the property
    suite asserts).  Backoff waits are latency-only, so the countable
    cost is zero.
    """

    kind: ClassVar[str] = "retry"

    peer: int = 0
    attempt: int = 0
    backoff_ms: float = 0.0


@dataclasses.dataclass(frozen=True)
class SubstituteEvent(TraceEvent):
    """A crashed peer was replaced by walking from the last good peer."""

    kind: ClassVar[str] = "substitute"

    failed: int = 0
    replacement: int = 0
    hops: int = 0

    def cost(self) -> TraceCost:
        return TraceCost(messages=self.hops, hops=self.hops)


@dataclasses.dataclass(frozen=True)
class FaultEvent(TraceEvent):
    """The fault plan decided a probe's fate (non-clean decisions only).

    Purely informational: the resulting ledger charge is carried by
    the probe event the simulator emits for the same probe.
    """

    kind: ClassVar[str] = "fault"

    step: int = 0
    peer: int = 0
    probe_kind: str = ""
    outcome: str = ""  # crashed | lost | timeout | spike
    extra_latency_ms: float = 0.0


@dataclasses.dataclass(frozen=True)
class FloodEvent(TraceEvent):
    """One BFS flood completed; ``messages`` edges were traversed."""

    kind: ClassVar[str] = "flood"

    start: int = 0
    ttl: int = 0
    reached: int = 0
    depth: int = 0
    messages: int = 0

    def cost(self) -> TraceCost:
        return TraceCost(messages=self.messages)


@dataclasses.dataclass(frozen=True)
class PhaseEvent(TraceEvent):
    """An engine phase transition (start/end of phase I, analysis, II)."""

    kind: ClassVar[str] = "phase"

    engine: str = ""
    phase: str = ""  # one | analysis | two
    status: str = ""  # start | end
    requested: int = 0
    received: int = 0
    estimate: Optional[float] = None
    error: Optional[float] = None  # cross-validation / rank error


@dataclasses.dataclass(frozen=True)
class EstimateEvent(TraceEvent):
    """An engine finalized its estimate."""

    kind: ClassVar[str] = "estimate"

    engine: str = ""
    agg: str = ""
    estimate: float = 0.0
    requested: int = 0
    received: int = 0
    degraded: bool = False


@dataclasses.dataclass(frozen=True)
class QueryLifecycleEvent(TraceEvent):
    """A serving-layer query changed state (submitted/started/finished).

    Emitted by the query service into the query's *own* tracer.  The
    payload carries only scheduling-independent values — no queue
    depths, no tick numbers — so a query's trace is a pure function of
    its submission-order seed and is bit-identical between serial and
    concurrent execution (the service's keystone invariant).
    """

    kind: ClassVar[str] = "query"

    query_id: int = 0
    status: str = ""  # submitted | started | done | failed | budget-exceeded
    signature: str = ""
    detail: str = ""  # budget violation / error text on failure


@dataclasses.dataclass(frozen=True)
class DeltaReuseEvent(TraceEvent):
    """A delta re-estimation reused part of a retained sample.

    Emitted only on the hybrid engine's delta path (feature-gated, off
    by default — traces of default runs are unchanged).  The countable
    cost is zero: reusing survivors costs nothing, and the deficit walk
    and visits are charged by their own walk/probe events.
    """

    kind: ClassVar[str] = "delta-reuse"

    survivors: int = 0
    dropped: int = 0
    deficit: int = 0


@dataclasses.dataclass(frozen=True)
class TimelineEvent(TraceEvent):
    """A scheduled churn-timeline entry fired on the virtual clock.

    Emitted by the discrete-event kernel when a ``depart``/``join``/
    ``epoch`` entry comes due.  Zero countable cost: reachability
    changes are free, their consequences are charged by the probes
    that run into them.
    """

    kind: ClassVar[str] = "timeline"

    action: str = ""  # depart | join | epoch
    at_ms: float = 0.0
    peer: Optional[int] = None
    epoch: int = 0


@dataclasses.dataclass(frozen=True)
class LateDeliveryEvent(TraceEvent):
    """A reply arrived after its sink had already given up waiting.

    This is the observable difference between "slow" and "lost": the
    probe's own event reported a timeout (and charged it), but the
    message was still in flight and lands here when the kernel drains
    past its delivery time.  Zero countable cost — the timeout charge
    was recorded by the probe event.
    """

    kind: ClassVar[str] = "late-delivery"

    peer: int = 0
    probe_kind: str = ""
    sent_ms: float = 0.0
    delivered_ms: float = 0.0


@dataclasses.dataclass(frozen=True)
class StaleReplyEvent(TraceEvent):
    """A reply was delivered after the network's epoch moved on.

    The reply answers from the snapshot of ``sent_epoch`` but arrived
    in ``delivered_epoch``; whether the engine keeps it is the
    simulator's ``stale_mode`` policy.  Zero countable cost (the
    accepted visit is charged by its probe event; a rejected one is
    charged like a loss by its probe event).
    """

    kind: ClassVar[str] = "stale-reply"

    peer: int = 0
    probe_kind: str = ""
    sent_epoch: int = 0
    delivered_epoch: int = 0


@dataclasses.dataclass(frozen=True)
class ChurnEpochEvent(TraceEvent):
    """A live network froze a new snapshot (one churn epoch)."""

    kind: ClassVar[str] = "churn-epoch"

    epoch: int = 0
    peers: int = 0
    fault_clock: int = 0


#: Every event type, each named in a trace line by its ``kind``.
EVENT_TYPES: Tuple[Type[TraceEvent], ...] = tuple(TraceEvent.__subclasses__())
for _type in EVENT_TYPES:
    _type.arity = len(dataclasses.fields(_type))
