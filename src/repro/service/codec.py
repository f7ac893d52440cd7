"""Versioned tuple codec for the sharded backend's reply transport.

A worker's reply used to cross the pool queue as one whole-object
pickle of :class:`~repro.service.backend.QueryReply` — which drags
along the query AST (the parent already has it), dataclass metadata
for every nested object, and the full tracer.  This module flattens
the reply into a plain tuple of primitives instead: the parent keeps
the :class:`~repro.service.scheduler.QueryTicket` it minted at submit
and reattaches it (and the query inside the result) by ``query_id``
at decode.

The wire format is versioned (:data:`REPLY_WIRE_VERSION`, the first
element of every encoded reply) so a parent and worker that somehow
disagree on the codec fail loudly with a
:class:`~repro.errors.ServiceError` instead of mis-zipping fields.
Encoding touches no float: every numeric field passes through
untouched, so decode(encode(x)) is bit-identical — the round-trip
property tests pin this, and the serial==sharded parity gates rest
on it.

Objects with no fixed schema — a result ``analysis`` payload, a
:class:`~repro.errors.ReproError`, a non-standard result type — ride
inside the tuple as-is and are pickled by the queue exactly as
before; the codec only flattens the shapes it knows.
"""

from __future__ import annotations

import dataclasses
from typing import Any, List, Optional, Tuple

from ..core.confidence import ConfidenceInterval
from ..core.result import ApproximateResult, PhaseReport
from ..errors import ServiceError
from ..metrics.cost import QueryCost
from ..sim.timing import QueryTiming
from .scheduler import QueryTicket

__all__ = [
    "REPLY_WIRE_VERSION",
    "TraceWire",
    "decode_reply",
    "encode_reply",
    "reply_query_id",
]

#: Bump on any change to the tuple layouts below.
REPLY_WIRE_VERSION = 3

#: Marker for a result slot holding an arbitrary (opaque) object.
_OPAQUE = "obj"
#: Marker for a result slot holding a flattened ApproximateResult.
_APPROX = "approx"
#: Marker for a cost slot that aliases the result's own cost object.
_COST_FROM_RESULT = "result"


@dataclasses.dataclass(frozen=True)
class TraceWire:
    """A completed trace as it crosses the queue: digest and lines.

    Satisfies :class:`~repro.obs.tracer.TraceLike`, so the decoded
    wire is the parent's trace object as it stands.
    """

    sha256: str
    canonical_lines: Tuple[str, ...]

    @property
    def lines(self) -> List[str]:
        """The canonical JSONL lines, in emission order."""
        return list(self.canonical_lines)

    @property
    def num_events(self) -> int:
        """How many events the trace holds."""
        return len(self.canonical_lines)

    def digest(self) -> str:
        """sha256 over the canonical lines, as the worker computed it."""
        return self.sha256


def _encode_cost(cost: Optional[QueryCost]) -> Optional[tuple]:
    if cost is None:
        return None
    return (
        cost.messages,
        cost.hops,
        cost.peers_visited,
        cost.distinct_peers,
        cost.tuples_processed,
        cost.tuples_sampled,
        cost.bytes_sent,
        cost.latency_ms,
        cost.timeouts,
    )


def _decode_cost(data: Optional[tuple]) -> Optional[QueryCost]:
    if data is None:
        return None
    return QueryCost(
        messages=data[0],
        hops=data[1],
        peers_visited=data[2],
        distinct_peers=data[3],
        tuples_processed=data[4],
        tuples_sampled=data[5],
        bytes_sent=data[6],
        latency_ms=data[7],
        timeouts=data[8],
    )


def _encode_phase(phase: Optional[PhaseReport]) -> Optional[tuple]:
    if phase is None:
        return None
    return (
        phase.peers_visited,
        phase.tuples_sampled,
        phase.hops,
        phase.estimate,
    )


def _decode_phase(data: Optional[tuple]) -> Optional[PhaseReport]:
    if data is None:
        return None
    return PhaseReport(
        peers_visited=data[0],
        tuples_sampled=data[1],
        hops=data[2],
        estimate=data[3],
    )


def _encode_timing(timing: Optional[QueryTiming]) -> Optional[tuple]:
    if timing is None:
        return None
    return (
        timing.started_ms,
        timing.finished_ms,
        timing.deadline_ms,
        timing.deadline_missed,
        timing.epochs_crossed,
        timing.stale_replies,
        timing.staleness_ms,
    )


def _decode_timing(data: Optional[tuple]) -> Optional[QueryTiming]:
    if data is None:
        return None
    return QueryTiming(
        started_ms=data[0],
        finished_ms=data[1],
        deadline_ms=data[2],
        deadline_missed=data[3],
        epochs_crossed=data[4],
        stale_replies=data[5],
        staleness_ms=data[6],
    )


def _encode_result(result: Optional[object]) -> Optional[tuple]:
    if result is None:
        return None
    if not isinstance(result, ApproximateResult):
        # MedianResult and friends: rare on the serving path, so let
        # the queue pickle them whole rather than grow the schema.
        return (_OPAQUE, result)
    interval = result.confidence_interval
    return (
        _APPROX,
        result.estimate,
        result.delta_req,
        result.scale,
        (interval.estimate, interval.half_width, interval.confidence),
        _encode_phase(result.phase_one),
        _encode_phase(result.phase_two),
        _encode_cost(result.cost),
        result.analysis,
        result.requested_sample_size,
        result.effective_sample_size,
        result.degraded,
        _encode_timing(result.timing),
    )


def _decode_result(
    data: Optional[tuple], ticket: QueryTicket
) -> Optional[object]:
    if data is None:
        return None
    if data[0] == _OPAQUE:
        return data[1]
    interval = data[4]
    phase_one = _decode_phase(data[5])
    assert phase_one is not None  # phase one always runs
    return ApproximateResult(
        query=ticket.query,
        estimate=data[1],
        delta_req=data[2],
        scale=data[3],
        confidence_interval=ConfidenceInterval(
            estimate=interval[0],
            half_width=interval[1],
            confidence=interval[2],
        ),
        phase_one=phase_one,
        phase_two=_decode_phase(data[6]),
        cost=_decode_cost(data[7]),
        analysis=data[8],
        requested_sample_size=data[9],
        effective_sample_size=data[10],
        degraded=data[11],
        timing=_decode_timing(data[12]),
    )


def encode_reply(
    reply: Any, *, trace: Optional[TraceWire] = None
) -> tuple:
    """Flatten one ``QueryReply`` (tracer excluded) for the queue.

    ``trace`` is the reply's trace, shipped as ``(digest, lines)``;
    an untraced reply's slot is ``None``.
    """
    result_slot = _encode_result(reply.result)
    if reply.result is not None and reply.cost is reply.result.cost:
        # The common "done" shape: don't ship the same ledger twice.
        cost_slot: Any = _COST_FROM_RESULT
    else:
        cost_slot = _encode_cost(reply.cost)
    return (
        REPLY_WIRE_VERSION,
        reply.ticket.query_id,
        reply.status,
        result_slot,
        reply.error,
        reply.detail,
        cost_slot,
        reply.chunks,
        (trace.sha256, trace.canonical_lines) if trace is not None else None,
        reply.warm_runs,
        reply.cold_runs,
        reply.delta_runs,
        reply.cache_hits,
        reply.cache_misses,
        reply.cache_churn_invalidations,
        reply.cache_delta_hits,
    )


def _check_version(wire: object) -> tuple:
    if (
        not isinstance(wire, tuple)
        or len(wire) != 16
        or wire[0] != REPLY_WIRE_VERSION
    ):
        version = wire[0] if isinstance(wire, tuple) and wire else wire
        raise ServiceError(
            f"unexpected wire payload (want reply version "
            f"{REPLY_WIRE_VERSION}, got {version!r})"
        )
    return wire


def reply_query_id(wire: object) -> int:
    """The ``query_id`` of an encoded reply (validates the version)."""
    return int(_check_version(wire)[1])


def decode_reply(
    wire: object, *, ticket: QueryTicket
) -> Tuple[Any, Optional[TraceWire]]:
    """Rebuild ``(QueryReply, trace)`` from one encoded reply.

    ``ticket`` must be the parent's ticket for the reply's query id —
    it supplies the query object the encoder dropped.  The returned
    reply has ``tracer=None``; the caller attaches the returned
    :class:`TraceWire` (``None`` for an untraced run).
    """
    from .backend import QueryReply

    data = _check_version(wire)
    if data[1] != ticket.query_id:
        raise ServiceError(
            f"reply for query {data[1]} decoded against ticket "
            f"{ticket.query_id}"
        )
    result = _decode_result(data[3], ticket)
    if data[6] == _COST_FROM_RESULT:
        assert result is not None
        cost = result.cost
    else:
        cost = _decode_cost(data[6])
    trace = TraceWire(*data[8]) if data[8] is not None else None
    reply = QueryReply(
        ticket=ticket,
        status=data[2],
        result=result,
        error=data[4],
        detail=data[5],
        cost=cost,
        chunks=data[7],
        tracer=None,
        warm_runs=data[9],
        cold_runs=data[10],
        delta_runs=data[11],
        cache_hits=data[12],
        cache_misses=data[13],
        cache_churn_invalidations=data[14],
        cache_delta_hits=data[15],
    )
    return reply, trace
