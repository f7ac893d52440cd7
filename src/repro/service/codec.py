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
:class:`~repro.errors.ReproError`, a MEDIAN/QUANTILE or GROUP BY
result — ride inside the tuple as-is and are pickled by the queue
exactly as before; the codec only flattens the shapes it knows.
"""

from __future__ import annotations

import dataclasses
import operator
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
REPLY_WIRE_VERSION = 4

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


#: A reply's fixed-schema parts cross as the tuple of their fields in
#: declaration order and are rebuilt positionally.
_FIELDS = {
    kind: operator.attrgetter(*(field.name for field in dataclasses.fields(kind)))
    for kind in (ConfidenceInterval, PhaseReport, QueryCost, QueryTiming)
}


def _flat(part: Optional[Any]) -> Optional[tuple]:
    """``part``'s fields in declaration order (``None`` stays ``None``)."""
    return None if part is None else _FIELDS[type(part)](part)


def _build(kind: Any, data: Optional[tuple]) -> Any:
    """The ``kind`` a :func:`_flat` tuple was made from."""
    return None if data is None else kind(*data)


def _encode_result(result: Optional[object]) -> Optional[tuple]:
    if result is None:
        return None
    if not isinstance(result, ApproximateResult):
        # A MedianResult or GroupByResult, served like any other: the
        # queue pickles it whole, so the schema stays one shape.
        return (_OPAQUE, result)
    return (
        _APPROX,
        result.estimate,
        result.delta_req,
        result.scale,
        _flat(result.confidence_interval),
        _flat(result.phase_one),
        _flat(result.phase_two),
        _flat(result.cost),
        result.analysis,
        result.requested_sample_size,
        result.effective_sample_size,
        result.degraded,
        _flat(result.timing),
    )


def _decode_result(
    data: Optional[tuple], ticket: QueryTicket
) -> Optional[object]:
    if data is None:
        return None
    if data[0] == _OPAQUE:
        return data[1]
    return ApproximateResult(
        query=ticket.query,
        estimate=data[1],
        delta_req=data[2],
        scale=data[3],
        confidence_interval=_build(ConfidenceInterval, data[4]),
        phase_one=_build(PhaseReport, data[5]),
        phase_two=_build(PhaseReport, data[6]),
        cost=_build(QueryCost, data[7]),
        analysis=data[8],
        requested_sample_size=data[9],
        effective_sample_size=data[10],
        degraded=data[11],
        timing=_build(QueryTiming, data[12]),
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
        cost_slot = _flat(reply.cost)
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
        reply.cache_entries,
    )


def _check_version(wire: object) -> tuple:
    if (
        not isinstance(wire, tuple)
        or len(wire) != 17
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
        cost = _build(QueryCost, data[6])
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
        cache_entries=data[16],
    )
    return reply, trace
