"""Gnutella-style message protocol (paper §3.1).

The paper's network speaks the Gnutella protocol — ``Query`` /
``Query_Hit`` for flooding search — and adds a probabilistic *walker* message that carries an aggregation query
along a random walk.  This module defines those message types plus the
replies the sampling algorithm needs:

* :class:`WalkerProbe` — the walker, forwarded hop by hop;
* :class:`AggregateReply` — a visited peer's scaled local aggregate and
  degree, sent directly back to the sink (aggregation push-down, §3.2);
* :class:`AggregateSample` — what the sink holds once a collection's
  aggregate replies are in: their payloads as columns, one row per
  reply — the one form a COUNT/SUM/AVG sample takes from the visit to
  the estimate; a panel's replies are one per query
  (:class:`PanelSample`);
* :class:`GroupReply` — per-group scaled aggregates for GROUP BY;
* :class:`TupleReply` — a raw sub-sample of local tuples, used by
  median/quantile estimation where push-down is impossible;
* :class:`ValueSample` — the values replies of a collection as
  columns, every shipped value in one flat array.

Messages know their approximate wire size so the simulator can account
bandwidth; the header layout follows the classic Gnutella descriptor
(23 bytes: 16-byte id, 1-byte type, 1-byte TTL, 1-byte hops, 4-byte
payload length).
"""

from __future__ import annotations

import dataclasses
import enum
import operator
from typing import (
    Any,
    ClassVar,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
)

import numpy as np
from numpy.typing import ArrayLike, NDArray

from ..errors import ProtocolError, SamplingError

__all__ = [
    "GNUTELLA_HEADER_BYTES",
    "MessageType",
    "Message",
    "Query",
    "QueryHit",
    "WalkerProbe",
    "AggregateReply",
    "AggregateSample",
    "PanelSample",
    "GroupReply",
    "group_reply_bytes",
    "TupleReply",
    "tuple_reply_bytes",
    "ValueSample",
]

GNUTELLA_HEADER_BYTES = 23


class MessageType(enum.Enum):
    """Wire-level message discriminator."""

    QUERY = 0x80
    QUERY_HIT = 0x81
    WALKER_PROBE = 0x90
    AGGREGATE_REPLY = 0x91
    TUPLE_REPLY = 0x92
    GROUP_REPLY = 0x93


@dataclasses.dataclass(frozen=True, slots=True)
class Message:
    """Base class for all protocol messages.

    Attributes
    ----------
    source, destination:
        Peer ids of the immediate sender and receiver (one hop).
    ttl:
        Remaining time-to-live; flooding decrements it per hop.
    hops:
        Hops travelled so far.
    """

    # Total wire size for fixed-payload message families, precomputed
    # once per class; ``None`` means the payload is instance-dependent.
    SIZE_BYTES: ClassVar[Optional[int]] = None

    source: int
    destination: int
    ttl: int = 7
    hops: int = 0

    def __post_init__(self) -> None:
        if self.source < 0 or self.destination < 0:
            raise ProtocolError("peer ids must be non-negative")
        if self.ttl < 0:
            raise ProtocolError("ttl must be non-negative")
        if self.hops < 0:
            raise ProtocolError("hops must be non-negative")

    @property
    def message_type(self) -> MessageType:
        raise NotImplementedError

    def payload_bytes(self) -> int:
        """Size of the type-specific payload in bytes."""
        raise NotImplementedError

    def size_bytes(self) -> int:
        """Total wire size: Gnutella header plus payload."""
        if self.SIZE_BYTES is not None:
            return self.SIZE_BYTES
        return GNUTELLA_HEADER_BYTES + self.payload_bytes()

    def forwarded(self, new_source: int, new_destination: int) -> "Message":
        """A copy of this message advanced one hop."""
        if self.ttl == 0:
            raise ProtocolError("cannot forward a message with ttl=0")
        return dataclasses.replace(
            self,
            source=new_source,
            destination=new_destination,
            ttl=self.ttl - 1,
            hops=self.hops + 1,
        )


@dataclasses.dataclass(frozen=True, slots=True)
class Query(Message):
    """Flooding search query (the naive BFS the paper contrasts with)."""

    text: str = ""

    @property
    def message_type(self) -> MessageType:
        return MessageType.QUERY

    def payload_bytes(self) -> int:
        return 2 + len(self.text.encode("utf-8")) + 1


@dataclasses.dataclass(frozen=True, slots=True)
class QueryHit(Message):
    """Reply to a flooded :class:`Query`."""

    num_hits: int = 0

    @property
    def message_type(self) -> MessageType:
        return MessageType.QUERY_HIT

    def payload_bytes(self) -> int:
        return 11 + 8 * max(self.num_hits, 0)


@dataclasses.dataclass(frozen=True, slots=True)
class WalkerProbe(Message):
    """The sampling walker: carries the query along the random walk.

    ``sink`` rides along so any visited peer can reply directly to the
    query origin without intermediate hops (§3.2).
    """

    sink: int = 0
    query_text: str = ""
    tuples_per_peer: int = 0  # the sub-sampling budget t; 0 = scan all

    @property
    def message_type(self) -> MessageType:
        return MessageType.WALKER_PROBE

    def payload_bytes(self) -> int:
        return 4 + 4 + 2 + len(self.query_text.encode("utf-8"))


@dataclasses.dataclass(frozen=True, slots=True)
class AggregateReply(Message):
    """A visited peer's contribution for COUNT/SUM/AVG estimation.

    Carries the scaled local aggregate ``y(p)`` and the degree
    ``deg(p)`` (from which the sink reconstructs ``prob(p)``), exactly
    the tuple the paper's ``Visit`` procedure returns.
    """

    SIZE_BYTES: ClassVar[int] = GNUTELLA_HEADER_BYTES + (
        8 + 8 + 8 + 8 + 4 + 4 + 4
    )

    aggregate_value: float = 0.0
    matching_count: float = 0.0
    column_total: float = 0.0  # scaled sum of the column over ALL rows
    contribution_variance: float = 0.0  # per-tuple variance of z_u
    degree: int = 0
    local_tuples: int = 0
    processed_tuples: int = 0

    @property
    def message_type(self) -> MessageType:
        return MessageType.AGGREGATE_REPLY

    def payload_bytes(self) -> int:
        return 8 + 8 + 8 + 8 + 4 + 4 + 4


#: The payload of an :class:`AggregateReply`, field for field.
_SAMPLE_DTYPE = np.dtype(
    [
        ("source", np.int64),
        ("degree", np.int64),
        ("local_tuples", np.int64),
        ("processed_tuples", np.int64),
        ("aggregate_value", np.float64),
        ("matching_count", np.float64),
        ("column_total", np.float64),
        ("contribution_variance", np.float64),
    ]
)
_SAMPLE_COLUMNS: Tuple[str, ...] = _SAMPLE_DTYPE.names or ()
_reply_payload = operator.attrgetter(*_SAMPLE_COLUMNS)

#: The payload of a :class:`TupleReply` but its values, and how many
#: values it ships.
_VALUE_ROW_DTYPE = np.dtype(_SAMPLE_DTYPE.descr[:4] + [("shipped", "<i8")])
_value_payload = operator.attrgetter(*_SAMPLE_COLUMNS[:4])

_Rows = TypeVar("_Rows", bound="_ReplyRows")


@dataclasses.dataclass(frozen=True, slots=True, eq=False)
class _ReplyRows:
    """The replies of a collection as read-only columns, a row each,
    with the stationary probability the sink attaches."""

    rows: "NDArray[np.void]"
    sink: int
    probability: Optional["NDArray[np.float64]"] = None

    def __post_init__(self) -> None:
        self.rows.setflags(write=False)

    @classmethod
    def concat(cls: Type[_Rows], samples: Sequence[_Rows]) -> _Rows:
        """The rows of ``samples`` (at least one), back to back."""
        if len(samples) == 1:
            return samples[0]
        probabilities = [
            sample.probability
            for sample in samples
            if sample.probability is not None
        ]
        return cls(
            np.concatenate([sample.rows for sample in samples]),
            samples[0].sink,
            np.concatenate(probabilities)
            if len(probabilities) == len(samples)
            else None,
        )

    def take(self: _Rows, indices: "NDArray[np.intp]") -> _Rows:
        """The sample made of the rows at ``indices``, in that order."""
        return type(self)(
            self.rows[indices],
            self.sink,
            None if self.probability is None else self.probability[indices],
        )

    def with_probability(self: _Rows, probability: ArrayLike) -> _Rows:
        """The same rows with their stationary probabilities attached
        (a scalar serves every row); each must lie in (0, 1]."""
        values = np.asarray(probability, dtype=np.float64)
        if not values.ndim:
            values = np.broadcast_to(values, self.rows.shape)
        elif values.shape != self.rows.shape:
            raise SamplingError(
                f"{values.shape} probabilities for {self.rows.size} rows"
            )
        valid = (values > 0.0) & (values <= 1.0)
        if not valid.all():
            raise SamplingError(
                "stationary probability must be in (0, 1], "
                f"got {values[~valid][0]}"
            )
        return type(self)(self.rows, self.sink, values)

    def __len__(self) -> int:
        return int(self.rows.size)

    def __getitem__(self, column: str) -> "NDArray[Any]":
        if column != "probability":
            return self.rows[column]
        if self.probability is None:
            raise SamplingError(
                "the sample carries no stationary probabilities yet "
                "(see observations_from_replies)"
            )
        return self.probability


class AggregateSample(_ReplyRows):
    """The aggregate replies of a collection, as columns.

    One row per :class:`AggregateReply` that reached ``sink``, in
    arrival order; ``sample[name]`` is the read-only column of that
    reply field (``source``, ``degree``, ``local_tuples``,
    ``processed_tuples``, ``aggregate_value``, ``matching_count``,
    ``column_total``, ``contribution_variance``).  Batch visits fill
    the columns straight from their array kernels and every sink-side
    function reads them back as arrays, so no per-peer object exists
    between the visit and the estimate; iterating the sample
    materialises each row as a fresh :class:`AggregateReply` for
    whoever wants the protocol objects.

    ``probability`` — each row's probability under the walk's
    stationary distribution — is not on the wire: the sink reconstructs
    it from ``degree`` and attaches it (:meth:`with_probability`).
    Until then, and again after :meth:`replace` (a changed ``degree``
    is a changed probability), ``sample["probability"]`` raises
    :class:`~repro.errors.SamplingError`.
    """

    __slots__ = ()

    @classmethod
    def from_columns(
        cls, sink: int, size: int, **columns: ArrayLike
    ) -> "AggregateSample":
        """``size`` rows holding ``columns``; columns not given are 0."""
        rows = np.zeros(size, dtype=_SAMPLE_DTYPE)
        for name, values in columns.items():
            rows[name] = values
        return cls(rows, sink)

    @classmethod
    def from_replies(
        cls, replies: Iterable[AggregateReply], sink: int
    ) -> "AggregateSample":
        """The sample made of ``replies`` (scalar visits, oracles)."""
        rows = [_reply_payload(reply) for reply in replies]
        return cls(np.array(rows, dtype=_SAMPLE_DTYPE), sink)

    def replace(self, **columns: ArrayLike) -> "AggregateSample":
        """A new sample with ``columns`` overwritten (a scalar fills
        its column) and no probabilities."""
        rows = self.rows.copy()
        for name, values in columns.items():
            rows[name] = values
        return AggregateSample(rows, self.sink)

    def __iter__(self) -> Iterator[AggregateReply]:
        for row in self.rows.tolist():
            yield AggregateReply(
                destination=self.sink, **dict(zip(_SAMPLE_COLUMNS, row))
            )


@dataclasses.dataclass(frozen=True, slots=True)
class PanelSample:
    """A panel's replies: one :class:`AggregateSample` per query, over
    the same peers (a panel visit answers every query or none)."""

    samples: Tuple[AggregateSample, ...]

    @classmethod
    def concat(cls, panels: Sequence["PanelSample"]) -> "PanelSample":
        """The rows of ``panels`` (at least one), back to back."""
        return cls(tuple(
            AggregateSample.concat(parts)
            for parts in zip(*(panel.samples for panel in panels))
        ))

    def __len__(self) -> int:
        return len(self.samples[0])

    def __getitem__(self, column: str) -> "NDArray[Any]":
        return self.samples[0][column]


@dataclasses.dataclass(frozen=True, slots=True, eq=False)
class ValueSample:
    """The values replies of a collection, as one ragged sample.

    ``sample[name]`` reads a column of ``replies`` — a row per
    :class:`TupleReply` that reached the sink, as on
    :class:`AggregateSample`, with ``shipped`` (how many values it
    shipped) in place of the aggregates.  ``values`` is every shipped
    value, row after row, cut by :attr:`offsets` — or every shipped row
    of values, when a reply ships rows (a GROUP BY reply: one
    ``(group, count, sum)`` row per group).
    """

    replies: _ReplyRows
    values: "NDArray[np.float64]"

    def __post_init__(self) -> None:
        self.values.setflags(write=False)

    @classmethod
    def from_columns(
        cls, sink: int, size: int, values: ArrayLike = (), **columns: ArrayLike
    ) -> "ValueSample":
        """``size`` rows holding ``columns`` that shipped ``values``."""
        rows = np.zeros(size, dtype=_VALUE_ROW_DTYPE)
        for name, column in columns.items():
            rows[name] = column
        return cls(_ReplyRows(rows, sink), np.array(values, dtype=np.float64))

    @classmethod
    def from_replies(
        cls, replies: Iterable["TupleReply"], sink: int
    ) -> "ValueSample":
        """The sample made of ``replies`` (scalar visits, oracles)."""
        replies = list(replies)
        rows = [(*_value_payload(r), len(r.values)) for r in replies]
        return cls(
            _ReplyRows(np.array(rows, dtype=_VALUE_ROW_DTYPE), sink),
            np.array([v for r in replies for v in r.values], dtype=np.float64),
        )

    @classmethod
    def concat(cls, samples: Sequence["ValueSample"]) -> "ValueSample":
        """The rows of ``samples`` (at least one), back to back."""
        return cls(
            _ReplyRows.concat([sample.replies for sample in samples]),
            np.concatenate([sample.values for sample in samples]),
        )

    def take(self, indices: "NDArray[np.intp]") -> "ValueSample":
        """The rows at ``indices``, in that order, with their values."""
        shipped = self["shipped"][indices]
        moved = self.offsets[indices] - (np.cumsum(shipped) - shipped)
        return ValueSample(
            self.replies.take(indices),
            self.values[np.arange(shipped.sum()) + np.repeat(moved, shipped)],
        )

    def with_probability(self, probability: ArrayLike) -> "ValueSample":
        """:meth:`AggregateSample.with_probability`, values kept."""
        return ValueSample(
            self.replies.with_probability(probability), self.values
        )

    @property
    def offsets(self) -> "NDArray[np.int64]":
        """Where each row's values start in ``values``."""
        return np.cumsum(self["shipped"]) - self["shipped"]

    def __len__(self) -> int:
        return len(self.replies)

    def __getitem__(self, column: str) -> "NDArray[Any]":
        return self.replies[column]

    def __iter__(self) -> Iterator["TupleReply"]:
        values = self.values.tolist()
        for row, start in zip(self.replies.rows.tolist(), self.offsets.tolist()):
            *payload, shipped = row
            yield TupleReply(
                destination=self.replies.sink,
                values=tuple(values[start:start + shipped]),
                **dict(zip(_SAMPLE_COLUMNS[:4], payload)),
            )


@dataclasses.dataclass(frozen=True, slots=True)
class GroupReply(Message):
    """Per-group scaled aggregates for GROUP BY queries.

    ``entries`` holds ``(group, scaled_count, scaled_sum)`` triples for
    every group present in the peer's processed tuples; payload size
    scales with the number of groups, which is why GROUP BY sits
    between pure push-down (one scalar) and value shipping (the whole
    sample) on the bandwidth axis.
    """

    entries: Tuple[Tuple[float, float, float], ...] = ()
    degree: int = 0
    local_tuples: int = 0
    processed_tuples: int = 0

    @property
    def message_type(self) -> MessageType:
        return MessageType.GROUP_REPLY

    def payload_bytes(self) -> int:
        return int(group_reply_bytes(len(self.entries))) - GNUTELLA_HEADER_BYTES


def group_reply_bytes(entries: ArrayLike) -> "NDArray[np.int64]":
    """The wire size of a :class:`GroupReply` carrying ``entries``
    groups, a size per count when given an array — the one rule its
    ``size_bytes()`` and a batch visit's charge read."""
    return GNUTELLA_HEADER_BYTES + 4 + 4 + 4 + 24 * np.asarray(
        entries, dtype=np.int64
    )


@dataclasses.dataclass(frozen=True, slots=True)
class TupleReply(Message):
    """Raw sub-sampled values for aggregates without push-down.

    Median/quantile estimation ships either the local median or a raw
    value sample; either way the payload scales with the data shipped,
    which is why the paper calls out nontrivial bandwidth costs for
    these aggregates.
    """

    values: Tuple[float, ...] = ()
    degree: int = 0
    local_tuples: int = 0
    processed_tuples: int = 0

    @property
    def message_type(self) -> MessageType:
        return MessageType.TUPLE_REPLY

    def payload_bytes(self) -> int:
        return int(tuple_reply_bytes(len(self.values))) - GNUTELLA_HEADER_BYTES


def tuple_reply_bytes(shipped: ArrayLike) -> "NDArray[np.int64]":
    """The wire size of a :class:`TupleReply` shipping ``shipped``
    values, a size per count when given an array — the one rule its
    ``size_bytes()`` and a batch visit's charge read."""
    return GNUTELLA_HEADER_BYTES + 4 + 4 + 4 + 8 * np.asarray(
        shipped, dtype=np.int64
    )
