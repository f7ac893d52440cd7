"""The reply kinds of the paper's ``Visit`` procedure (§4).

A visited peer sub-samples at most ``t`` tuples, runs the query on
them, scales by ``#tuples / #processedTuples`` and replies directly to
the sink.  What it replies is the *kind*: a pushed-down COUNT/SUM/AVG
aggregate, a panel of them on one sub-sample, per-group entries, or
the values themselves for holistic aggregates (§5.6).  Each kind is
one :class:`Visits` subclass whose :meth:`~Visits.kernel` turns a whole
chunk's gathered rows (:class:`ChunkRows`) into the sample of its
replies in one pass, for the simulator's one driver
(:meth:`~repro.network.simulator.NetworkSimulator.visit_batch`).
"""

from __future__ import annotations

import dataclasses
from typing import (
    TYPE_CHECKING,
    Any,
    ClassVar,
    Dict,
    Generic,
    NamedTuple,
    Optional,
    Tuple,
    TypeVar,
)

import numpy as np
from numpy.typing import NDArray

from .._util import SeedLike
from ..data.segments import segment_aggregate, segment_sums
from ..errors import ConfigurationError
from ..metrics.cost import CostLedger
from ..query.model import AggregateOp, AggregationQuery
from .protocol import (
    AggregateReply,
    AggregateSample,
    PanelSample,
    ValueSample,
    group_reply_bytes,
    tuple_reply_bytes,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .simulator import NetworkSimulator
    from .walker import CollectionStats, ResilientCollector


__all__ = [
    "ChunkRows",
    "Visits",
    "AggregateVisits",
    "PanelVisits",
    "ValueVisits",
    "GroupVisits",
]

#: A reply kind's sample.
_S = TypeVar("_S")


def _check_tuples_per_peer(tuples_per_peer: int) -> None:
    """The one budget validator every visit entry point runs first."""
    if tuples_per_peer < 0:
        raise ConfigurationError("tuples_per_peer must be >= 0")


def _check_sampling_method(sampling_method: str) -> None:
    """The one sampling-method validator every visit entry point runs
    first, whether or not the visit ends up sub-sampling: row-level
    (``"uniform"``) or block-level (``"block"``)."""
    if sampling_method not in ("uniform", "block"):
        raise ConfigurationError(
            f"unknown sampling method {sampling_method!r}; "
            "expected 'uniform' or 'block'"
        )


def _check_pushdown(query: AggregationQuery) -> None:
    """Aggregate visits compute at the peer; holistic aggregates
    (MEDIAN, quantiles) cannot and must ship values instead."""
    if not query.agg.supports_pushdown:
        raise ConfigurationError(
            f"{query.agg.value} cannot be pushed down; use visit_values_batch"
        )


class ChunkRows(NamedTuple):
    """A chunk's gathered rows, what every kernel reads: the visited
    ``peers`` in visit order, their (sub-sampled) rows laid out
    segment after segment in ``columns``, each segment's start, its
    processed-row count and its peer's partition size."""

    peers: np.ndarray
    columns: Dict[str, np.ndarray]
    starts: np.ndarray
    processed: np.ndarray
    totals: np.ndarray


@dataclasses.dataclass(eq=False)
class Visits(Generic[_S]):
    """One collection's visits of one reply kind, over its arguments.

    A subclass supplies its ``kind`` (the probe kind the fault plan and
    the trace see), its argument :meth:`check`, its :meth:`kernel`, its
    replies' wire size, and how a chunk (:meth:`visit`) and a resilient
    collection (:meth:`collect`) of it run.

    The wire size decides the fate order.  A reply of fixed size
    (``reply_bytes``) is charged before its rows are read: a faulted
    chunk resolves every probe's fate, then reads the survivors' rows
    in one pass.  A reply sized by its rows (``reply_bytes`` is
    ``None``; :meth:`sized` prices each) is read probe by probe,
    through the same kernel with one segment.
    """

    kind: ClassVar[str]
    #: Every reply's wire size, when its rows do not decide it.
    reply_bytes: ClassVar[Optional[int]] = None

    simulator: NetworkSimulator
    query: Any
    sink: int
    tuples_per_peer: int = 0
    sampling_method: str = "uniform"
    seed: SeedLike = None
    #: Replies a visit sends before it is charged (a panel's ``k``);
    #: 0 means one reply, charged after the visit.
    leading_replies: int = dataclasses.field(default=0, init=False)

    def check(self) -> None:
        """Reject bad arguments before anything observable happens (no
        fault-clock step consumed, nothing charged or traced)."""
        raise NotImplementedError

    def kernel(self, rows: ChunkRows) -> _S:
        """The replies of ``rows.peers``, one per peer, in order."""
        raise NotImplementedError

    def sized(self, sample: _S) -> NDArray[np.int64]:
        """Each reply's wire size in ``sample``, from what it ships."""
        raise NotImplementedError

    def visit(self, peers: np.ndarray, ledger: CostLedger) -> _S:
        """The visits of ``peers``, one chunk."""
        return self.simulator.visit_batch(peers, self, ledger)

    def collect(
        self,
        collector: ResilientCollector,
        count: int,
        ledger: CostLedger,
        probe_bytes: int,
    ) -> Tuple[_S, CollectionStats]:
        """A resilient collection of ``count`` replies."""
        return collector.collect(self, count, ledger, probe_bytes)


@dataclasses.dataclass(eq=False)
class AggregateVisits(Visits[AggregateSample]):
    """COUNT/SUM/AVG visits (§4): one :class:`AggregateReply` of fixed
    size each, the query pushed down to the peer.

    A chunk and a collection go through the named entry points
    (``visit_aggregate_batch``, ``collect_aggregate``), which the
    serving benchmark times.
    """

    kind = "aggregate"
    reply_bytes = AggregateReply.SIZE_BYTES

    def check(self) -> None:
        _check_pushdown(self.query)
        _check_tuples_per_peer(self.tuples_per_peer)
        _check_sampling_method(self.sampling_method)

    def kernel(self, rows: ChunkRows) -> AggregateSample:
        peers, columns, starts, processed, totals = rows
        aggregates = segment_aggregate(
            self.query, columns, starts=starts, counts=processed
        )
        scales = np.zeros(peers.size, dtype=np.float64)
        np.divide(totals, processed, out=scales, where=processed > 0)
        # Count, sum and column sum, scaled up to every peer's total.
        count, total, column_total = aggregates[:3] * scales
        return AggregateSample.from_columns(
            self.sink,
            peers.size,
            source=peers,
            degree=self.simulator.topology.degrees[peers],
            local_tuples=totals,
            processed_tuples=processed,
            aggregate_value=count if self.query.agg is AggregateOp.COUNT else total,
            matching_count=count,
            column_total=column_total,
            contribution_variance=aggregates[3],
        )

    def visit(self, peers: np.ndarray, ledger: CostLedger) -> AggregateSample:
        return self.simulator.visit_aggregate_batch(
            peers, self.query, sink=self.sink, ledger=ledger,
            tuples_per_peer=self.tuples_per_peer,
            sampling_method=self.sampling_method, seed=self.seed,
        )

    def collect(
        self,
        collector: ResilientCollector,
        count: int,
        ledger: CostLedger,
        probe_bytes: int,
    ) -> Tuple[AggregateSample, CollectionStats]:
        return collector.collect_aggregate(
            self.sink, self.query, count, ledger, probe_bytes=probe_bytes,
            tuples_per_peer=self.tuples_per_peer,
            sampling_method=self.sampling_method, seed=self.seed,
        )


@dataclasses.dataclass(eq=False)
class PanelVisits(Visits[PanelSample]):
    """A panel's visits: every query of the sequence ``query`` on one
    shared sub-sample — one visit overhead, one scan, and ``k``
    :class:`AggregateReply` of fixed size, sent before the visit is
    charged.  The kernel is the aggregate kernel once per query."""

    kind = "multi"
    reply_bytes = AggregateReply.SIZE_BYTES

    def __post_init__(self) -> None:
        self.leading_replies = len(self.query)

    def check(self) -> None:
        if not self.query:
            raise ConfigurationError("queries must be non-empty")
        for query in self.query:
            _check_pushdown(query)
        _check_tuples_per_peer(self.tuples_per_peer)
        _check_sampling_method(self.sampling_method)

    def kernel(self, rows: ChunkRows) -> PanelSample:
        return PanelSample(tuple(
            AggregateVisits(self.simulator, query, self.sink).kernel(rows)
            for query in self.query
        ))


@dataclasses.dataclass(eq=False)
class ValueVisits(Visits[ValueSample]):
    """MEDIAN/quantile visits (§5.6): no push-down, so each peer ships
    the local quantile of its matching values (``ship="median"``) or
    the values themselves (``"sample"``) in a ``TupleReply`` sized by
    what it ships.

    A chunk goes through the named entry point
    (``visit_values_batch``), which the serving benchmark times.
    """

    kind = "values"

    ship: str = "median"

    def check(self) -> None:
        if self.ship not in ("median", "sample"):
            raise ConfigurationError(f"unknown ship mode {self.ship!r}")
        _check_tuples_per_peer(self.tuples_per_peer)
        _check_sampling_method(self.sampling_method)

    def sized(self, sample: ValueSample) -> NDArray[np.int64]:
        return tuple_reply_bytes(sample["shipped"])

    def kernel(self, rows: ChunkRows) -> ValueSample:
        query = self.query
        peers, columns, starts, processed, totals = rows
        column = np.asarray(columns[query.column])
        if column.size:
            mask = query.predicate.mask(columns)
            values = column[mask]
            shipped = segment_sums(
                mask.astype(np.float64), starts, processed
            ).astype(np.int64)
        else:
            values = np.empty(0, dtype=column.dtype)
            shipped = np.zeros(peers.size, dtype=np.int64)
        if self.ship == "median" and values.size:
            # quantile_fraction raises for non-quantile aggregates, so
            # it is consulted only when some peer has a value to ship.
            fraction = query.quantile_fraction
            values = np.array([
                float(np.quantile(segment, fraction))
                for segment in np.split(values, np.cumsum(shipped)[:-1])
                if segment.size
            ])
            shipped = np.minimum(shipped, 1)
        return ValueSample.from_columns(
            self.sink,
            peers.size,
            values=values,
            source=peers,
            degree=self.simulator.topology.degrees[peers],
            local_tuples=totals,
            processed_tuples=processed,
            shipped=shipped,
        )

    def visit(self, peers: np.ndarray, ledger: CostLedger) -> ValueSample:
        return self.simulator.visit_values_batch(
            peers, self.query, sink=self.sink, ledger=ledger,
            tuples_per_peer=self.tuples_per_peer, ship=self.ship,
            sampling_method=self.sampling_method, seed=self.seed,
        )


@dataclasses.dataclass(eq=False)
class GroupVisits(Visits[ValueSample]):
    """GROUP BY visits: each peer ships one scaled ``(group, count,
    sum)`` entry per group present in its processed matching rows, in
    a ``GroupReply`` sized by its entries — the values of a
    :class:`ValueSample` whose rows ship ``(k, 3)`` entries."""

    kind = "group"

    def check(self) -> None:
        if self.query.group_by is None:
            raise ConfigurationError("query has no GROUP BY column")
        if not self.query.agg.supports_pushdown:
            raise ConfigurationError(
                f"GROUP BY is not supported for {self.query.agg.value}"
            )
        _check_tuples_per_peer(self.tuples_per_peer)
        _check_sampling_method(self.sampling_method)

    def sized(self, sample: ValueSample) -> NDArray[np.int64]:
        return group_reply_bytes(sample["shipped"])

    def kernel(self, rows: ChunkRows) -> ValueSample:
        # The matching rows keyed by (segment, group) — one np.unique
        # for the groups, one stable sort for the keys — then counted
        # and summed per key, each key's values in row order.
        query = self.query
        peers, columns, _, processed, totals = rows
        mask = query.predicate.mask(columns)
        segments = np.repeat(np.arange(peers.size), processed)[mask]
        groups, group_index = np.unique(
            np.asarray(columns[query.group_by])[mask], return_inverse=True
        )
        keys = segments * groups.size + group_index
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        heads = np.flatnonzero(np.diff(keys, prepend=-1))
        counts = np.diff(heads, append=keys.size)
        values = np.asarray(columns[query.column])[mask][order]
        # A row per key of its values, summed as ``ndarray.sum`` sums
        # one key's (pairwise): one reduction per distinct key size.
        sums = np.zeros(heads.size, dtype=np.float64)
        for size in np.unique(counts).tolist():
            same = counts == size
            sums[same] = values[heads[same, None] + np.arange(size)].sum(axis=1)
        owners = segments[order][heads]
        scales = totals[owners] / processed[owners]
        return ValueSample.from_columns(
            self.sink,
            peers.size,
            values=np.column_stack((
                groups[group_index[order][heads]], counts * scales,
                sums * scales,
            )).reshape(-1, 3),
            source=peers,
            degree=self.simulator.topology.degrees[peers],
            local_tuples=totals,
            processed_tuples=processed,
            shipped=np.bincount(owners, minlength=peers.size),
        )
