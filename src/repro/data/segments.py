"""The paper's ``Visit`` (§4) for a chunk of peers: pick each peer's
rows, and reduce them to its local aggregates.

Both passes are compiled loops (``visit_kernel.c``, built with the
walk's loop by :mod:`repro._native`):

* :func:`select_rows` picks every visited peer's rows of the flat
  store.  A partition of at most ``size`` rows is read whole and draws
  nothing; a larger one draws one random key per row and keeps the
  rows holding the ``size`` smallest — "the ``t`` rows holding the
  smallest of ``n`` random keys", the uniform without-replacement
  sub-sample — equal keys resolved in favour of the lower row, listed
  in ascending order.  Per partition that is
  ``np.sort(np.argsort(keys, kind="stable")[:size])``
  (``tests/segment_oracle.py``), and it defines the sub-sampling RNG
  stream: a shared ``Generator`` hands the sub-sampled peers
  ``sum(n_i)`` doubles in visit order, any other seed seeds one fresh
  stream whose first ``n_i`` doubles every peer reads.  The selection
  is a 64-bucket histogram of the keys, an exact rank inside the
  bucket holding the ``size``-th key, and one output pass without a
  branch on the keys (a quickselect over random keys is bound by
  mispredicted branches; see ``docs/performance.md``).
* :func:`segment_aggregate` reduces each segment's predicate mask,
  masked column and column, and the squared deviations of its
  contribution, in one pass.  The mask stays a numpy call, so any
  predicate works.

The delicate part is *bit-for-bit* equivalence with numpy: a float
sum's rounding depends on the order its additions are grouped in, and
neither ``np.sum`` nor ``np.add.reduceat`` adds strictly left to
right.  The compiled sum reproduces ``np.add.reduceat``'s order — a
segment's first element plus numpy 2.x's pairwise sum of the rest —
so a segment's sums are the bits of the same rows reduced alone,
whatever surrounds them, and the scalar and batched visits agree by
construction.  ``tests/test_data_segments.py`` compares it with
``np.add.reduceat`` over segments of 0–300 rows; if a numpy release
changes its summation order, that test fails.

:func:`segment_sums` is ``np.add.reduceat`` itself, for the reply
kinds whose reduction is not compiled.  One ``reduceat`` wrinkle: a
zero-length segment (``starts[i] == starts[i+1]``) does not yield the
additive identity — numpy returns ``values[starts[i]]`` instead — so
empty segments are filtered out before reducing and scattered as
explicit zeros.

Every buffer the compiled passes read or write is this thread's,
allocated on first use and grown to fit the chunk; its address is read
once per allocation, not per call.
"""

from __future__ import annotations

import ctypes
import threading
from typing import Dict, Optional, Tuple

import numpy as np

from .._native import address, bind
from .._util import SeedLike, ensure_rng
from ..errors import ConfigurationError, QueryError
from ..query.model import AggregateOp, AggregationQuery

__all__ = [
    "ColumnMap",
    "select_rows",
    "segment_sums",
    "segment_aggregate",
]

ColumnMap = Dict[str, np.ndarray]


class _Select(ctypes.Structure):
    """``struct select`` of ``visit_kernel.c``."""

    _fields_ = [
        ("peers", ctypes.c_void_p),
        ("offsets", ctypes.c_void_p),
        ("keys", ctypes.c_void_p),
        ("chosen", ctypes.c_void_p),
        ("starts", ctypes.c_void_p),
        ("processed", ctypes.c_void_p),
        ("totals", ctypes.c_void_p),
        ("num_peers", ctypes.c_int64),
        ("n", ctypes.c_int64),
        ("size", ctypes.c_int64),
        ("shared", ctypes.c_int64),
        ("row_count", ctypes.c_int64),
        ("key_count", ctypes.c_int64),
    ]


class _Reduce(ctypes.Structure):
    """``struct reduce`` of ``visit_kernel.c``."""

    _fields_ = [
        ("mask", ctypes.c_void_p),
        ("column", ctypes.c_void_p),
        ("counts", ctypes.c_void_p),
        ("totals", ctypes.c_void_p),
        ("out", ctypes.c_void_p),
        ("stride", ctypes.c_int64),
        ("n", ctypes.c_int64),
        ("length", ctypes.c_int64),
        ("count_query", ctypes.c_int64),
    ]


_plan = bind("repro_visit_plan", _Select)
_select = bind("repro_visit_select", _Select)
_reduce = bind("repro_reduce", _Reduce)


class _Buffers(threading.local):
    """This thread's buffers for both passes, with the structs that
    point at them.  Sized per segment (peers, counts, sums) or per row
    (keys, rows, mask, column); each grows, to at least twice its size,
    when a chunk does not fit."""

    def __init__(self) -> None:
        self.select = _Select()
        self.reduce = _Reduce()
        self.store: Optional[np.ndarray] = None
        self.offsets = np.empty(0, dtype=np.int64)
        self.segments = 0
        self.keys = self.rows = self.mask = self.column = np.empty(0)
        self.fit_segments(64)
        self.fit_keys(1024)
        self.fit_rows(1024)

    def fit_segments(self, count: int) -> None:
        if count <= self.segments:
            return
        self.segments = count = max(count, 2 * self.segments)
        # peers, starts, processed, totals; counts and totals of the
        # reduction; its four sums.
        self.ints = np.empty((6, count), dtype=np.int64)
        self.sums = np.empty((4, count))
        select, reduce = self.select, self.reduce
        (select.peers, select.starts, select.processed, select.totals,
         reduce.counts, self.totals_at) = map(address, self.ints)
        reduce.out = address(self.sums)
        reduce.stride = count

    def fit_keys(self, count: int) -> None:
        if count > self.keys.size:
            self.keys = np.empty(max(count, 2 * self.keys.size))
            self.select.keys = address(self.keys)

    def fit_rows(self, count: int) -> None:
        # One entry of room past the last row: the selection's output
        # pass writes one ahead.
        if count >= self.rows.size:
            size = max(count + 1, 2 * self.rows.size)
            self.rows = np.empty(size, dtype=np.int64)
            self.mask = np.empty(size, dtype=np.uint8)
            self.column = np.empty(size)
            self.select.chosen = address(self.rows)
            self.reduce.mask = address(self.mask)
            self.reduce.column = address(self.column)


_buffers = _Buffers()

_Selection = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def select_rows(
    offsets: np.ndarray, peers: np.ndarray, size: int, seed: SeedLike
) -> _Selection:
    """Each visited peer's rows of a store: ``(rows, starts, processed,
    totals)``.

    ``offsets`` (``num_peers + 1`` ascending ``int64``) cuts the store
    into partitions and ``peers`` (``int64``) lists the visited ones in
    visit order.  ``rows`` lays every peer's absolute row indices end
    to end, peer ``i``'s ``processed[i]`` of them from ``starts[i]``;
    ``totals[i]`` is its partition size.  A partition of at most
    ``size`` rows (any partition, when ``size`` is 0) is read whole;
    a larger one keeps the ``size`` rows holding its smallest random
    keys, in ascending order.  ``seed`` gives the keys: a ``Generator``
    draws every sub-sampled peer's ``n_i`` keys in visit order, any
    other seed seeds one stream of which every such peer reads the
    first ``n_i``.  Nothing is drawn when no peer is sub-sampled.
    """
    buffers = _buffers
    select = buffers.select
    count = peers.size
    if count > buffers.segments:
        buffers.fit_segments(count)
    ints = buffers.ints
    ints[0, :count] = peers
    if offsets is not buffers.store:
        # A store's offsets, read once per store (a store serves many
        # chunks in a row), and held as long as the pointer is.
        buffers.store = offsets
        buffers.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        select.offsets = address(buffers.offsets)
        select.num_peers = buffers.offsets.size - 1
    shared = isinstance(seed, np.random.Generator)
    select.n = count
    select.size = size
    select.shared = shared
    failed = _plan(select)
    if failed:
        raise ConfigurationError(f"unknown peer {int(peers[-1 - failed])}")
    keys = select.key_count
    if keys:
        if keys > buffers.keys.size:
            buffers.fit_keys(keys)
        (seed if shared else ensure_rng(seed)).random(out=buffers.keys[:keys])
    rows = select.row_count
    if rows >= buffers.rows.size:
        buffers.fit_rows(rows)
    if _select(select):
        raise MemoryError("no memory to rank a partition's keys")
    starts, processed, totals = ints[1:4, :count].copy()
    return buffers.rows[:rows].copy(), starts, processed, totals


def segment_sums(
    values: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Per-segment sums of ``values``; empty segments sum to 0.

    ``starts``/``counts`` describe contiguous segments laid end to end:
    segment ``i`` is ``values[starts[i] : starts[i] + counts[i]]`` and
    ``starts[i] + counts[i] == starts[i + 1]`` (the final segment ends
    exactly at ``values.size``).  Each segment is reduced by
    ``np.add.reduceat`` — not strictly left to right, but to the same
    bits as the segment reduced alone, so the result for a segment is
    independent of the segmentation around it.
    """
    out = np.zeros(counts.shape[0], dtype=np.float64)
    if values.size == 0:
        return out
    nonempty = counts > 0
    if not nonempty.any():
        return out
    out[nonempty] = np.add.reduceat(values, starts[nonempty])
    return out


def segment_aggregate(
    query: AggregationQuery,
    columns: ColumnMap,
    starts: np.ndarray,
    counts: np.ndarray,
    totals: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-segment local aggregates of the paper's ``Visit`` procedure.

    ``columns`` holds the (sub-sampled) rows of every segment laid out
    contiguously: segment ``i`` is ``counts[i]`` rows from
    ``starts[i]``, and the segments tile the columns exactly.  Returns
    one ``(4, segments)`` float64 array — so ``count, total,
    column_sum, variance = segment_aggregate(...)`` unpacks it — whose
    rows are, per segment:

    ``local_count``
        Number of rows matching the query predicate.
    ``local_sum``
        Sum of the aggregated column over matching rows.
    ``column_sum``
        Sum of the aggregated column over *all* rows.
    ``contribution_variance``
        Population variance of the per-tuple contribution ``z_u``
        (the predicate mask for COUNT, the selection-gated value
        otherwise), computed two-pass around each segment's mean.

    Given ``totals`` (each segment's partition size), the first three
    are scaled by ``totals[i] / counts[i]`` — the visit's
    ``#tuples / #processedTuples`` — as a peer replies them.
    """
    if query.column not in columns:
        raise QueryError(
            f"unknown column {query.column!r}; available: {sorted(columns)}"
        )
    count = len(counts)
    if len(starts) != count or (totals is not None and len(totals) != count):
        raise ConfigurationError("starts, counts and totals must be aligned")
    column = columns[query.column]
    rows = len(column)
    buffers = _buffers
    if count > buffers.segments:
        buffers.fit_segments(count)
    if rows >= buffers.rows.size:
        buffers.fit_rows(rows)
    reduce = buffers.reduce
    buffers.mask[:rows] = query.predicate.mask(columns)
    buffers.column[:rows] = column
    buffers.ints[4, :count] = counts
    if totals is None:
        reduce.totals = None
    else:
        buffers.ints[5, :count] = totals
        reduce.totals = buffers.totals_at
    reduce.n = count
    reduce.length = rows
    reduce.count_query = query.agg is AggregateOp.COUNT
    if _reduce(reduce):
        raise ConfigurationError(
            "segments must tile the column buffer exactly"
        )
    return buffers.sums[:, :count].copy()
