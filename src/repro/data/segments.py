"""Segmented (per-peer) aggregation kernels for the visit fast path.

The batch-visit optimisation lays the sampled rows of all visited
peers out in one contiguous buffer and reduces each peer's segment in
a single numpy call.  The delicate part is *bit-for-bit* equivalence
with the per-peer loop: a float sum's rounding depends on the order
its additions are grouped in, and neither ``np.sum`` nor
``np.add.reduceat`` adds strictly left to right.  What
``np.add.reduceat`` does guarantee is that a segment's sum is the same
bits as the same rows reduced alone (``np.add.reduceat(rows, [0])``),
whatever surrounds them — and the same again for every row of a
stacked ``axis=1`` reduction.  Both the scalar ``visit_aggregate`` and
the batched ``visit_aggregate_batch`` therefore funnel through
:func:`segment_aggregate`, which makes their float outputs identical
by construction rather than by accident.

One ``reduceat`` wrinkle: a zero-length segment (``starts[i] ==
starts[i+1]``) does not yield the additive identity — numpy returns
``values[starts[i]]`` instead.  :func:`segment_sums` filters empty
segments out before reducing and scatters explicit zeros for them.

The rows those reductions run over are picked here too:
:func:`segment_sample_indices` is the uniform sub-sample of the paper's
``Visit`` — "the ``t`` rows holding the smallest of ``n`` random keys"
— for any number of segments in one array pass.  The scalar visit
calls it with one segment and the batch with one per visited peer, so
the two select the same rows from the same keys.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..errors import ConfigurationError, QueryError
from ..query.model import AggregateOp, AggregationQuery

__all__ = [
    "ColumnMap",
    "segment_ramps",
    "segment_sample_indices",
    "segment_sums",
    "segment_aggregate",
]

ColumnMap = Dict[str, np.ndarray]


def segment_ramps(counts: np.ndarray) -> np.ndarray:
    """``0 .. counts[i] - 1`` for every segment, laid end to end."""
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    return np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
        starts, counts
    )


def segment_sample_indices(
    keys: np.ndarray, counts: np.ndarray, size: int
) -> np.ndarray:
    """Each segment's ``size`` smallest keys, as ascending local indices.

    ``keys`` holds one random key per row, segment after segment
    (segment ``i`` owns the next ``counts[i]`` keys).  The result lays
    every segment's selection end to end: ``min(size, counts[i])``
    local row indices (``0 .. counts[i] - 1``) per segment, **in
    ascending order** — the rows holding the segment's ``size``
    smallest keys, equal keys resolved in favour of the lower row
    index; a segment of at most ``size`` rows keeps them all.  Per
    segment that is ``np.sort(np.argsort(keys_i, kind="stable")[:size])``.

    With independent uniform keys every ``size``-subset of a segment
    is equally likely (each row is in with probability ``size / n``),
    so this *is* the uniform without-replacement sub-sample — and it
    defines the sub-sampling RNG stream: a sub-sampled partition of
    ``n`` rows consumes exactly ``n`` doubles, a whole-partition read
    none (see :meth:`LocalDatabase.uniform_sample_indices`).  Listing
    the rows in ascending order makes the result a function of the
    keys alone, whatever selection routine found them.

    Cost is O(sum of ``counts``) time and memory (against O(``size``)
    per segment for Floyd's algorithm — the keyed draw wins below
    roughly 800 rows per segment, see ``docs/performance.md``):
    segments are ranked as rows of a padded key matrix, one matrix per
    power-of-two length class, so no segment is ever padded to more
    than twice its own length however long its neighbours are.
    """
    keys = np.asarray(keys, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    if keys.ndim != 1 or counts.ndim != 1:
        raise ConfigurationError("keys and counts must be 1-D")
    shortest, longest = (
        (int(counts.min()), int(counts.max())) if counts.size else (0, 0)
    )
    if size < 0 or shortest < 0:
        raise ConfigurationError("size and counts must be non-negative")
    if int(counts.sum()) != keys.size:
        raise ConfigurationError("segments must tile the key buffer exactly")
    if shortest > size > 0 and longest < 2 * shortest:
        # Every segment selects and one matrix fits them all.
        return _smallest_per_row(keys, counts, size)
    taken = np.minimum(counts, size)
    local = segment_ramps(taken)
    if size == 0 or longest <= size:
        return local
    ranked = counts > size
    # frexp exponent e: 2**(e-1) <= count < 2**e.
    classes = np.frexp(counts)[1]
    for length_class in np.unique(classes[ranked]):
        members = ranked & (classes == length_class)
        local[np.repeat(members, taken)] = _smallest_per_row(
            keys[np.repeat(members, counts)], counts[members], size
        )
    return local


def _smallest_per_row(
    keys: np.ndarray, counts: np.ndarray, size: int
) -> np.ndarray:
    """:func:`segment_sample_indices` for segments that all hold more
    than ``size > 0`` rows, ranked as one ``+inf``-padded matrix."""
    width = int(counts.max())
    if keys.size == counts.size * width:
        matrix = keys.reshape(counts.size, width)
    else:
        matrix = np.full((counts.size, width), np.inf)
        matrix[np.arange(width) < counts[:, None]] = keys
    # The size-th smallest key of every row is a value, hence the same
    # whichever way the partition orders the rest.
    threshold = np.partition(matrix, size - 1, axis=1)[:, size - 1 : size]
    chosen = matrix <= threshold
    if np.count_nonzero(chosen) != counts.size * size:
        # Keys equal to a row's threshold: keep the lowest-indexed.
        below = matrix < threshold
        ties = chosen & ~below
        wanted = size - np.count_nonzero(below, axis=1, keepdims=True)
        chosen = below | (ties & (np.cumsum(ties, axis=1) <= wanted))
    # Row-major order lists each row's columns in ascending order.
    return np.flatnonzero(chosen) % width


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
) -> np.ndarray:
    """Per-segment local aggregates of the paper's ``Visit`` procedure.

    ``columns`` holds the (sub-sampled) rows of every segment laid out
    contiguously.  Returns one ``(4, segments)`` float64 array — so
    ``count, total, column_sum, variance = segment_aggregate(...)``
    unpacks it — whose rows are, per segment:

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
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if starts.shape != counts.shape or starts.ndim != 1:
        raise ConfigurationError("starts and counts must be 1-D and aligned")
    num_segments = starts.shape[0]
    if query.column not in columns:
        raise QueryError(
            f"unknown column {query.column!r}; available: {sorted(columns)}"
        )
    column = np.asarray(columns[query.column])
    if counts.size and int(starts[-1] + counts[-1]) != column.size:
        raise ConfigurationError(
            "segments must tile the column buffer exactly"
        )

    out = np.zeros((4, num_segments), dtype=np.float64)
    if column.size == 0 or num_segments == 0:
        return out

    # The mask, the masked values and the column, one row each, summed
    # per segment by one reduction (each row to the bits of its own).
    terms = np.empty((3, column.size), dtype=np.float64)
    terms[0] = query.predicate.mask(columns)
    terms[2] = column
    np.multiply(terms[2], terms[0], out=terms[1])
    nonempty = counts > 0
    heads = starts[nonempty]
    out[:3, nonempty] = np.add.reduceat(terms, heads, axis=1)

    # z_u is the mask for COUNT and the masked value otherwise.
    z = 0 if query.agg is AggregateOp.COUNT else 1
    means = np.zeros(num_segments, dtype=np.float64)
    np.divide(out[z], counts, out=means, where=nonempty)
    deviations = terms[z] - np.repeat(means, counts)
    np.multiply(deviations, deviations, out=deviations)
    out[3, nonempty] = np.add.reduceat(deviations, heads)
    np.divide(out[3], counts, out=out[3], where=nonempty)
    return out
