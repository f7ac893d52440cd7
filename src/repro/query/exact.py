"""Exact (ground-truth) query evaluation.

The exact evaluator is what an exhaustive crawl of the P2P repository
would compute — the paper's "prohibitively slow" alternative.  The
experiment harness uses it to score every approximate answer, and the
cost model can price it for comparison.
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

from .._util import widened
from ..data.flat import DatabaseTable, FlatDataset
from ..errors import QueryError
from .model import AggregateOp, AggregationQuery, ColumnMap


__all__ = [
    "evaluate_on_columns",
    "evaluate_exact",
    "measured_selectivity",
    "rank_of_value",
    "evaluate_exact_groups",
]


def _stored(databases: Iterable) -> Iterable:
    """A :class:`~repro.data.flat.DatabaseTable`'s store (its databases
    are slices of it, so it holds the same rows, and reading it builds
    no database), anything else as it is."""
    if isinstance(databases, DatabaseTable):
        return databases.store
    return databases


def _scans(databases: Iterable) -> Iterable[ColumnMap]:
    """The column maps an exact answer reads: a
    :class:`~repro.data.flat.FlatDataset`'s (or a table's store's) one
    concatenated map, or every database's ``scan()``."""
    databases = _stored(databases)
    if isinstance(databases, FlatDataset):
        return (databases.scan(),)
    return (database.scan() for database in databases)


def _aggregated(query: AggregationQuery, columns: ColumnMap) -> np.ndarray:
    """The query's aggregated column; unknown names raise for every
    aggregate, COUNT included, as every engine does."""
    if query.column not in columns:
        raise QueryError(
            f"unknown column {query.column!r}; available: {sorted(columns)}"
        )
    return np.asarray(columns[query.column])


def _evaluate(query: AggregationQuery, scans: Iterable[ColumnMap]) -> float:
    """Exact answer over the rows of every column map in ``scans``.

    COUNT/SUM/AVG read only the predicate mask: the column is summed
    ``where`` it holds, never copied (a narrow integer column sums in
    an ``int64`` accumulator, numpy's rule for integers narrower than
    the platform's).  MEDIAN/QUANTILE gather the selected values,
    because they need them, and interpolate between them widened.
    """
    if query.agg in (AggregateOp.MEDIAN, AggregateOp.QUANTILE):
        gathered = []
        for columns in scans:
            mask = query.predicate.mask(columns)
            gathered.append(_aggregated(query, columns)[mask])
        if not any(part.size for part in gathered):
            raise QueryError(
                f"{query.agg.value} over an empty selection is undefined"
            )
        selected = (
            gathered[0] if len(gathered) == 1 else np.concatenate(gathered)
        )
        return float(
            np.quantile(widened(selected), query.quantile_fraction)
        )
    count = 0
    total = 0
    for columns in scans:
        mask = query.predicate.mask(columns)
        column = _aggregated(query, columns)
        count += int(np.count_nonzero(mask))
        if query.agg is not AggregateOp.COUNT:
            total += column.sum(where=mask)
    if query.agg is AggregateOp.COUNT:
        return float(count)
    if query.agg is AggregateOp.SUM:
        return float(total)
    if count == 0:
        raise QueryError(
            f"{query.agg.value} over an empty selection is undefined"
        )
    return float(total) / count


def evaluate_on_columns(query: AggregationQuery, columns: ColumnMap) -> float:
    """Evaluate ``query`` exactly over in-memory column arrays.

    Raises :class:`QueryError` for AVG/MEDIAN/QUANTILE over an empty
    selection, mirroring SQL's NULL in a numeric API.
    """
    return _evaluate(query, (columns,))


def evaluate_exact(
    query: AggregationQuery,
    databases: Iterable,
) -> float:
    """Evaluate ``query`` exactly over every peer's local database.

    ``databases`` is an iterable of :class:`repro.data.localdb.LocalDatabase`
    (or anything exposing ``scan()``), or a
    :class:`~repro.data.flat.FlatDataset` or
    :class:`~repro.data.flat.DatabaseTable`, whose concatenated columns
    make the whole evaluation one numpy pass.  COUNT/SUM/AVG add up
    per-peer counts and sums; MEDIAN/QUANTILE gather the selected
    values.
    """
    return _evaluate(query, _scans(databases))


def measured_selectivity(query: AggregationQuery, databases: Iterable) -> float:
    """Fraction of all tuples satisfying the query's predicate."""
    matching = 0
    total = 0
    for columns in _scans(databases):
        mask = query.predicate.mask(columns)
        matching += int(np.count_nonzero(mask))
        total += int(mask.size)
    if total == 0:
        raise QueryError("selectivity over an empty network is undefined")
    return matching / total


def rank_of_value(value: float, databases: Iterable, column: str) -> int:
    """Global rank of ``value`` in ``column``: #values strictly below.

    Used to score median estimates the way the paper does — "the
    difference between the true rank of the median that the algorithm
    returns, and N/2".
    """
    databases = _stored(databases)
    if isinstance(databases, FlatDataset):
        return int(np.count_nonzero(databases.column(column) < value))
    below = 0
    for database in databases:
        data = np.asarray(database.column(column))
        below += int(np.count_nonzero(data < value))
    return below


def evaluate_exact_groups(
    query: AggregationQuery, databases: Iterable
) -> Dict[float, float]:
    """Exact per-group answers for a GROUP BY aggregation query.

    Returns ``{group value: aggregate}`` over groups with at least one
    matching tuple.  Only distributive aggregates support grouping.
    ``databases`` is read like :func:`evaluate_exact`'s: a
    :class:`~repro.data.flat.FlatDataset` is one pass over its columns.
    """
    if query.group_by is None:
        raise QueryError("query has no GROUP BY column")
    if not query.agg.supports_pushdown:
        raise QueryError(
            f"GROUP BY is not supported for {query.agg.value}"
        )
    counts: Dict[float, float] = {}
    sums: Dict[float, float] = {}
    for columns in _scans(databases):
        if query.group_by not in columns:
            raise QueryError(
                f"unknown group column {query.group_by!r} at some peer"
            )
        mask = query.predicate.mask(columns)
        groups = np.asarray(columns[query.group_by])[mask]
        values = _aggregated(query, columns)[mask]
        for group in np.unique(groups):
            in_group = groups == group
            key = float(group)
            counts[key] = counts.get(key, 0.0) + float(
                np.count_nonzero(in_group)
            )
            sums[key] = sums.get(key, 0.0) + float(values[in_group].sum())
    if query.agg is AggregateOp.COUNT:
        return counts
    if query.agg is AggregateOp.SUM:
        return sums
    return {
        group: sums[group] / counts[group]
        for group in counts
        if counts[group] > 0
    }
