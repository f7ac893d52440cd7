"""Query AST: selection predicates and aggregate operators.

Predicates evaluate to boolean masks over column arrays, so local
query execution at a peer is a vectorized operation over its (possibly
sub-sampled) partition.  The model intentionally covers the paper's
query class — single-table aggregation with a selection condition —
plus the natural connectives needed to express realistic conditions.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from typing import FrozenSet, Mapping, Optional, Tuple

import numpy as np

from ..errors import QueryError

__all__ = [
    "ColumnMap",
    "Predicate",
    "TruePredicate",
    "Between",
    "Comparison",
    "InSet",
    "And",
    "Or",
    "Not",
    "AggregateOp",
    "AggregationQuery",
]

ColumnMap = Mapping[str, np.ndarray]


def _column(columns: ColumnMap, name: str) -> np.ndarray:
    try:
        return np.asarray(columns[name])
    except KeyError:
        raise QueryError(
            f"unknown column {name!r}; available: {sorted(columns)}"
        ) from None


class Predicate:
    """Base class for selection conditions."""

    def mask(self, columns: ColumnMap) -> np.ndarray:
        """Boolean mask of rows satisfying the predicate."""
        raise NotImplementedError

    def columns_referenced(self) -> FrozenSet[str]:
        """All column names this predicate reads."""
        raise NotImplementedError

    def to_sql(self) -> str:
        """Render the predicate as SQL text."""
        raise NotImplementedError

    # Connective sugar -------------------------------------------------

    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, other)

    def __invert__(self) -> "Predicate":
        return Not(self)


@dataclasses.dataclass(frozen=True)
class TruePredicate(Predicate):
    """Matches every row (a query with no WHERE clause)."""

    def mask(self, columns: ColumnMap) -> np.ndarray:
        if not columns:
            raise QueryError("cannot evaluate against an empty column map")
        any_column = next(iter(columns.values()))
        return np.ones(np.asarray(any_column).shape[0], dtype=bool)

    def columns_referenced(self) -> FrozenSet[str]:
        return frozenset()

    def to_sql(self) -> str:
        return "TRUE"


@dataclasses.dataclass(frozen=True)
class Between(Predicate):
    """``column BETWEEN low AND high`` (inclusive both ends, as in SQL)."""

    column: str
    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise QueryError(
                f"BETWEEN range is empty: [{self.low}, {self.high}]"
            )

    def mask(self, columns: ColumnMap) -> np.ndarray:
        data = _column(columns, self.column)
        return (data >= self.low) & (data <= self.high)

    def columns_referenced(self) -> FrozenSet[str]:
        return frozenset({self.column})

    def to_sql(self) -> str:
        return f"{self.column} BETWEEN {self.low:g} AND {self.high:g}"


_COMPARATORS = {
    "=": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


@dataclasses.dataclass(frozen=True)
class Comparison(Predicate):
    """``column <op> value`` for ``op`` in =, !=, <, <=, >, >=."""

    column: str
    op: str
    value: float

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise QueryError(
                f"unknown comparison operator {self.op!r}; "
                f"expected one of {sorted(_COMPARATORS)}"
            )

    def mask(self, columns: ColumnMap) -> np.ndarray:
        data = _column(columns, self.column)
        return _COMPARATORS[self.op](data, self.value)

    def columns_referenced(self) -> FrozenSet[str]:
        return frozenset({self.column})

    def to_sql(self) -> str:
        return f"{self.column} {self.op} {self.value:g}"


@dataclasses.dataclass(frozen=True)
class InSet(Predicate):
    """``column IN (v1, v2, ...)``."""

    column: str
    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise QueryError("IN set must not be empty")

    def mask(self, columns: ColumnMap) -> np.ndarray:
        data = _column(columns, self.column)
        return np.isin(data, np.asarray(self.values))

    def columns_referenced(self) -> FrozenSet[str]:
        return frozenset({self.column})

    def to_sql(self) -> str:
        inner = ", ".join(f"{v:g}" for v in self.values)
        return f"{self.column} IN ({inner})"


@dataclasses.dataclass(frozen=True)
class And(Predicate):
    """Conjunction of two predicates."""

    left: Predicate
    right: Predicate

    def mask(self, columns: ColumnMap) -> np.ndarray:
        return self.left.mask(columns) & self.right.mask(columns)

    def columns_referenced(self) -> FrozenSet[str]:
        return self.left.columns_referenced() | self.right.columns_referenced()

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} AND {self.right.to_sql()})"


@dataclasses.dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of two predicates."""

    left: Predicate
    right: Predicate

    def mask(self, columns: ColumnMap) -> np.ndarray:
        return self.left.mask(columns) | self.right.mask(columns)

    def columns_referenced(self) -> FrozenSet[str]:
        return self.left.columns_referenced() | self.right.columns_referenced()

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} OR {self.right.to_sql()})"


@dataclasses.dataclass(frozen=True)
class Not(Predicate):
    """Negation of a predicate."""

    inner: Predicate

    def mask(self, columns: ColumnMap) -> np.ndarray:
        return ~self.inner.mask(columns)

    def columns_referenced(self) -> FrozenSet[str]:
        return self.inner.columns_referenced()

    def to_sql(self) -> str:
        return f"(NOT {self.inner.to_sql()})"


class AggregateOp(enum.Enum):
    """Supported aggregation operators.

    COUNT/SUM/AVG support aggregation push-down to peers (§3.2);
    MEDIAN and QUANTILE require shipping per-peer statistics back to
    the sink (§5.6).
    """

    COUNT = "COUNT"
    SUM = "SUM"
    AVG = "AVG"
    MEDIAN = "MEDIAN"
    QUANTILE = "QUANTILE"

    @property
    def supports_pushdown(self) -> bool:
        """Whether peers can return a single scaled scalar."""
        return self in (AggregateOp.COUNT, AggregateOp.SUM, AggregateOp.AVG)


@dataclasses.dataclass(frozen=True)
class AggregationQuery:
    """``SELECT agg(column) FROM T WHERE predicate``.

    Attributes
    ----------
    agg:
        The aggregation operator.
    column:
        Aggregated column (for COUNT, any column the table has).
    predicate:
        Selection condition; defaults to all rows.
    quantile:
        For ``AggregateOp.QUANTILE``: the target fraction in (0, 1).
        MEDIAN is equivalent to QUANTILE with ``quantile=0.5``.
    group_by:
        Optional grouping column: ``SELECT agg(col) ... GROUP BY g``.
        Only distributive aggregates (COUNT/SUM/AVG) support grouping.
    """

    agg: AggregateOp
    column: str
    predicate: Predicate = dataclasses.field(default_factory=TruePredicate)
    quantile: Optional[float] = None
    group_by: Optional[str] = None

    def __post_init__(self) -> None:
        if self.agg is AggregateOp.QUANTILE:
            if self.quantile is None or not 0.0 < self.quantile < 1.0:
                raise QueryError(
                    "QUANTILE queries need quantile in (0, 1); "
                    f"got {self.quantile!r}"
                )
        elif self.quantile is not None:
            raise QueryError("quantile only applies to QUANTILE queries")
        if not self.column:
            raise QueryError("column must be non-empty")
        if self.group_by is not None:
            if not self.group_by:
                raise QueryError("group_by column must be non-empty")
            if not self.agg.supports_pushdown:
                raise QueryError(
                    f"GROUP BY is not supported for {self.agg.value}"
                )

    @property
    def quantile_fraction(self) -> float:
        """Target quantile: 0.5 for MEDIAN, ``quantile`` for QUANTILE."""
        if self.agg is AggregateOp.MEDIAN:
            return 0.5
        if self.agg is AggregateOp.QUANTILE:
            assert self.quantile is not None
            return self.quantile
        raise QueryError(f"{self.agg.value} has no quantile fraction")

    def columns_referenced(self) -> FrozenSet[str]:
        """All columns the query touches (aggregate + predicate +
        grouping)."""
        referenced = frozenset({self.column}) | (
            self.predicate.columns_referenced()
        )
        if self.group_by is not None:
            referenced |= frozenset({self.group_by})
        return referenced

    def to_sql(self) -> str:
        """Render the query as SQL text (round-trips via the parser),
        once per query object: a served query's signature, plan-cache
        key and probe text are one string."""
        return self._sql

    @functools.cached_property
    def _sql(self) -> str:
        if self.agg is AggregateOp.QUANTILE:
            head = f"SELECT QUANTILE({self.column}, {self.quantile:g})"
        else:
            head = f"SELECT {self.agg.value}({self.column})"
        where = ""
        if not isinstance(self.predicate, TruePredicate):
            where = f" WHERE {self.predicate.to_sql()}"
        group = ""
        if self.group_by is not None:
            group = f" GROUP BY {self.group_by}"
        return f"{head} FROM T{where}{group}"

    def __str__(self) -> str:
        return self.to_sql()
