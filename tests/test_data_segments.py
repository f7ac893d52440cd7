"""The segment kernels' reduction contract and the stacked visit
aggregate against its three-reduction form (``tests/visit_oracle.py``).

What scalar == batch visits rest on is *not* that ``np.add.reduceat``
adds left to right — it does not — but that a segment's sum is the
same bits as the same rows reduced alone, whatever surrounds them,
and the same again for every row of a stacked ``axis=1`` reduction.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.segments import segment_aggregate, segment_sums
from repro.query.model import (
    AggregateOp,
    AggregationQuery,
    Between,
    Comparison,
    TruePredicate,
)
from .visit_oracle import oracle_segment_aggregate


@st.composite
def segmented(draw, rows=1):
    """``(values, starts, counts)``: ``rows`` stacked float rows cut
    into 1–6 segments of 0–300 entries, magnitudes spread wide."""
    counts = np.asarray(
        draw(st.lists(st.integers(0, 300), min_size=1, max_size=6)),
        dtype=np.int64,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 8))
    values = rng.normal(size=(rows, int(counts.sum()))) * scale
    return values, np.cumsum(counts) - counts, counts


def _alone(rows):
    """``rows`` reduced on their own, as a one-segment reduceat."""
    return np.add.reduceat(rows.copy(), [0], axis=-1)[..., 0]


class TestReduceatContract:
    @settings(max_examples=200, deadline=None)
    @given(segmented())
    def test_a_segment_sums_to_its_rows_reduced_alone(self, case):
        values, starts, counts = case
        sums = segment_sums(values[0], starts, counts)
        for start, count, total in zip(starts, counts, sums):
            expected = (
                _alone(values[0, start : start + count]) if count else 0.0
            )
            assert total.tobytes() == np.float64(expected).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(segmented(rows=3))
    def test_a_stacked_row_sums_to_its_one_row_reduction(self, case):
        values, starts, counts = case
        nonempty = counts > 0
        if not nonempty.any():
            return
        stacked = np.add.reduceat(values, starts[nonempty], axis=1)
        for row in range(3):
            alone = [
                _alone(values[row, start : start + count])
                for start, count in zip(starts[nonempty], counts[nonempty])
            ]
            assert stacked[row].tobytes() == np.asarray(alone).tobytes()


_PREDICATES = [
    TruePredicate(),  # matches everything
    Comparison(column="B", op=">", value=1e12),  # matches nothing
    Between(column="A", low=20, high=60),
    Comparison(column="B", op="<", value=0.5),
]


@st.composite
def visits(draw):
    """A sub-sampled visit's rows: int or float columns, segments of
    0–300 rows, any aggregate and predicate."""
    counts = np.asarray(
        draw(st.lists(st.integers(0, 300), min_size=0, max_size=6)),
        dtype=np.int64,
    )
    rows = int(counts.sum())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        column = rng.integers(-5, 100, size=rows)
    else:
        column = rng.normal(40.0, 10.0 ** draw(st.integers(-2, 6)), size=rows)
    columns = {"A": column, "B": rng.random(rows)}
    query = AggregationQuery(
        agg=draw(st.sampled_from(
            [AggregateOp.COUNT, AggregateOp.SUM, AggregateOp.AVG]
        )),
        column="A",
        predicate=draw(st.sampled_from(_PREDICATES)),
    )
    return query, columns, np.cumsum(counts) - counts, counts


class TestSegmentAggregateOracle:
    @settings(max_examples=300, deadline=None)
    @given(visits())
    def test_stacked_equals_three_reductions_bit_for_bit(self, case):
        query, columns, starts, counts = case
        stacked = segment_aggregate(query, columns, starts, counts=counts)
        expected = oracle_segment_aggregate(query, columns, starts, counts)
        assert stacked.shape == (4, counts.size)
        assert stacked.dtype == np.float64
        for row, oracle_row in zip(stacked, expected):
            assert row.tobytes() == oracle_row.tobytes()

    def test_four_way_unpack(self):
        query = AggregationQuery(agg=AggregateOp.SUM, column="A")
        count, total, column_sum, variance = segment_aggregate(
            query,
            {"A": np.array([1, 2, 3, 4])},
            starts=np.array([0, 1, 1]),
            counts=np.array([1, 0, 3]),
        )
        assert count.tolist() == [1.0, 0.0, 3.0]
        assert total.tolist() == column_sum.tolist() == [1.0, 0.0, 9.0]
        assert variance.tolist() == [0.0, 0.0, pytest.approx(2 / 3)]
