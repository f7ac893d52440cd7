"""The segment kernels' reduction contract, the compiled visit
aggregate against its three-reduction form (``tests/visit_oracle.py``),
and the compiled row selection against its definition.

What scalar == batch visits rest on is *not* that ``np.add.reduceat``
adds left to right — it does not — but that a segment's sum is the
same bits as the same rows reduced alone, whatever surrounds them,
and the same again for every row of a stacked ``axis=1`` reduction.
The compiled reduction reproduces that order, so every comparison here
is by bytes.  ``-k CompiledVisit`` selects the compiled passes' own
tests: selection, reduction boundaries and buffer growth.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.segments import segment_aggregate, segment_sums, select_rows
from repro.errors import ConfigurationError, QueryError
from repro.query.model import (
    AggregateOp,
    AggregationQuery,
    Between,
    Comparison,
    TruePredicate,
)
from .conftest import assert_uniforms_consumed
from .segment_oracle import compiled_sample_indices
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


# ---------------------------------------------------------------------------
# The compiled visit: row selection, reduction, buffers
# ---------------------------------------------------------------------------


def _smallest_ascending(keys, size):
    """The definition of a partition's sub-sample."""
    return np.sort(np.argsort(keys, kind="stable")[:size])


@st.composite
def keyed_partitions(draw):
    """``(keys, counts, size, shared)``: 0–8 partitions of 0–300 rows,
    a ``size`` from 0 to 300, keys from a handful of values so equal
    keys straddle the cut.  ``shared``: one key per row, laid end to
    end; otherwise one draw as long as the longest partition."""
    counts = np.asarray(
        draw(st.lists(st.integers(0, 300), max_size=8)), dtype=np.int64
    )
    size = draw(st.integers(0, 300))
    levels = draw(st.sampled_from([1, 2, 3, 5, 2**40]))
    shared = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    length = int(counts.sum()) if shared else int(counts.max(initial=0))
    return rng.integers(levels, size=length) / levels, counts, size, shared


def _in_a_fresh_thread(function):
    """``function()`` on a thread of its own, whose buffers start at
    their initial sizes."""
    outcome = {}

    def run():
        try:
            outcome["value"] = function()
        except BaseException as error:  # re-raised on the caller's thread
            outcome["error"] = error

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class TestCompiledVisitSelection:
    """``select_rows`` against the ``argsort`` definition, ties, zero-row
    partitions and both seed modes included."""

    @settings(max_examples=300, deadline=None)
    @given(keyed_partitions())
    def test_the_rows_are_the_argsort_oracles(self, case):
        keys, counts, size, shared = case
        sampled = (counts > size) & (size > 0)
        expected, at = [np.empty(0, dtype=np.int64)], 0
        for count, sub in zip(counts.tolist(), sampled.tolist()):
            own = keys[at : at + count] if shared else keys[:count]
            at += count
            expected.append(
                _smallest_ascending(own, size) if sub else np.arange(count)
            )
        compiled, drawn = compiled_sample_indices(keys, counts, size, shared)
        assert compiled.dtype == np.int64
        np.testing.assert_array_equal(compiled, np.concatenate(expected))
        longest = int(counts[sampled].max(initial=0))
        assert drawn == (int(counts[sampled].sum()) if shared else longest)

    @pytest.mark.parametrize("shared", [True, False])
    def test_rng_keys_in_visit_order(self, shared):
        """A shared generator hands the sub-sampled peers their keys
        back to back in visit order; an integer seed gives every one
        the first ``n_i`` doubles of its stream.  Whole partitions
        (and the empty one) draw nothing."""
        counts = np.asarray([40, 10, 0, 75, 26, 25], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        peers = np.asarray([3, 0, 1, 2, 4, 5, 3], dtype=np.int64)
        seed = np.random.default_rng(7) if shared else 7
        rows, starts, processed, totals = select_rows(offsets, peers, 25, seed)
        stream = np.random.default_rng(7)
        expected = []
        for peer in peers.tolist():
            count = int(counts[peer])
            if count > 25:
                keys = stream.random(count)
                if not shared:
                    stream = np.random.default_rng(7)
                local = _smallest_ascending(keys, 25)
            else:
                local = np.arange(count)
            expected.extend((offsets[peer] + local).tolist())
        assert rows.tolist() == expected
        assert totals.tolist() == counts[peers].tolist()
        assert processed.tolist() == np.minimum(counts[peers], 25).tolist()
        assert starts.tolist() == (np.cumsum(processed) - processed).tolist()
        if shared:
            assert_uniforms_consumed(seed, 7, 75 + 40 + 26 + 75)

    def test_an_unknown_peer_is_refused_before_a_key_is_drawn(self):
        rng = np.random.default_rng(1)
        for peer in (-1, 3):
            with pytest.raises(ConfigurationError, match=f"peer {peer}"):
                select_rows(
                    np.asarray([0, 40, 80, 120]), np.asarray([0, peer]), 5, rng
                )
        assert_uniforms_consumed(rng, 1, 0)


class TestCompiledVisitReduction:
    """The compiled reduction where numpy's summation order shows: the
    block boundaries of the pairwise sum, the sign of a zero sum and
    the scale."""

    LENGTHS = (1, 2, 7, 8, 9, 15, 16, 17, 128, 129, 130, 136, 137, 255,
               256, 257, 258, 300)

    @pytest.mark.parametrize("agg", [AggregateOp.COUNT, AggregateOp.SUM])
    def test_every_pairwise_boundary(self, agg):
        rng = np.random.default_rng(5)
        counts = np.asarray(self.LENGTHS, dtype=np.int64)
        columns = {
            "A": rng.normal(0.0, 1e8, size=int(counts.sum())),
            "B": rng.random(int(counts.sum())),
        }
        query = AggregationQuery(
            agg=agg, column="A",
            predicate=Comparison(column="B", op="<", value=0.5),
        )
        starts = np.cumsum(counts) - counts
        stacked = segment_aggregate(query, columns, starts, counts)
        expected = oracle_segment_aggregate(query, columns, starts, counts)
        for row, oracle_row in zip(stacked, expected):
            assert row.tobytes() == oracle_row.tobytes()

    def test_a_sum_of_negative_zeros_keeps_its_sign(self):
        """Rows that do not match contribute ``-0.0`` when negative; numpy
        sums them from ``-0.0``, so the sum stays ``-0.0``."""
        counts = np.asarray([1, 2, 3, 9], dtype=np.int64)
        columns = {"A": -np.arange(1.0, 16.0), "B": np.ones(15)}
        query = AggregationQuery(
            agg=AggregateOp.SUM, column="A",
            predicate=Comparison(column="B", op=">", value=2.0),
        )
        starts = np.cumsum(counts) - counts
        _, total, _, _ = segment_aggregate(query, columns, starts, counts)
        _, expected, _, _ = oracle_segment_aggregate(
            query, columns, starts, counts
        )
        assert np.signbit(total).all()
        assert total.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(visits(), st.integers(0, 2**32 - 1))
    def test_scaled_sums_are_the_sums_times_the_scale(self, case, seed):
        query, columns, starts, counts = case
        totals = counts + np.random.default_rng(seed).integers(
            0, 1000, counts.size
        )
        scaled = segment_aggregate(query, columns, starts, counts, totals)
        plain = oracle_segment_aggregate(query, columns, starts, counts)
        scales = np.zeros(counts.size)
        np.divide(totals, counts, out=scales, where=counts > 0)
        for row in range(3):
            assert scaled[row].tobytes() == (plain[row] * scales).tobytes()
        assert scaled[3].tobytes() == plain[3].tobytes()

    def test_segments_that_do_not_tile_the_rows_are_refused(self):
        query = AggregationQuery(agg=AggregateOp.SUM, column="A")
        columns = {"A": np.arange(5.0)}
        for counts in ([2, 2], [3, 3], [-1, 6]):
            counts = np.asarray(counts)
            with pytest.raises(ConfigurationError, match="tile"):
                segment_aggregate(
                    query, columns, np.cumsum(counts) - counts, counts
                )

    def test_an_unknown_column_is_refused_before_a_row_is_read(self):
        class Unread(dict):
            def __getitem__(self, name):
                raise AssertionError(f"column {name!r} was read")

        query = AggregationQuery(agg=AggregateOp.SUM, column="Z")
        with pytest.raises(QueryError, match="unknown column 'Z'"):
            segment_aggregate(
                query, Unread(A=np.arange(3.0)), np.zeros(1), np.asarray([3])
            )


class TestCompiledVisitBuffers:
    """Every buffer grows to fit its chunk: on a thread whose buffers are
    new, chunks with more peers, keys and rows than any buffer starts
    with come out right and raise nothing."""

    def test_a_chunk_larger_than_every_initial_buffer(self):
        rng = np.random.default_rng(11)
        counts = rng.integers(0, 300, 2000)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        peers = np.arange(2000, dtype=np.int64)
        column = rng.normal(50.0, 30.0, int(offsets[-1]))
        query = AggregationQuery(
            agg=AggregateOp.AVG, column="A",
            predicate=Between(column="A", low=20, high=60),
        )

        def visit():
            whole = select_rows(offsets, peers, 0, 1)
            _, starts, processed, totals = whole
            reduced = segment_aggregate(
                query, {"A": column}, starts, processed, totals
            )
            # A phase II of 400 peers at t = 100: 400 x 150-300 keys.
            sub = select_rows(
                offsets, peers[counts > 150][:400], 100,
                np.random.default_rng(12),
            )
            return whole, reduced, sub

        whole, reduced, sub = _in_a_fresh_thread(visit)
        rows, starts, processed, totals = whole
        assert rows.tolist() == list(range(int(offsets[-1])))
        assert processed.tolist() == totals.tolist() == counts.tolist()
        expected = oracle_segment_aggregate(
            query, {"A": column}, starts, processed
        )
        for row, oracle_row in zip(reduced[:3], expected[:3]):
            scaled = oracle_row * np.where(processed > 0, 1.0, 0.0)
            assert row.tobytes() == scaled.tobytes()
        assert reduced[3].tobytes() == expected[3].tobytes()

        rows, _, processed, totals = sub
        chosen = peers[counts > 150][:400]
        stream = np.random.default_rng(12)
        assert rows.tolist() == [
            row
            for peer in chosen.tolist()
            for row in (
                offsets[peer]
                + _smallest_ascending(stream.random(counts[peer]), 100)
            ).tolist()
        ]
        assert processed.tolist() == [100] * 400
        assert totals.tolist() == counts[chosen].tolist()
