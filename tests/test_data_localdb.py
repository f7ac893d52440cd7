"""Unit tests for repro.data.localdb."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.localdb import Block, LocalDatabase
from repro.data.segments import select_rows
from repro.errors import ConfigurationError, SamplingError

from .conftest import assert_uniforms_consumed
from .segment_oracle import compiled_sample_indices, segment_sample_indices


@pytest.fixture()
def database():
    return LocalDatabase(
        {"A": np.arange(100), "B": np.arange(100) * 2}, block_size=10
    )


class TestConstruction:
    def test_basic(self, database):
        assert database.num_tuples == 100
        assert database.block_size == 10
        assert database.num_blocks == 10
        assert sorted(database.column_names) == ["A", "B"]

    def test_len(self, database):
        assert len(database) == 100

    def test_repr(self, database):
        assert "tuples=100" in repr(database)

    def test_empty_columns_rejected(self):
        with pytest.raises(ConfigurationError):
            LocalDatabase({})

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            LocalDatabase({"A": np.arange(5), "B": np.arange(6)})

    def test_2d_column_rejected(self):
        with pytest.raises(ConfigurationError):
            LocalDatabase({"A": np.zeros((3, 3))})

    def test_zero_block_size_rejected(self):
        with pytest.raises(ConfigurationError):
            LocalDatabase({"A": np.arange(5)}, block_size=0)

    def test_empty_database(self):
        database = LocalDatabase({"A": np.array([])})
        assert database.num_tuples == 0
        assert database.num_blocks == 0


class TestBlocks:
    def test_block_layout(self, database):
        blocks = list(database.blocks())
        assert len(blocks) == 10
        assert blocks[0] == Block(index=0, start=0, stop=10)
        assert all(b.num_tuples == 10 for b in blocks)

    def test_short_last_block(self):
        database = LocalDatabase({"A": np.arange(25)}, block_size=10)
        blocks = list(database.blocks())
        assert len(blocks) == 3
        assert blocks[-1].num_tuples == 5


class TestAccess:
    def test_column_readonly(self, database):
        with pytest.raises(ValueError):
            database.column("A")[0] = 99

    @pytest.mark.parametrize(
        "door",
        [
            lambda database: database.store["A"],
            lambda database: database.column("A"),
            lambda database: database.scan()["A"],
        ],
        ids=["store", "column", "scan"],
    )
    def test_no_door_hands_out_a_writable_array(self, door):
        """A published snapshot cannot be edited through a database:
        a write that landed after the flat view was concatenated would
        make the batch path and the scalar path disagree about a row."""
        values = np.arange(10)
        database = LocalDatabase({"A": values})
        handed_out = door(database)
        assert handed_out.flags.writeable is False
        with pytest.raises(ValueError):
            handed_out[0] = 9
        assert database.column("A")[0] == 0
        # A view, not a copy: the caller's own array is untouched.
        assert values.flags.writeable is True
        assert np.shares_memory(handed_out, values)

    def test_unknown_column(self, database):
        with pytest.raises(ConfigurationError):
            database.column("Z")

    def test_scan_returns_all(self, database):
        columns = database.scan()
        assert set(columns) == {"A", "B"}
        assert columns["A"].shape == (100,)

    def test_rows(self, database):
        rows = database.rows(np.array([0, 50, 99]))
        np.testing.assert_array_equal(rows["A"], [0, 50, 99])
        np.testing.assert_array_equal(rows["B"], [0, 100, 198])

    def test_rows_out_of_range(self, database):
        with pytest.raises(ConfigurationError):
            database.rows(np.array([100]))


class TestUniformSampling:
    def test_sample_size(self, database):
        indices = database.uniform_sample_indices(20, seed=1)
        assert indices.shape == (20,)

    def test_without_replacement(self, database):
        indices = database.uniform_sample_indices(50, seed=1)
        assert len(set(indices.tolist())) == 50

    def test_oversized_request_returns_all(self, database):
        indices = database.uniform_sample_indices(500, seed=1)
        np.testing.assert_array_equal(indices, np.arange(100))

    def test_deterministic(self, database):
        a = database.uniform_sample_indices(10, seed=3)
        b = database.uniform_sample_indices(10, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_negative_rejected(self, database):
        with pytest.raises(SamplingError):
            database.uniform_sample_indices(-1)

    def test_coverage_over_trials(self, database):
        """Uniform sampling must reach all regions of the partition."""
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(50):
            seen.update(
                database.uniform_sample_indices(10, seed=rng).tolist()
            )
        assert len(seen) > 90


def reference_sample_indices(keys, counts, size):
    """The keyed draw, one segment at a time, as its definition reads."""
    bounds = np.concatenate([[0], np.cumsum(counts)])
    return [
        np.sort(np.argsort(keys[start:stop], kind="stable")[:size])
        for start, stop in zip(bounds[:-1], bounds[1:])
    ]


@st.composite
def keyed_segments(draw):
    """``(keys, counts, size)``: ragged segments (empty ones and, half
    the time, one far longer than the rest), keys on a coarse grid so
    equal keys straddle the cut, and a ``size`` on every edge of some
    segment's length."""
    counts = draw(st.lists(st.integers(0, 40), max_size=12))
    if draw(st.booleans()):
        counts.insert(
            draw(st.integers(0, len(counts))), draw(st.integers(300, 700))
        )
    edges = {0, 1, 3}
    for count in counts:
        edges.update((max(count - 1, 0), count, count + 5))
    size = draw(st.sampled_from(sorted(edges)))
    levels = draw(st.sampled_from([1, 2, 7, 50, 2**40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    keys = rng.integers(levels, size=sum(counts)) / levels
    return keys, np.asarray(counts, dtype=np.int64), size


class TestKeyedDraw:
    """The uniform sub-sample *is* "the ``t`` smallest of
    ``rng.random(n)``, ascending" — a definition, and with it the
    sub-sampling RNG stream, shared by the scalar visit (one segment)
    and the batch visit (one per peer)."""

    def test_sample_is_the_smallest_keys_in_row_order(self, database):
        keys = np.random.default_rng(5).random(100)
        np.testing.assert_array_equal(
            database.uniform_sample_indices(25, seed=5),
            np.sort(np.argsort(keys, kind="stable")[:25]),
        )

    def test_consumes_one_double_per_row_or_nothing(self, database):
        rng = np.random.default_rng(5)
        database.uniform_sample_indices(25, seed=rng)
        assert_uniforms_consumed(rng, 5, 100)
        # A whole-partition read and an empty one draw nothing.
        database.uniform_sample_indices(100, seed=rng)
        database.uniform_sample_indices(101, seed=rng)
        assert database.uniform_sample_indices(0, seed=rng).size == 0
        assert_uniforms_consumed(rng, 5, 100)

    @given(keyed_segments())
    @settings(max_examples=200, deadline=None)
    def test_kernel_matches_per_segment_reference(self, segments):
        keys, counts, size = segments
        expected = np.concatenate([
            *reference_sample_indices(keys, counts, size),
            np.empty(0, dtype=np.int64),
        ])
        chosen = segment_sample_indices(keys, counts, size)
        assert chosen.dtype == np.int64
        np.testing.assert_array_equal(chosen, expected)
        # The compiled pass: a visit's size 0 reads every row instead.
        compiled, drawn = compiled_sample_indices(keys, counts, size)
        assert compiled.dtype == np.int64
        if size:
            np.testing.assert_array_equal(compiled, expected)
            assert drawn == counts[counts > size].sum()
        else:
            np.testing.assert_array_equal(
                compiled, np.concatenate([[], *map(np.arange, counts)])
            )
            assert drawn == 0

    def test_kernel_rejects_misdescribed_segments(self):
        keys = np.zeros(5)
        for counts, size in (([2, 2], 1), ([6, -1], 1), ([5], -1), ([[5]], 1)):
            with pytest.raises(ConfigurationError):
                segment_sample_indices(keys, np.asarray(counts), size)

    def test_one_long_segment_does_not_widen_the_rest(self):
        """Work and memory are O(total rows): one 20k-row partition
        among 49 of 100 rows must not pad all 50 to 20k keys (8 MB)."""
        counts = np.full(50, 100, dtype=np.int64)
        counts[17] = 20_000
        keys = np.random.default_rng(3).random(int(counts.sum()))
        expected = np.concatenate(reference_sample_indices(keys, counts, 25))
        for select in (segment_sample_indices, compiled_sample_indices):
            tracemalloc.start()
            try:
                chosen = select(keys, counts, 25)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            if select is compiled_sample_indices:
                chosen, _ = chosen
            np.testing.assert_array_equal(chosen, expected)
            assert peak < 4 * keys.nbytes

    def test_every_row_equally_likely(self, database):
        """20k draws of 25 from 100: each row is included 5,000 times
        give or take 5 sigma (sigma = sqrt(20000 * .25 * .75) = 61) —
        the first and last rows like any other."""
        rng = np.random.default_rng(2006)
        included = np.zeros(100, dtype=np.int64)
        for _ in range(20_000):
            included[database.uniform_sample_indices(25, seed=rng)] += 1
        assert included.sum() == 20_000 * 25
        assert np.abs(included - 5_000).max() < 5 * 61.3
        assert_uniforms_consumed(rng, 2006, 20_000 * 100)

    def test_pinned_stream(self):
        """THE intended sub-sample stream change (PR 18): a sub-sample
        is a function of ``rng.random(n)`` keys, no longer of
        ``Generator.choice``.  If these literals move, the stream moved
        again — intend it, regenerate ``tests/goldens`` and say so."""
        sizes = [5, 8, 3, 8]
        expected = [[0, 2, 3], [3, 4, 5], [0, 1, 2], [2, 5, 7]]
        rng = np.random.default_rng(18)
        for size, rows in zip(sizes, expected):
            database = LocalDatabase({"A": np.arange(size)})
            assert database.uniform_sample_indices(3, seed=rng).tolist() == rows
        # The 3-row partition is read whole and draws nothing; the
        # other draws, back to back, are one draw over the collection.
        assert_uniforms_consumed(rng, 18, 5 + 8 + 8)
        batch = segment_sample_indices(
            np.random.default_rng(18).random(5 + 8 + 8), np.asarray([5, 8, 8]), 3
        )
        assert batch.tolist() == expected[0] + expected[1] + expected[3]
        # The compiled pass over the four partitions, one shared draw.
        rng = np.random.default_rng(18)
        rows, _, processed, _ = select_rows(
            np.cumsum([0, *sizes]), np.arange(4), 3, rng
        )
        assert rows.tolist() == [
            row + offset
            for rows_i, offset in zip(expected, np.cumsum([0, *sizes[:-1]]))
            for row in rows_i
        ]
        assert processed.tolist() == [3, 3, 3, 3]
        assert_uniforms_consumed(rng, 18, 5 + 8 + 8)


class TestBlockSampling:
    def test_sample_size_exact(self, database):
        indices = database.block_sample_indices(25, seed=1)
        assert indices.shape == (25,)

    def test_samples_are_whole_blocks(self, database):
        indices = database.block_sample_indices(30, seed=1)
        blocks_touched = set(indices // 10)
        # 30 tuples = exactly 3 blocks of 10
        assert len(blocks_touched) == 3
        for block in blocks_touched:
            block_rows = set(range(block * 10, block * 10 + 10))
            assert block_rows <= set(indices.tolist()) or (
                len(block_rows & set(indices.tolist())) > 0
            )

    def test_partial_final_block_truncated(self, database):
        indices = database.block_sample_indices(15, seed=1)
        assert indices.shape == (15,)

    def test_oversized_returns_all(self, database):
        indices = database.block_sample_indices(1000, seed=1)
        np.testing.assert_array_equal(indices, np.arange(100))

    def test_negative_rejected(self, database):
        with pytest.raises(SamplingError):
            database.block_sample_indices(-5)

    def test_block_sample_fewer_distinct_blocks_than_uniform(self):
        """The point of block sampling: it touches far fewer blocks."""
        database = LocalDatabase({"A": np.arange(1000)}, block_size=10)
        block_indices = database.block_sample_indices(100, seed=7)
        uniform_indices = database.uniform_sample_indices(100, seed=7)
        assert len(set(block_indices // 10)) < len(set(uniform_indices // 10))


class TestSampleDispatch:
    def test_uniform_method(self, database):
        columns = database.sample(10, method="uniform", seed=1)
        assert columns["A"].shape == (10,)

    def test_block_method(self, database):
        columns = database.sample(10, method="block", seed=1)
        assert columns["A"].shape == (10,)

    def test_columns_stay_aligned(self, database):
        columns = database.sample(20, method="uniform", seed=2)
        np.testing.assert_array_equal(columns["B"], columns["A"] * 2)

    def test_unknown_method(self, database):
        with pytest.raises(ConfigurationError):
            database.sample(10, method="psychic")
