"""``repro._util.Seed`` against its oracle, numpy's ``SeedSequence``.

A ``Seed`` is numpy's ``SeedSequence`` with the mixing compiled
(``src/repro/seed_kernel.c``): for the same entropy and spawn key it
must generate the same state words, spawn the same tree in the same
order, and so seed numpy's ``PCG64`` to the same draws.  Every stream
the package seeds rests on this; the goldens and sim metrics are only
its end-to-end consequence.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random.bit_generator import ISpawnableSeedSequence

from repro import _util
from repro._util import Seed, ensure_rng, seed_sequence

ENTROPY = st.one_of(
    st.integers(0, 2**160),
    st.lists(st.integers(0, 2**64), max_size=6),
)
SPAWN_KEY = st.lists(st.integers(0, 2**64), max_size=4).map(tuple)
DTYPES = st.sampled_from([np.uint32, np.uint64])


def _pair(entropy, spawn_key=()):
    return (
        Seed(entropy, spawn_key=spawn_key),
        np.random.SeedSequence(entropy, spawn_key=spawn_key),
    )


def assert_same_seed(ours, theirs, words=8):
    assert isinstance(ours, Seed)
    assert ours.spawn_key == theirs.spawn_key
    assert ours.n_children_spawned == theirs.n_children_spawned
    for dtype in (np.uint32, np.uint64):
        mine = ours.generate_state(words, dtype)
        assert mine.dtype == dtype
        assert mine.tolist() == theirs.generate_state(words, dtype).tolist()


class TestGenerateState:
    @settings(max_examples=150, deadline=None)
    @given(entropy=ENTROPY, spawn_key=SPAWN_KEY,
           words=st.integers(1, 16), dtype=DTYPES)
    def test_equals_numpy(self, entropy, spawn_key, words, dtype):
        ours, theirs = _pair(entropy, spawn_key)
        state = ours.generate_state(words, dtype)
        expected = theirs.generate_state(words, dtype)
        assert state.dtype == expected.dtype
        assert state.shape == expected.shape == (words,)
        assert state.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "entropy",
        [0, 1, 2**32 - 1, 2**32, 2**128 - 1, 2**160, [], [0], [1, 2, 3, 4, 5],
         (7, 2**40), range(3), np.uint64(2**63), np.array([3, 4], np.uint32),
         np.array([[1, 2], [3, 4]]), [[1, 2], [3]]],
    )
    @pytest.mark.parametrize("spawn_key", [(), (0,), (5, 2**64)])
    def test_edges(self, entropy, spawn_key):
        """Short runs (padded under a key), multi-word integers, numpy
        integers and arrays, nested sequences, the empty run."""
        assert_same_seed(*_pair(entropy, spawn_key), words=16)

    def test_dtype_checks(self):
        seed = Seed(3)
        assert seed.generate_state(4, "uint64").tolist() == (
            np.random.SeedSequence(3).generate_state(4, "uint64").tolist()
        )
        with pytest.raises(ValueError, match="only support uint32 or uint64"):
            seed.generate_state(4, np.int64)

    @pytest.mark.parametrize("entropy", [-1, [3, -2]])
    def test_negative_entropy_raises(self, entropy):
        with pytest.raises(ValueError, match="non-negative"):
            Seed(entropy)

    @pytest.mark.parametrize("entropy", [1.5, "12", {1: 2}])
    def test_entropy_of_another_type_raises(self, entropy):
        with pytest.raises(TypeError):
            np.random.SeedSequence(entropy)
        with pytest.raises(TypeError):
            Seed(entropy)

    def test_a_string_in_a_sequence_is_refused(self):
        """numpy parses it as digits; a seed here is integers."""
        np.random.SeedSequence(["12"])
        with pytest.raises(TypeError, match="seed must be integer"):
            Seed(["12"])


class TestNoneEntropy:
    def test_resolved_once_through_numpy(self, monkeypatch):
        built = []

        class Counted(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(_util, "SeedSequence", Counted)
        seed = seed_sequence(None)
        assert built == [()]
        assert isinstance(seed.entropy, int) and seed.entropy.bit_length() <= 128
        assert_same_seed(seed, np.random.SeedSequence(seed.entropy))
        child = seed.spawn(1)[0]
        assert child.entropy == seed.entropy
        assert built == [()]
        assert Seed().entropy != seed.entropy


class TestSpawn:
    @settings(max_examples=60, deadline=None)
    @given(entropy=ENTROPY, spawn_key=SPAWN_KEY,
           counts=st.lists(st.integers(0, 4), min_size=1, max_size=4))
    def test_children_equal_numpy(self, entropy, spawn_key, counts):
        ours, theirs = _pair(entropy, spawn_key)
        for count in counts:
            mine, expected = ours.spawn(count), theirs.spawn(count)
            assert len(mine) == len(expected) == count
            for child, oracle in zip(mine, expected):
                assert child.entropy == oracle.entropy
                assert_same_seed(child, oracle)
        assert ours.n_children_spawned == theirs.n_children_spawned

    @settings(max_examples=40, deadline=None)
    @given(entropy=ENTROPY, data=st.data())
    def test_interleaved_trees(self, entropy, data):
        """A tree at least four levels deep, spawned in an arbitrary
        interleaving: every node equals numpy's, whatever was spawned
        from its ancestors or siblings in between."""
        ours, theirs = _pair(entropy)
        nodes = [(ours, theirs)]
        for _ in range(3):  # a chain first, so the tree is deep
            nodes.append(tuple(seq.spawn(2)[1] for seq in nodes[-1]))
        steps = data.draw(st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(1, 3)),
            min_size=1, max_size=12,
        ))
        for pick, count in steps:
            mine, theirs_ = nodes[pick % len(nodes)]
            nodes.extend(zip(mine.spawn(count), theirs_.spawn(count)))
        assert max(len(node.spawn_key) for node, _ in nodes) >= 3
        for node, oracle in nodes:
            assert_same_seed(node, oracle, words=4)

    def test_spawn_index_past_32_bits(self):
        """A child index of two words (numpy's own spawn loops forever
        past 2**32 - 1, so its oracle is the explicit spawn key)."""
        ours = Seed(11, spawn_key=(4,), n_children_spawned=2**32 - 1)
        for child in ours.spawn(2):
            assert_same_seed(
                child, np.random.SeedSequence(11, spawn_key=child.spawn_key)
            )
        assert [child.spawn_key for child in ours.spawn(1)] == [(4, 2**32 + 1)]


class TestNumpyBuildsFromIt:
    """Registered as numpy's ``ISpawnableSeedSequence``: numpy's own
    ``PCG64``, ``Generator.spawn`` and ``BitGenerator.spawn`` take it."""

    @settings(max_examples=40, deadline=None)
    @given(entropy=ENTROPY, spawn_key=SPAWN_KEY)
    def test_default_rng_draws(self, entropy, spawn_key):
        ours, theirs = _pair(entropy, spawn_key)
        assert isinstance(ours, ISpawnableSeedSequence)
        mine, expected = np.random.default_rng(ours), np.random.default_rng(theirs)
        assert mine.bit_generator.seed_seq is ours
        assert mine.random(5).tolist() == expected.random(5).tolist()
        assert mine.integers(0, 2**62, 3).tolist() == (
            expected.integers(0, 2**62, 3).tolist()
        )
        assert mine.bit_generator.state == expected.bit_generator.state

    @settings(max_examples=30, deadline=None)
    @given(entropy=st.integers(0, 2**160), counts=st.lists(
        st.integers(1, 3), min_size=1, max_size=3))
    def test_generator_and_bit_generator_spawn(self, entropy, counts):
        mine, expected = ensure_rng(entropy), np.random.default_rng(entropy)
        assert isinstance(mine.bit_generator.seed_seq, Seed)
        for count in counts:
            for child, oracle in zip(mine.spawn(count), expected.spawn(count)):
                assert isinstance(child.bit_generator.seed_seq, Seed)
                assert child.random(3).tolist() == oracle.random(3).tolist()
            for child, oracle in zip(
                mine.bit_generator.spawn(count),
                expected.bit_generator.spawn(count),
            ):
                assert child.random_raw(2).tolist() == (
                    oracle.random_raw(2).tolist()
                )

    def test_a_callers_seed_is_used_as_given(self):
        sequence = np.random.SeedSequence(5)
        generator = np.random.default_rng(6)
        assert seed_sequence(sequence) is sequence
        assert seed_sequence(generator) is generator.bit_generator.seed_seq
        assert ensure_rng(sequence).bit_generator.seed_seq is sequence
        assert ensure_rng(generator) is generator
        seed = Seed(7)
        assert seed_sequence(seed) is seed


class TestRoundTrips:
    @settings(max_examples=30, deadline=None)
    @given(entropy=ENTROPY, spawn_key=SPAWN_KEY, spawned=st.integers(0, 5))
    def test_pickle_and_deepcopy(self, entropy, spawn_key, spawned):
        seed = Seed(entropy, spawn_key=spawn_key)
        seed.spawn(spawned)
        for copied in (pickle.loads(pickle.dumps(seed)), copy.deepcopy(seed)):
            assert copied is not seed
            for name in ("entropy", "spawn_key", "n_children_spawned"):
                assert getattr(copied, name) == getattr(seed, name)
            assert copied.generate_state(8).tolist() == (
                seed.generate_state(8).tolist()
            )
            children = copied.spawn(2)
            assert [c.spawn_key for c in children] == [
                spawn_key + (spawned,), spawn_key + (spawned + 1,)
            ]
            for child, oracle in zip(
                children, np.random.SeedSequence(
                    entropy, spawn_key=spawn_key, n_children_spawned=spawned
                ).spawn(2),
            ):
                assert_same_seed(child, oracle)

    def test_a_pickled_generator_keeps_its_seed_and_state(self):
        rng = ensure_rng(Seed(9).spawn(2)[1])
        rng.random(3)
        copied = pickle.loads(pickle.dumps(rng))
        assert isinstance(copied.bit_generator.seed_seq, Seed)
        assert copied.random(4).tolist() == rng.random(4).tolist()
        assert [c.random() for c in copied.spawn(2)] == (
            [c.random() for c in rng.spawn(2)]
        )
