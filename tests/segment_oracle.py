"""The uniform sub-sample as numpy computes it — the oracle the compiled
selection (:func:`repro.data.segments.select_rows`) is compared against.

:func:`segment_sample_indices` is the product's former selection,
moved here verbatim when the visit's row selection became one compiled
pass: every segment's ``size`` smallest keys, ranked as rows of a
padded key matrix per power-of-two length class, listed ascending.
:class:`KeyedGenerator` hands the compiled pass chosen keys (ties
included, which ``rng.random`` practically never draws), and
:func:`compiled_sample_indices` runs that pass over segments of given
keys and returns its rows as the oracle lays them out.
"""

from unittest import mock

import numpy as np

from repro.data import segments
from repro.errors import ConfigurationError


class KeyedGenerator(np.random.Generator):
    """A ``Generator`` whose ``random`` fills its calls from ``keys``,
    in order, and counts what it handed out."""

    def __init__(self, keys):
        super().__init__(np.random.PCG64(0))
        self.keys = np.asarray(keys, dtype=np.float64)
        self.drawn = 0

    def random(self, size=None, dtype=np.float64, out=None):
        if out is None:
            out = np.empty(size)
        out[:] = self.keys[self.drawn : self.drawn + out.size]
        self.drawn += out.size
        return out


def compiled_sample_indices(keys, counts, size, shared=True):
    """:func:`segment_sample_indices` through the compiled pass, and the
    number of keys it drew.

    ``shared``: ``keys`` lays one key per row of every segment end to
    end, as :func:`segment_sample_indices` reads them, and the pass
    draws the sub-sampled segments' keys from one shared generator.
    Otherwise the pass runs as under an integer seed, every sub-sampled
    segment reading the first ``n_i`` keys of one draw: ``keys`` is
    that draw, at least as long as the longest segment.
    """
    counts = np.asarray(counts, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    peers = np.arange(counts.size, dtype=np.int64)
    if shared:
        sampled = (counts > size) if size else np.zeros_like(counts, bool)
        generator = KeyedGenerator(keys[np.repeat(sampled, counts)])
        rows, starts, processed, totals = segments.select_rows(
            offsets, peers, size, generator
        )
    else:
        generator = KeyedGenerator(keys)
        with mock.patch.object(segments, "ensure_rng", lambda seed: generator):
            rows, starts, processed, totals = segments.select_rows(
                offsets, peers, size, 1
            )
    assert (totals == counts).all()
    assert (starts == np.cumsum(processed) - processed).all()
    return rows - np.repeat(offsets[:-1], processed), generator.drawn


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
