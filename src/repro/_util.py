"""Internal helpers shared across the package.

Seeding discipline
------------------

Every stochastic component in this library accepts an integer seed, a
:class:`numpy.random.SeedSequence` or a :class:`numpy.random.Generator`.
:func:`ensure_rng` normalizes each into a ``Generator``.  Components
that need several independent streams spawn them from
:func:`seed_sequence`, which hands out the children
``Generator.spawn`` would without building a ``Generator`` nothing may
draw from.

Every seed the package creates is a :class:`Seed`: numpy's
``SeedSequence`` with its mixing compiled (``seed_kernel.c`` in
:mod:`repro._native`).  A ``Seed`` generates the state words numpy's
``SeedSequence`` of the same entropy and spawn key generates, and is
registered as numpy's ``ISpawnableSeedSequence``, so numpy's own
``PCG64`` is built from it and every draw stays numpy's; what it saves
is numpy's Python-side construction of a child (a spawn here is tuple
and bytes arithmetic, ≈ 1 µs against ≈ 10 µs).  A caller's own
``SeedSequence`` or ``Generator`` is used as given.
"""

from __future__ import annotations

import ctypes
import math
import struct
from typing import Any, List, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np
from numpy.random import SeedSequence
from numpy.random.bit_generator import ISpawnableSeedSequence

from . import _native
from .errors import ConfigurationError

__all__ = [
    "Seed",
    "SeedLike",
    "ensure_rng",
    "seed_sequence",
    "shallow_copy",
    "readonly_view",
    "widened",
    "check_positive",
    "check_positive_finite",
    "check_nonnegative",
    "check_fraction",
    "check_in",
    "weighted_median",
    "relative_error",
]

_T = TypeVar("_T")

_MASK32 = 0xFFFFFFFF

_WORD = struct.Struct("=I").pack

_state = _native.function("repro_seed_state")


def _words(value: Any) -> List[int]:
    """numpy's ``_coerce_to_uint32_array`` of an integer or a (nested)
    sequence of them: each integer as its 32-bit words, least
    significant first (zero as one word), concatenated.  A string,
    which numpy would parse as digits, is refused."""
    if isinstance(value, (int, np.integer)):
        number = int(value)
        if number < 0:
            raise ValueError("expected non-negative integer")
        words = [number & _MASK32]
        number >>= 32
        while number:
            words.append(number & _MASK32)
            number >>= 32
        return words
    if isinstance(value, (float, np.inexact, str, bytes)):
        raise TypeError("seed must be integer")
    return [word for item in value for word in _words(item)]


def _packed(value: Any) -> bytes:
    words = _words(value)
    return struct.pack(f"={len(words)}I", *words)


class Seed:
    """numpy's ``SeedSequence`` of ``entropy`` and ``spawn_key`` (at
    numpy's default pool size, 4), mixed in C.

    It holds its entropy's and spawn key's 32-bit words as bytes (the
    compiled mix pads the run entropy as numpy does): :meth:`spawn`
    appends a child's index to them and :meth:`generate_state` is one
    call into the mix.  ``None`` entropy is drawn once from the OS,
    through numpy's ``SeedSequence``.
    """

    __slots__ = (
        "entropy", "spawn_key", "n_children_spawned", "_words", "_run"
    )

    def __init__(
        self,
        entropy: Any = None,
        *,
        spawn_key: Sequence[int] = (),
        n_children_spawned: int = 0,
    ) -> None:
        if entropy is None:
            entropy = SeedSequence().entropy
        elif not isinstance(
            entropy, (int, np.integer, list, tuple, range, np.ndarray)
        ):
            raise TypeError(
                "SeedSequence expects int or sequence of ints for entropy "
                f"not {entropy}"
            )
        self.entropy = entropy
        self.spawn_key: Tuple[int, ...] = tuple(spawn_key)
        self.n_children_spawned = n_children_spawned
        run = _packed(entropy)
        self._words = run + _packed(self.spawn_key)
        self._run = len(run) >> 2

    def spawn(self, n_children: int) -> List["Seed"]:
        """The next ``n_children`` children: spawn keys
        ``spawn_key + (i,)``, counting on from the children already
        spawned."""
        start = self.n_children_spawned
        children = []
        for index in range(start, start + n_children):
            child = object.__new__(Seed)
            child.entropy = self.entropy
            child.spawn_key = self.spawn_key + (index,)
            child.n_children_spawned = 0
            child._words = self._words + (
                _WORD(index) if index <= _MASK32 else _packed(index)
            )
            child._run = self._run
            children.append(child)
        self.n_children_spawned = start + n_children
        return children

    def generate_state(self, n_words: int, dtype: Any = np.uint32) -> np.ndarray:
        """``n_words`` words of state, ``uint32`` or ``uint64`` (two
        32-bit words each, the first one low).

        The words are copied out of the ``ctypes`` buffer the mix
        writes (≈ 0.4 µs): handing out a view of it instead raised the
        22k bench fixture's peak RSS by ≈ 0.4 MB.
        """
        words, run = self._words, self._run
        if dtype is np.uint64 or np.dtype(dtype) == np.uint64:
            out = (ctypes.c_uint64 * n_words)()
            _state(words, run, len(words) >> 2, out, n_words, 1)
            return np.frombuffer(out, np.uint64).copy()
        if np.dtype(dtype) != np.uint32:
            raise ValueError("only support uint32 or uint64")
        out32 = (ctypes.c_uint32 * n_words)()
        _state(words, run, len(words) >> 2, out32, n_words, 0)
        return np.frombuffer(out32, np.uint32).copy()

    def __reduce__(self) -> Tuple[Any, ...]:
        return _restored, (
            self.entropy, self.spawn_key, self.n_children_spawned,
            self._words, self._run,
        )


def _restored(
    entropy: Any, spawn_key: Tuple[int, ...], n_children_spawned: int,
    words: bytes, run: int,
) -> Seed:
    """A pickled :class:`Seed`, its words already packed."""
    seed = object.__new__(Seed)
    seed.entropy = entropy
    seed.spawn_key = spawn_key
    seed.n_children_spawned = n_children_spawned
    seed._words = words
    seed._run = run
    return seed


ISpawnableSeedSequence.register(Seed)

SeedLike = Union[None, int, Seed, SeedSequence, np.random.Generator]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` gives a fresh nondeterministic generator, an ``int``, a
    :class:`Seed` or a ``SeedSequence`` a seeded one (numpy's
    ``PCG64`` over :func:`seed_sequence`'s seed), and an existing
    ``Generator`` is passed through unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed_sequence(seed))


def seed_sequence(seed: SeedLike = None) -> Union[Seed, SeedSequence]:
    """The seed sequence behind ``ensure_rng(seed)``: a :class:`Seed`
    of an ``int`` or ``None``, a caller's ``Seed`` or ``SeedSequence``
    as given.

    Its children are the streams ``ensure_rng(seed).spawn`` hands out,
    in the same order, and ``ensure_rng(seed_sequence(seed))`` draws
    what ``ensure_rng(seed)`` draws — so a component can spawn its
    sub-streams now and build its own ``Generator`` when it first
    draws.  A ``Generator``'s own sequence is returned, so spawning
    from it advances exactly what ``Generator.spawn`` would.
    """
    if isinstance(seed, np.random.Generator):
        return seed.bit_generator.seed_seq  # type: ignore[no-any-return]
    if isinstance(seed, (Seed, SeedSequence)):
        return seed
    return Seed(seed)


def shallow_copy(obj: _T) -> _T:
    """``copy.copy(obj)`` for a plain object (attributes in its
    ``__dict__``, no copy hooks) without the reduce protocol's detour:
    the per-query copies of per-snapshot objects are made per query."""
    clone: _T = object.__new__(type(obj))
    clone.__dict__.update(obj.__dict__)
    return clone


def readonly_view(data: np.ndarray) -> np.ndarray:
    """A non-writable view of ``data`` (the caller's array is untouched).

    What a snapshot shared by reference — with every engine, every
    session and, after a fork, every worker — stores and hands out: a
    writable alias would be a cross-worker race waiting to happen.
    """
    view = data.view()
    view.setflags(write=False)
    return view


def widened(values: np.ndarray) -> np.ndarray:
    """``values`` at a width their arithmetic cannot wrap at: an
    integer array narrower than ``int64`` (a generated column is stored
    at :func:`~repro.data.zipf.domain_dtype`'s width) as an ``int64``
    copy, anything else as is.  ``np.quantile`` interpolates with the
    difference of two values in their own dtype.
    """
    if values.dtype.kind in "iu" and values.dtype.itemsize < 8:
        return values.astype(np.int64)
    return values


def check_positive(name: str, value: float) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` > 0."""
    if not value > 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")


def check_positive_finite(name: str, value: float) -> None:
    """Raise :class:`ConfigurationError` unless 0 < ``value`` < inf.

    For time values that *enforce* something (timeouts, deadlines,
    backoffs): NaN passes a plain ``<= 0`` test and silently switches
    the enforcement off, and ``inf`` is spelled ``None``.
    """
    if not 0 < value < math.inf:
        raise ConfigurationError(
            f"{name} must be positive and finite, got {value!r}"
        )


def check_nonnegative(name: str, value: float) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` >= 0."""
    if value < 0:
        raise ConfigurationError(f"{name} must be non-negative, got {value!r}")


def check_fraction(name: str, value: float) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value!r}")


def check_in(name: str, value: object, allowed: Sequence[object]) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is in ``allowed``."""
    if value not in allowed:
        raise ConfigurationError(
            f"{name} must be one of {list(allowed)!r}, got {value!r}"
        )


def weighted_median(
    values: np.ndarray,
    weights: np.ndarray,
    fraction: float = 0.5,
) -> float:
    """Return the weighted ``fraction``-quantile of ``values``.

    The weighted median (``fraction=0.5``) is the value ``v`` minimizing
    ``|sum(w_i for values<v) - sum(w_i for values>v)|`` — the quantity
    the paper's median algorithm (step 4 of §5.6) minimizes.

    Parameters
    ----------
    values:
        Sample values (need not be sorted).
    weights:
        Non-negative weights, same length as ``values``.
    fraction:
        Which quantile of the weight mass to locate, in (0, 1).
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.shape != weights.shape:
        raise ConfigurationError("values and weights must have equal shapes")
    if values.size == 0:
        raise ConfigurationError("weighted_median of an empty sample")
    if np.any(weights < 0):
        raise ConfigurationError("weights must be non-negative")
    total = float(weights.sum())
    if total <= 0:
        raise ConfigurationError("weights must not all be zero")
    if not 0.0 < fraction < 1.0:
        raise ConfigurationError(f"fraction must be in (0, 1), got {fraction!r}")

    order = np.argsort(values, kind="mergesort")
    sorted_values = values[order]
    cumulative = np.cumsum(weights[order])
    cutoff = fraction * total
    index = int(np.searchsorted(cumulative, cutoff, side="left"))
    index = min(index, values.size - 1)
    return float(sorted_values[index])


def relative_error(estimate: float, truth: float, scale: Optional[float] = None) -> float:
    """Normalized absolute error ``|estimate - truth| / scale``.

    ``scale`` defaults to ``|truth|``; a zero scale with a zero error
    returns 0.0, a zero scale with nonzero error returns ``inf``.
    """
    if scale is None:
        scale = abs(truth)
    diff = abs(estimate - truth)
    if scale == 0:
        return 0.0 if diff == 0 else float("inf")
    return diff / scale
