"""Internal helpers shared across the package.

Seeding discipline
------------------

Every stochastic component in this library accepts an integer seed, a
:class:`numpy.random.SeedSequence` or a :class:`numpy.random.Generator`.
:func:`ensure_rng` normalizes each into a ``Generator``.  Components
that need several independent streams should call :func:`spawn` so
sub-streams do not overlap — or spawn them from
:func:`seed_sequence`, which hands out the same children without
building a ``Generator`` nothing may draw from.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, TypeVar, Union

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "SeedLike",
    "ensure_rng",
    "seed_sequence",
    "spawn",
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

SeedLike = Union[None, int, np.random.SeedSequence, np.random.Generator]

_T = TypeVar("_T")


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` gives a fresh nondeterministic generator, an ``int`` or a
    ``SeedSequence`` a seeded one, and an existing ``Generator`` is
    passed through unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def seed_sequence(seed: SeedLike = None) -> np.random.SeedSequence:
    """The seed sequence behind ``ensure_rng(seed)``.

    Its children are the streams ``ensure_rng(seed).spawn`` hands out,
    in the same order, and ``ensure_rng(seed_sequence(seed))`` draws
    what ``ensure_rng(seed)`` draws — so a component can spawn its
    sub-streams now and build its own ``Generator`` when it first
    draws.  A ``Generator``'s own sequence is returned, so spawning
    from it advances exactly what ``Generator.spawn`` would.
    """
    if isinstance(seed, np.random.Generator):
        return seed.bit_generator.seed_seq
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``n`` statistically independent child streams."""
    if n < 0:
        raise ConfigurationError(f"cannot spawn {n} generators")
    return list(rng.spawn(n))


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
