"""Zipf value distribution over a finite domain (paper §5.2.2).

The paper draws attribute values from ``{1, ..., 100}`` under a Zipf
law with skew parameter ``Z``: value of rank ``r`` has probability
proportional to ``1 / r^Z``.  ``Z = 0`` degenerates to uniform; the
experiments sweep ``Z`` from 0 to 2 (Figures 10 and 11).

Unlike :func:`numpy.random.zipf` (which samples an unbounded power
law), this module implements the *bounded* Zipf used in the database
literature, with exact probabilities and inverse-CDF sampling.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from .._util import SeedLike, check_nonnegative, check_positive, ensure_rng
from ..errors import ConfigurationError


__all__ = [
    "domain_dtype",
    "zipf_probabilities",
    "zipf_sample",
    "ZipfDistribution",
]

#: The signed widths a generated column may take, narrowest first.
_SIGNED_WIDTHS = (np.int8, np.int16, np.int32, np.int64)


def domain_dtype(max_value: int) -> np.dtype:
    """The narrowest signed integer dtype holding ``1..max_value``:
    the first of ``int8`` / ``int16`` / ``int32`` / ``int64`` whose
    maximum is at least ``max_value`` (127 fits ``int8``, 128 needs
    ``int16``), so the paper's 100-value attribute costs one byte a
    tuple.  Arithmetic on such a column widens first: a difference or
    product of two ``int8`` values can wrap.
    """
    check_positive("max_value", max_value)
    for width in _SIGNED_WIDTHS:
        if np.iinfo(width).max >= max_value:
            return np.dtype(width)
    raise ConfigurationError(f"no integer dtype holds {max_value}")


def zipf_probabilities(num_values: int, skew: float) -> np.ndarray:
    """Probability of each value ``1..num_values`` under Zipf(``skew``).

    Rank ``r`` (1-based) gets mass ``r^-skew / H`` where ``H`` is the
    generalized harmonic normalizer.  Rank 1 is value 1, i.e. small
    values are the frequent ones — which way ranks map to values does
    not matter to any experiment, but fixing it keeps datasets
    deterministic.
    """
    check_positive("num_values", num_values)
    check_nonnegative("skew", skew)
    ranks = np.arange(1, num_values + 1, dtype=float)
    weights = ranks**-skew
    return weights / weights.sum()


#: Uniforms per ``rng.random`` call in :func:`zipf_sample`.  Doubles
#: are drawn one per generator output, so chunking leaves every value
#: as one draw would make it, and a sample's temporaries stay this size.
SAMPLE_CHUNK = 1 << 16


def zipf_sample(
    num_samples: int,
    num_values: int = 100,
    skew: float = 0.2,
    seed: SeedLike = None,
) -> np.ndarray:
    """Draw ``num_samples`` values from ``1..num_values`` ~ Zipf(skew).

    Inverse-CDF sampling into one output of dtype
    :func:`domain_dtype` ``(num_values)`` — ``int8`` for the paper's
    100 values — filled :data:`SAMPLE_CHUNK` uniforms at a time, so no
    ``int64`` column is ever built.  Widen before elementwise
    arithmetic on it.
    """
    check_nonnegative("num_samples", num_samples)
    rng = ensure_rng(seed)
    probabilities = zipf_probabilities(num_values, skew)
    cdf = np.cumsum(probabilities)
    cdf[-1] = 1.0  # guard against float drift
    out = np.empty(num_samples, dtype=domain_dtype(num_values))
    for start in range(0, out.size, SAMPLE_CHUNK):
        chunk = out[start : start + SAMPLE_CHUNK]
        chunk[:] = np.searchsorted(cdf, rng.random(chunk.size), side="right")
    out += 1
    return out


@dataclasses.dataclass(frozen=True)
class ZipfDistribution:
    """A reusable bounded-Zipf distribution object.

    Attributes
    ----------
    num_values:
        Domain size; values are ``1..num_values``.
    skew:
        The paper's ``Z`` parameter (>= 0).
    """

    num_values: int = 100
    skew: float = 0.2

    def __post_init__(self) -> None:
        check_positive("num_values", self.num_values)
        check_nonnegative("skew", self.skew)

    def probabilities(self) -> np.ndarray:
        """Per-value probabilities (index 0 = value 1)."""
        return zipf_probabilities(self.num_values, self.skew)

    def sample(self, num_samples: int, seed: SeedLike = None) -> np.ndarray:
        """Draw ``num_samples`` values."""
        return zipf_sample(
            num_samples,
            num_values=self.num_values,
            skew=self.skew,
            seed=seed,
        )

    def expected_count(self, lo: int, hi: int, num_tuples: int) -> float:
        """Expected COUNT of a ``BETWEEN lo AND hi`` query on
        ``num_tuples`` draws — handy for selectivity targeting."""
        if lo > hi:
            raise ConfigurationError(f"empty range [{lo}, {hi}]")
        probabilities = self.probabilities()
        lo_index = max(lo, 1) - 1
        hi_index = min(hi, self.num_values)
        if lo_index >= hi_index:
            return 0.0
        return float(probabilities[lo_index:hi_index].sum()) * num_tuples

    def range_for_selectivity(self, selectivity: float) -> Tuple[int, int]:
        """Smallest prefix range ``[1, hi]`` with mass >= ``selectivity``.

        The paper's experiments use range queries of controlled
        selectivity (2.5%–40%); this picks the matching value range.
        """
        if not 0 < selectivity <= 1:
            raise ConfigurationError(
                f"selectivity must be in (0, 1], got {selectivity}"
            )
        cumulative = np.cumsum(self.probabilities())
        hi_index = int(np.searchsorted(cumulative, selectivity, side="left"))
        hi_index = min(hi_index, self.num_values - 1)
        return (1, hi_index + 1)
