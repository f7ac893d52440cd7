"""Cross-validation of the phase-I sample (paper §3.4, Theorem 3).

The sink cannot observe its estimation error directly (it does not
know ``y``), but it can *split* the phase-I sample into two halves,
compute the estimate from each, and use the disagreement:

    CVError = |y_1'' - y_2''|

Theorem 3: ``E[CVError²] = 2 · E[(y'' - y)²]`` (for estimates at size
``m/2``), so the squared cross-validation error is an observable,
conservatively scaled stand-in for the squared true error.  Repeating
the random halving a few times and averaging makes the estimate robust
(the paper's "steps 2–4 can be repeated a few times").
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np

from .._util import SeedLike, ensure_rng
from ..errors import SamplingError
from ..network.protocol import AggregateSample
from .estimators import EQUATION_ONE, PointEstimator


__all__ = [
    "CrossValidation",
    "cross_validate",
]


@dataclasses.dataclass(frozen=True)
class CrossValidation:
    """Result of cross-validating a phase-I sample.

    Attributes
    ----------
    mean_squared_error:
        Average of ``CVError²`` over the halving rounds.
    errors:
        The individual per-round ``CVError`` values.
    half_size:
        ``m/2`` — the sample size each half-estimate used; the size
        the planner's formula is anchored to.
    """

    mean_squared_error: float
    errors: List[float]
    half_size: int

    @property
    def rms_error(self) -> float:
        """Root of the mean squared cross-validation error."""
        return float(np.sqrt(self.mean_squared_error))

    @property
    def rounds(self) -> int:
        """Number of random halvings performed."""
        return len(self.errors)

    def implied_badness(self) -> float:
        """Invert Theorem 2+3 to get ``C``.

        ``E[CVError²] = 2 · Var[y''_{m/2}] = 2C/(m/2) = 4C/m``; with
        ``half = m/2`` this yields ``C = mean_sq · half / 2``.
        """
        return self.mean_squared_error * self.half_size / 2.0


def cross_validate(
    sample: AggregateSample,
    rounds: int = 5,
    seed: SeedLike = None,
    estimator: PointEstimator = EQUATION_ONE,
) -> CrossValidation:
    """Randomly halve the sample ``rounds`` times and measure CVError.

    Each round partitions the sample into two halves S1, S2 (sizes
    ``floor(m/2)`` each; with odd ``m`` one row sits out), computes
    ``y_1''`` and ``y_2''`` over each half and records
    ``|y_1'' - y_2''|``.

    ``estimator`` is one of :func:`~repro.core.estimators.
    make_estimator`'s point estimators; the default is Equation 1 (the
    mean of the ratios).  Passing the Hájek estimator cross-validates
    that estimator instead, so the phase-II plan stays calibrated to
    whatever estimator the engine actually uses.

    Either estimator is a ratio of sums over a half's rows, so the
    halves are never built: the per-row terms are computed once, every
    round's two halves are gathered in one pass and each is summed
    along its own contiguous run — the values a per-half
    ``estimator(sample.take(half))`` returns, bit for bit
    (``tests/row_reference.py`` keeps that loop).  The permutations
    are drawn one ``rng.permutation(m)`` per round, in round order:
    that *is* the stream contract (one ``rng.permuted`` call shuffles
    every round's ``arange(m)`` row in place, in row order, drawing
    exactly what those calls draw).
    """
    if rounds <= 0:
        raise SamplingError("rounds must be positive")
    m = len(sample)
    if m < 4:
        raise SamplingError(
            f"cross-validation needs at least 4 phase-I peers, got {m}"
        )
    rng = ensure_rng(seed)
    half = m // 2
    terms = estimator.terms(sample)
    orders = np.empty((rounds, m), dtype=np.int64)
    orders[:] = np.arange(m)
    rng.permuted(orders, axis=1, out=orders)
    # (sum, round, half-of-the-round, row): ``take`` lays the gather
    # out C-contiguous, so axis 3 is one pairwise reduction per half.
    halves = terms.take(orders[:, : 2 * half], axis=1).reshape(
        len(terms), rounds, 2, half
    )
    estimates = estimator.from_sums(np.add.reduce(halves, axis=3), half)
    errors = np.abs(estimates[:, 0] - estimates[:, 1])
    return CrossValidation(
        mean_squared_error=float(np.add.reduce(np.square(errors)) / rounds),
        errors=errors.tolist(),
        half_size=half,
    )
