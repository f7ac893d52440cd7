"""Large-sample confidence intervals for sampling estimates.

One of the paper's arguments for random sampling is that "in addition
to an estimate of the aggregate, one can also provide confidence
intervals of the error with high probability".  The estimator ``y''``
is a mean of i.i.d. ratios, so the central limit theorem gives normal
intervals from the sample standard error.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable
from ..errors import SamplingError
from ..network.protocol import AggregateSample
from ..query.model import AggregationQuery
from .estimators import (
    PointEstimator,
    avg_divisor,
    ht_standard_error,
    horvitz_thompson,
)

__all__ = [
    "z_for_confidence",
    "ConfidenceInterval",
    "normal_confidence_interval",
    "query_confidence_interval",
]

# Two-sided standard-normal quantiles for common confidence levels.
_Z_TABLE = {
    0.80: 1.2815515655446004,
    0.90: 1.6448536269514722,
    0.95: 1.959963984540054,
    0.975: 2.241402727604947,
    0.99: 2.5758293035489004,
    0.995: 2.807033768343811,
}


def z_for_confidence(confidence: float) -> float:
    """Two-sided z-value for a confidence level in (0, 1).

    Exact for the tabulated levels; otherwise computed via the inverse
    error function (rational approximation good to ~1e-9, which is far
    tighter than the CLT approximation it feeds).
    """
    if not 0.0 < confidence < 1.0:
        raise SamplingError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    if confidence in _Z_TABLE:
        return _Z_TABLE[confidence]
    # Acklam's inverse-normal-CDF approximation on p = (1+conf)/2.
    p = (1.0 + confidence) / 2.0
    a = [-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00]
    b = [-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00]
    d = [7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00]
    p_low = 0.02425
    if p < p_low:  # pragma: no cover - confidence > 0 keeps p >= 0.5
        q = math.sqrt(-2 * math.log(p))
        return -(
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if p <= 1 - p_low:
        q = p - 0.5
        r = q * q
        return (
            ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        ) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1
        )
    q = math.sqrt(-2 * math.log(1 - p))
    return -(
        ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
    ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)


@dataclasses.dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric interval ``estimate ± half_width``."""

    estimate: float
    half_width: float
    confidence: float

    @property
    def low(self) -> float:
        """Lower endpoint."""
        return self.estimate - self.half_width

    @property
    def high(self) -> float:
        """Upper endpoint."""
        return self.estimate + self.half_width

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return (
            f"{self.estimate:.4g} ± {self.half_width:.4g} "
            f"({self.confidence:.0%})"
        )


def normal_confidence_interval(
    sample: AggregateSample,
    confidence: float = 0.95,
) -> ConfidenceInterval:
    """CLT-based interval for the estimate from this sample."""
    estimate = horvitz_thompson(sample)
    standard_error = ht_standard_error(sample)
    z = z_for_confidence(confidence)
    return ConfidenceInterval(
        estimate=estimate,
        half_width=z * standard_error,
        confidence=confidence,
    )


def query_confidence_interval(
    query: AggregationQuery,
    sample: AggregateSample,
    estimate: float,
    point: PointEstimator,
    variance: Callable[[AggregateSample], float],
    confidence: float,
) -> ConfidenceInterval:
    """The CLT interval around ``estimate``, the answer to ``query``
    that :func:`~repro.core.estimators.estimate_query` gave under
    ``point``: ``variance`` is in SUM units, so the half-width goes
    through the same :func:`~repro.core.estimators.avg_divisor`."""
    half_width = z_for_confidence(confidence) * math.sqrt(variance(sample))
    return ConfidenceInterval(
        estimate=estimate,
        half_width=half_width / avg_divisor(query, sample, point),
        confidence=confidence,
    )
