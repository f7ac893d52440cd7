"""The paper's sampling estimator and its variance theory (§3.4).

For a peer sample ``S = {s_1 .. s_m}`` drawn (with replacement) from
the walk's stationary distribution, the estimate of the query answer
``y = sum_p y(p)`` is

    y'' = (1/m) * sum_{s in S} y(s) / prob(s)          (Equation 1)

* **Theorem 1** — ``E[y''] = y``: each term is an unbiased single-peer
  estimate, and averaging preserves unbiasedness.
* **Theorem 2** — ``Var[y''] = C / m`` with
  ``C = sum_p (y(p)/prob(p) - y)^2 prob(p)``: the "badness" of the
  clustering of data across peers.

This module implements the estimator, the exact ``C`` (for tests and
ablations that know the full network), and the plug-in estimate of
``C`` from a sample (the sample variance of the ratios
``y(s)/prob(s)``, which is what a sink can actually compute).

A sample is an :class:`~repro.network.protocol.AggregateSample`: the
replies' payloads as columns plus the probabilities the sink
reconstructs, so every estimator here is array arithmetic over the
columns a batch visit filled — ``y(s)`` is a column name.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Protocol, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from ..errors import SamplingError
from ..network.protocol import AggregateSample
from ..query.model import AggregateOp, AggregationQuery


__all__ = [
    "observations_from_replies",
    "horvitz_thompson",
    "hajek_estimate",
    "hajek_variance",
    "PointEstimator",
    "EQUATION_ONE",
    "make_estimator",
    "estimate_query",
    "avg_divisor",
    "ht_variance",
    "ht_standard_error",
    "clustering_badness_estimate",
    "clustering_badness",
    "theoretical_variance",
    "estimate_total_tuples",
    "estimate_total_column_sum",
]


class PointEstimator(Protocol):
    """Estimates the network-wide total of one sample column — the
    query's own ``aggregate_value`` unless ``field`` names another.

    Both point estimators (:func:`make_estimator` builds them, nothing
    else is one) are a ratio of two sums over the sample's rows —
    ``Σ y/p ÷ m`` and ``M · Σ y/p ÷ Σ 1/p`` — and say so: ``terms`` is
    what is summed, ``from_sums`` the ratio, so a caller estimating
    from many subsets of one sample (:func:`~repro.core.crossval.
    cross_validate`) gathers the terms once and sums them as rows.
    """

    def __call__(
        self, sample: AggregateSample, field: str = ...
    ) -> float: ...

    def terms(
        self, sample: AggregateSample, field: str = ...
    ) -> "NDArray[np.float64]":
        """The per-row terms the estimate sums, one row of the result
        per sum (``(sums, len(sample))``)."""
        ...

    def from_sums(
        self, sums: "NDArray[np.float64]", count: int
    ) -> "NDArray[np.float64]":
        """The estimates whose ``terms`` — ``count`` rows each — sum to
        ``sums`` (``(sums, ...)``; the result drops the first axis)."""
        ...


#: The estimated variance of a point estimator's ``aggregate_value``.
VarianceEstimator = Callable[[AggregateSample], float]


def observations_from_replies(
    sample: AggregateSample,
    num_edges: int,
    num_peers: int = 0,
    variant: str = "simple",
) -> AggregateSample:
    """Attach the stationary probabilities the sink reconstructs.

    The sink knows ``|E|`` (a pre-processing output the paper assumes
    all peers share) and each reply carries ``deg(s)``, so
    ``prob(s) = deg(s) / 2|E|`` — or the exactly-uniform ``1/M`` of
    the Metropolis–Hastings walk, which needs ``num_peers``.
    """
    if num_edges <= 0:
        raise SamplingError("num_edges must be positive")
    if variant == "metropolis-uniform":
        if num_peers <= 0:
            raise SamplingError(f"{variant} variant needs num_peers")
        return sample.with_probability(1.0 / num_peers)
    return sample.with_probability(sample["degree"] / (2.0 * num_edges))


def _ratios(
    sample: AggregateSample, field: str = "aggregate_value"
) -> "NDArray[np.float64]":
    """The single-peer estimates ``y(s) / prob(s)``, with ``y(s)`` read
    from column ``field`` — Equation 1 applies to any per-peer quantity
    a reply carries, so estimating another one is naming its column."""
    if not len(sample):
        raise SamplingError("estimator needs at least one observation")
    ratios: "NDArray[np.float64]" = sample[field] / sample["probability"]
    return ratios


def horvitz_thompson(
    sample: AggregateSample, field: str = "aggregate_value"
) -> float:
    """Equation 1: ``y'' = avg(y(s) / prob(s))``, ``y(s)`` being the
    sample's ``field`` column."""
    ratios = _ratios(sample, field)
    return float(np.add.reduce(ratios) / ratios.size)


def hajek_estimate(
    sample: AggregateSample,
    num_peers: int,
    field: str = "aggregate_value",
) -> float:
    """The self-normalized (Hájek) variant of Equation 1:

        y_H = M * sum(y(s)/prob(s)) / sum(1/prob(s))

    Under stationary sampling ``E[1/prob(s)] = M``, so the denominator
    is an unbiased estimate of ``m * M`` and the estimator is
    asymptotically unbiased.  Its advantage over the plain form is that
    the common ``1/prob`` factor cancels: when local aggregates are
    homogeneous across peers, degree skew contributes *no* variance,
    whereas the plain estimator pays for it in full.  It requires the
    peer count ``M``, which the paper assumes is known to all peers
    from pre-processing (§1, §3.3).
    """
    if num_peers <= 0:
        raise SamplingError("num_peers must be positive")
    ratios = _ratios(sample, field)
    weights = 1.0 / sample["probability"]
    return float(num_peers * np.add.reduce(ratios) / np.add.reduce(weights))


def hajek_variance(sample: AggregateSample, num_peers: int) -> float:
    """Delete-one jackknife variance of :func:`hajek_estimate`.

    Vectorized leave-one-out over the two sums, so it costs O(m).
    Needs at least two observations.
    """
    if num_peers <= 0:
        raise SamplingError("num_peers must be positive")
    ratios = _ratios(sample)
    if ratios.size < 2:
        raise SamplingError("variance estimation needs >= 2 observations")
    weights = 1.0 / sample["probability"]
    ratio_sum = np.add.reduce(ratios)
    weight_sum = np.add.reduce(weights)
    leave_one_out = (
        num_peers * (ratio_sum - ratios) / (weight_sum - weights)
    )
    m = ratios.size
    mean_loo = np.add.reduce(leave_one_out) / m
    return float(
        (m - 1) / m * np.add.reduce((leave_one_out - mean_loo) ** 2)
    )


class _EquationOne:
    """:func:`horvitz_thompson` as a :class:`PointEstimator`."""

    def __call__(
        self, sample: AggregateSample, field: str = "aggregate_value"
    ) -> float:
        return horvitz_thompson(sample, field)

    def terms(
        self, sample: AggregateSample, field: str = "aggregate_value"
    ) -> "NDArray[np.float64]":
        return _ratios(sample, field)[np.newaxis]

    def from_sums(
        self, sums: "NDArray[np.float64]", count: int
    ) -> "NDArray[np.float64]":
        estimates: "NDArray[np.float64]" = sums[0] / count
        return estimates


@dataclasses.dataclass(frozen=True)
class _Hajek:
    """:func:`hajek_estimate` at a fixed ``M`` as a
    :class:`PointEstimator`."""

    num_peers: int

    def __call__(
        self, sample: AggregateSample, field: str = "aggregate_value"
    ) -> float:
        return hajek_estimate(sample, self.num_peers, field)

    def terms(
        self, sample: AggregateSample, field: str = "aggregate_value"
    ) -> "NDArray[np.float64]":
        return np.array(
            (_ratios(sample, field), 1.0 / sample["probability"])
        )

    def from_sums(
        self, sums: "NDArray[np.float64]", count: int
    ) -> "NDArray[np.float64]":
        estimates: "NDArray[np.float64]" = self.num_peers * sums[0] / sums[1]
        return estimates


#: Equation 1 as a :class:`PointEstimator` — ``make_estimator("ht")``'s
#: and the default wherever one is optional.
EQUATION_ONE: PointEstimator = _EquationOne()


def make_estimator(
    name: str, num_peers: int = 0
) -> Tuple[PointEstimator, VarianceEstimator]:
    """Estimator factory: ``"ht"`` (the paper's Equation 1) or
    ``"hajek"`` (self-normalized; needs ``num_peers``).

    Returns ``(point_estimator, variance_estimator)`` — both callables
    over a sample; the point estimator also takes ``field=`` to
    estimate the total of another column (``"matching_count"``,
    ``"local_tuples"``, ``"column_total"``) and is a
    :class:`PointEstimator`: it exposes the two sums it is a ratio of.
    """
    if name == "ht":
        return EQUATION_ONE, ht_variance
    if name == "hajek":
        if num_peers <= 0:
            raise SamplingError("hajek estimator needs num_peers")

        def variance(sample: AggregateSample) -> float:
            return hajek_variance(sample, num_peers)

        return _Hajek(num_peers), variance
    raise SamplingError(
        f"unknown estimator {name!r}; expected 'ht' or 'hajek'"
    )


def avg_divisor(
    query: AggregationQuery, sample: AggregateSample, point: PointEstimator
) -> float:
    """What turns SUM units into ``query``'s units: 1 for COUNT and
    SUM, the estimated matching-count total for AVG.

    A reply's ``aggregate_value`` is the scaled *sum* for AVG, so the
    estimators and their variances work in SUM units; AVG is the ratio
    of two totals under the same ``point`` estimator, and an interval's
    half-width is brought into AVG units by the same division.
    """
    if query.agg is not AggregateOp.AVG:
        return 1.0
    total_count = point(sample, field="matching_count")
    if total_count <= 0:
        raise SamplingError("AVG undefined: sample saw no matching tuples")
    return total_count


def estimate_query(
    query: AggregationQuery, sample: AggregateSample, point: PointEstimator
) -> float:
    """The answer to ``query`` from ``sample`` — the one estimate rule
    every COUNT/SUM/AVG engine applies."""
    return point(sample) / avg_divisor(query, sample, point)


def ht_variance(sample: AggregateSample) -> float:
    """Plug-in estimate of ``Var[y''] = C/m`` from the sample itself.

    The sample variance of the ratios estimates ``C`` (see
    :func:`clustering_badness_estimate`); dividing by ``m`` gives the
    variance of their mean.  Needs at least two observations.
    """
    ratios = _ratios(sample)
    if ratios.size < 2:
        raise SamplingError("variance estimation needs >= 2 observations")
    return float(ratios.var(ddof=1) / ratios.size)


def ht_standard_error(sample: AggregateSample) -> float:
    """Standard error of the estimate (sqrt of :func:`ht_variance`)."""
    return math.sqrt(ht_variance(sample))


def clustering_badness_estimate(sample: AggregateSample) -> float:
    """Estimate ``C`` from a stationary sample.

    Under stationary sampling, ``Var[y(s)/prob(s)] = C`` exactly
    (Theorem 2 with m=1), so the sample variance of the observed
    ratios is an unbiased estimate of ``C``.
    """
    ratios = _ratios(sample)
    if ratios.size < 2:
        raise SamplingError("badness estimation needs >= 2 observations")
    return float(ratios.var(ddof=1))


def clustering_badness(
    per_peer_values: Sequence[float],
    probabilities: Sequence[float],
) -> float:
    """Exact ``C = sum_p (y(p)/prob(p) - y)^2 prob(p)`` (Theorem 2).

    Requires the full population — tests and ablations use this to
    check the sample-based estimate and the variance law.
    """
    values = np.asarray(per_peer_values, dtype=float)
    probabilities = np.asarray(probabilities, dtype=float)
    if values.shape != probabilities.shape:
        raise SamplingError("values and probabilities must align")
    if values.size == 0:
        raise SamplingError("population must be non-empty")
    if np.any(probabilities <= 0):
        raise SamplingError("all probabilities must be positive")
    if not math.isclose(float(probabilities.sum()), 1.0, rel_tol=1e-6):
        raise SamplingError("probabilities must sum to 1")
    y = float(values.sum())
    ratios = values / probabilities
    return float(((ratios - y) ** 2 * probabilities).sum())


def theoretical_variance(
    per_peer_values: Sequence[float],
    probabilities: Sequence[float],
    sample_size: int,
) -> float:
    """Theorem 2 in full: ``Var[y''] = C / m`` for sample size ``m``."""
    if sample_size <= 0:
        raise SamplingError("sample_size must be positive")
    badness = clustering_badness(per_peer_values, probabilities)
    return badness / sample_size


def estimate_total_tuples(sample: AggregateSample) -> float:
    """Estimate N (network-wide tuple count) from a stationary sample.

    Applies Equation 1 with ``y(p) = |local partition of p|``; used to
    normalize COUNT errors when N is not known a priori.
    """
    return horvitz_thompson(sample, field="local_tuples")


def estimate_total_column_sum(sample: AggregateSample) -> float:
    """Estimate the network-wide sum of the aggregated column.

    Applies Equation 1 with ``y(p) = sum of the column at p`` (the
    ``column_total`` the visit reply carries); normalizes SUM errors.
    """
    return horvitz_thompson(sample, field="column_total")
