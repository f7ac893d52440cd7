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
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import SamplingError
from ..network.protocol import AggregateReply


__all__ = [
    "PeerObservation",
    "observations_from_replies",
    "horvitz_thompson",
    "hajek_estimate",
    "hajek_variance",
    "make_estimator",
    "ht_variance",
    "ht_standard_error",
    "clustering_badness_estimate",
    "clustering_badness",
    "theoretical_variance",
    "estimate_total_tuples",
    "estimate_total_column_sum",
]


@dataclasses.dataclass(frozen=True)
class PeerObservation:
    """One visited peer's contribution, as the sink sees it.

    Attributes
    ----------
    peer_id:
        The visited peer.
    value:
        The (scaled) local aggregate ``y(s)`` for the query.
    probability:
        The peer's probability under the walk's stationary
        distribution, reconstructed at the sink from the degree.
    matching_count:
        Scaled count of predicate-matching tuples (drives COUNT and
        the denominator of AVG).
    column_total:
        Scaled sum of the aggregated column over *all* local tuples
        (used to normalize SUM errors).
    local_tuples:
        The peer's partition size (used to estimate N).
    contribution_variance:
        Per-tuple variance of the selection-gated contribution at this
        peer (drives the cost-optimal choice of t).
    processed_tuples:
        Tuples the peer actually aggregated (t, or all of them).
    """

    peer_id: int
    value: float
    probability: float
    matching_count: float = 0.0
    column_total: float = 0.0
    local_tuples: int = 0
    contribution_variance: float = 0.0
    processed_tuples: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.probability <= 1.0:
            raise SamplingError(
                f"stationary probability must be in (0, 1], "
                f"got {self.probability}"
            )

    @property
    def ratio(self) -> float:
        """The single-peer estimate ``y(s) / prob(s)``."""
        return self.value / self.probability


def observations_from_replies(
    replies: Iterable[AggregateReply],
    num_edges: int,
    num_peers: int = 0,
    variant: str = "simple",
) -> List[PeerObservation]:
    """Convert wire replies into observations.

    The sink knows ``|E|`` (a pre-processing output the paper assumes
    all peers share) and each reply carries ``deg(s)``, so
    ``prob(s) = deg(s) / 2|E|`` — or the self-inclusive variant
    ``(deg(s)+1) / (2|E| + M)``, or the exactly-uniform ``1/M`` of the
    Metropolis–Hastings walk; the latter two need ``num_peers``.
    """
    if num_edges <= 0:
        raise SamplingError("num_edges must be positive")
    observations = []
    for reply in replies:
        if variant == "self-inclusive":
            if num_peers <= 0:
                raise SamplingError(
                    "self-inclusive variant needs num_peers"
                )
            probability = (reply.degree + 1.0) / (2.0 * num_edges + num_peers)
        elif variant == "metropolis-uniform":
            if num_peers <= 0:
                raise SamplingError(
                    "metropolis-uniform variant needs num_peers"
                )
            probability = 1.0 / num_peers
        else:
            probability = reply.degree / (2.0 * num_edges)
        observations.append(
            PeerObservation(
                peer_id=reply.source,
                value=reply.aggregate_value,
                probability=probability,
                matching_count=reply.matching_count,
                column_total=reply.column_total,
                local_tuples=reply.local_tuples,
                contribution_variance=reply.contribution_variance,
                processed_tuples=reply.processed_tuples,
            )
        )
    return observations


def _ratios(
    observations: Sequence[PeerObservation], field: str = "value"
) -> np.ndarray:
    """The single-peer estimates ``y(s) / prob(s)``, with ``y(s)`` read
    from ``field`` — Equation 1 applies to any per-peer quantity an
    observation carries, so estimating another one is picking its
    field, not copying the sample."""
    if not observations:
        raise SamplingError("estimator needs at least one observation")
    return np.asarray(
        [getattr(obs, field) / obs.probability for obs in observations],
        dtype=float,
    )


def horvitz_thompson(
    observations: Sequence[PeerObservation], field: str = "value"
) -> float:
    """Equation 1: ``y'' = avg(y(s) / prob(s))``, ``y(s)`` being the
    observations' ``field``."""
    return float(_ratios(observations, field).mean())


def hajek_estimate(
    observations: Sequence[PeerObservation],
    num_peers: int,
    field: str = "value",
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
    ratios = _ratios(observations, field)
    weights = np.asarray(
        [1.0 / obs.probability for obs in observations], dtype=float
    )
    return float(num_peers * ratios.sum() / weights.sum())


def hajek_variance(
    observations: Sequence[PeerObservation], num_peers: int
) -> float:
    """Delete-one jackknife variance of :func:`hajek_estimate`.

    Vectorized leave-one-out over the two sums, so it costs O(m).
    Needs at least two observations.
    """
    if num_peers <= 0:
        raise SamplingError("num_peers must be positive")
    ratios = _ratios(observations)
    if ratios.size < 2:
        raise SamplingError("variance estimation needs >= 2 observations")
    weights = np.asarray(
        [1.0 / obs.probability for obs in observations], dtype=float
    )
    ratio_sum = ratios.sum()
    weight_sum = weights.sum()
    leave_one_out = (
        num_peers * (ratio_sum - ratios) / (weight_sum - weights)
    )
    m = ratios.size
    mean_loo = leave_one_out.mean()
    return float((m - 1) / m * np.sum((leave_one_out - mean_loo) ** 2))


def make_estimator(
    name: str, num_peers: int = 0
) -> Tuple[
    Callable[..., float],
    Callable[[Sequence["PeerObservation"]], float],
]:
    """Estimator factory: ``"ht"`` (the paper's Equation 1) or
    ``"hajek"`` (self-normalized; needs ``num_peers``).

    Returns ``(point_estimator, variance_estimator)`` — both callables
    over a sequence of observations; the point estimator also takes
    ``field=`` to estimate the total of another per-peer quantity
    (``"matching_count"``, ``"local_tuples"``, ``"column_total"``).
    """
    if name == "ht":
        return horvitz_thompson, ht_variance
    if name == "hajek":
        if num_peers <= 0:
            raise SamplingError("hajek estimator needs num_peers")

        def point(
            observations: Sequence[PeerObservation], field: str = "value"
        ) -> float:
            return hajek_estimate(observations, num_peers, field)

        def variance(observations: Sequence[PeerObservation]) -> float:
            return hajek_variance(observations, num_peers)

        return point, variance
    raise SamplingError(
        f"unknown estimator {name!r}; expected 'ht' or 'hajek'"
    )


def ht_variance(observations: Sequence[PeerObservation]) -> float:
    """Plug-in estimate of ``Var[y''] = C/m`` from the sample itself.

    The sample variance of the ratios estimates ``C`` (see
    :func:`clustering_badness_estimate`); dividing by ``m`` gives the
    variance of their mean.  Needs at least two observations.
    """
    ratios = _ratios(observations)
    if ratios.size < 2:
        raise SamplingError("variance estimation needs >= 2 observations")
    return float(ratios.var(ddof=1) / ratios.size)


def ht_standard_error(observations: Sequence[PeerObservation]) -> float:
    """Standard error of the estimate (sqrt of :func:`ht_variance`)."""
    return math.sqrt(ht_variance(observations))


def clustering_badness_estimate(
    observations: Sequence[PeerObservation],
) -> float:
    """Estimate ``C`` from a stationary sample.

    Under stationary sampling, ``Var[y(s)/prob(s)] = C`` exactly
    (Theorem 2 with m=1), so the sample variance of the observed
    ratios is an unbiased estimate of ``C``.
    """
    ratios = _ratios(observations)
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


def estimate_total_tuples(observations: Sequence[PeerObservation]) -> float:
    """Estimate N (network-wide tuple count) from a stationary sample.

    Applies Equation 1 with ``y(p) = |local partition of p|``; used to
    normalize COUNT errors when N is not known a priori.
    """
    return horvitz_thompson(observations, field="local_tuples")


def estimate_total_column_sum(
    observations: Sequence[PeerObservation],
) -> float:
    """Estimate the network-wide sum of the aggregated column.

    Applies Equation 1 with ``y(p) = sum of the column at p`` (the
    ``column_total`` the visit reply carries); normalizes SUM errors.
    """
    return horvitz_thompson(observations, field="column_total")
