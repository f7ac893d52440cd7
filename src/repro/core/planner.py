"""Phase-I analysis and phase-II planning (paper §3.4, §4).

Phase I "sniffs" the network; this module is the sink-side analysis
that turns the phase-I observations into an optimal-cost "query plan"
for phase II:

    m' = (m/2) · (CVError / Δ)²

where ``Δ`` is the required error *in absolute units* — the paper's
``Δreq`` is specified on the normalized scale (COUNT errors are read
relative to N, SUM errors relative to the total column sum), so the
planner first estimates that scale from the same phase-I sample.

The planner also reports the theorem-side quantities (estimated
badness ``C``, predicted variance at the planned size) so experiments
and ablations can compare the cross-validation route against the
direct plug-in route ``m' = C / Δ²``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Tuple

import numpy as np

from .._util import SeedLike, check_positive, ensure_rng
from ..errors import SamplingError
from ..network.protocol import AggregateSample
from ..query.model import AggregateOp, AggregationQuery
from .crossval import CrossValidation, cross_validate
from .estimators import (
    EQUATION_ONE,
    PointEstimator,
    clustering_badness_estimate,
    make_estimator,
)


__all__ = [
    "PhaseTwoPlan",
    "PhaseOneAnalysis",
    "estimate_scale",
    "cross_validated_scale",
    "analyze_phase_one",
]


@dataclasses.dataclass(frozen=True)
class PhaseTwoPlan:
    """The phase-I recommendation: how to run phase II.

    Attributes
    ----------
    additional_peers:
        ``m'`` — peers to visit in phase II (0 if phase I already
        satisfies the requirement).
    tuples_per_peer:
        The sub-sampling budget ``t`` to keep using.
    absolute_error_target:
        ``Δ`` in the estimator's units (after de-normalizing Δreq).
    """

    additional_peers: int
    tuples_per_peer: int
    absolute_error_target: float
    capped: bool = False

    @property
    def phase_two_needed(self) -> bool:
        """Whether any phase-II sampling is required."""
        return self.additional_peers > 0

    @property
    def accuracy_at_risk(self) -> bool:
        """True when the cost cap truncated the plan below what the
        cross-validation says the requirement needs."""
        return self.capped


@dataclasses.dataclass(frozen=True)
class PhaseOneAnalysis:
    """Everything the sink learns from phase I.

    Attributes
    ----------
    estimate:
        The phase-I estimate ``y''`` of the query answer.
    scale:
        The normalization scale (estimated N for COUNT, estimated
        total column sum for SUM/AVG) used to read ``Δreq``.
    cross_validation:
        The halving analysis behind the plan.
    badness:
        Sample-variance estimate of the clustering badness ``C``.
    plan:
        The resulting phase-II plan.
    """

    estimate: float
    scale: float
    cross_validation: CrossValidation
    badness: float
    plan: PhaseTwoPlan


def estimate_scale(
    query: AggregationQuery,
    sample: AggregateSample,
    point_estimator: PointEstimator = EQUATION_ONE,
) -> float:
    """The normalization scale for ``Δreq`` under this query.

    COUNT errors are normalized by the total tuple count N; SUM and
    AVG errors by the total column sum — both estimated from the same
    phase-I sample via Equation 1 (the paper assumes network
    parameters like M and \\|E| are known from pre-processing, but data
    volumes change quickly and must be estimated at query time).
    """
    if query.agg is AggregateOp.COUNT:
        field = "local_tuples"
    elif query.agg in (AggregateOp.SUM, AggregateOp.AVG):
        field = "column_total"
    else:
        raise SamplingError(
            f"{query.agg.value} is planned by the median engine"
        )
    scale = point_estimator(sample, field=field)
    if scale <= 0:
        raise SamplingError(
            "could not estimate a positive normalization scale; "
            "phase I saw no data"
        )
    return scale


def cross_validated_scale(
    query: AggregationQuery, sample: AggregateSample, rounds: int,
    rng: np.random.Generator, point_estimator: PointEstimator,
    scale: Optional[float] = None,
) -> Tuple[CrossValidation, float]:
    """What a plan keeps from a phase-I sample: its cross-validation
    (``rounds`` halvings drawn from ``rng``) and the scale ``Δreq`` is
    read on (estimated unless given), both by ``point_estimator``.
    :func:`analyze_phase_one` adds the estimate, the badness and the
    plan on top; a warm plan's refresh keeps these two alone."""
    if scale is None:
        scale = estimate_scale(query, sample, point_estimator)
    check_positive("scale", scale)
    return cross_validate(sample, rounds, rng, point_estimator), scale


def analyze_phase_one(
    query: AggregationQuery,
    sample: AggregateSample,
    delta_req: float,
    tuples_per_peer: int,
    cross_validation_rounds: int = 5,
    max_phase_two_peers: Optional[int] = None,
    scale: Optional[float] = None,
    seed: SeedLike = None,
    estimator: str = "ht",
    num_peers: int = 0,
) -> PhaseOneAnalysis:
    """Run the sink-side phase-I analysis.

    Parameters
    ----------
    query:
        The aggregation query being answered.
    sample:
        The phase-I sample (size ``m``), probabilities attached.
    delta_req:
        Required accuracy on the normalized scale, in (0, 1].
    tuples_per_peer:
        The sub-sampling budget ``t`` (forwarded into the plan).
    cross_validation_rounds:
        Number of random halvings to average over.
    max_phase_two_peers:
        Optional safety cap on ``m'`` (a real deployment would bound
        the query's cost).
    scale:
        Known normalization scale; estimated from phase I if omitted.
    seed:
        Randomness for the halvings.
    estimator:
        ``"ht"`` (the paper's Equation 1, default) or ``"hajek"``
        (self-normalized; needs ``num_peers``).  The cross-validation
        and the scale estimate use the same estimator so the phase-II
        plan is calibrated to what the engine will actually compute.
    num_peers:
        ``M``, required by the Hájek estimator.
    """
    if not 0.0 < delta_req <= 1.0:
        raise SamplingError(
            f"delta_req must be in (0, 1], got {delta_req}"
        )
    rng = ensure_rng(seed)
    point_estimator, _variance = make_estimator(estimator, num_peers)
    estimate = point_estimator(sample)
    cross_validation, scale = cross_validated_scale(
        query, sample, cross_validation_rounds, rng, point_estimator, scale
    )
    badness = clustering_badness_estimate(sample)

    absolute_target = delta_req * scale
    # The paper's formula: m' = (m/2) * (CVError / Δ)².  Using the
    # mean of CVError² across rounds makes it robust, and since
    # E[CVError²] = 2 E[err²] the plan stays conservative.
    m_prime = (
        cross_validation.half_size
        * cross_validation.mean_squared_error
        / (absolute_target**2)
    )
    # Less than one extra peer warranted means phase I already meets
    # the requirement; only then is phase II skipped.
    additional = int(math.ceil(m_prime)) if m_prime >= 1.0 else 0
    capped = False
    if max_phase_two_peers is not None and additional > max_phase_two_peers:
        additional = int(max_phase_two_peers)
        capped = True
    plan = PhaseTwoPlan(
        additional_peers=max(0, additional),
        tuples_per_peer=tuples_per_peer,
        absolute_error_target=absolute_target,
        capped=capped,
    )
    return PhaseOneAnalysis(
        estimate=estimate,
        scale=scale,
        cross_validation=cross_validation,
        badness=badness,
        plan=plan,
    )
