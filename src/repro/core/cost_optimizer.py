"""Cost-optimal choice of the sub-sampling budget ``t`` (paper §4).

The paper simplifies: it fixes a constant ``t`` "determined at
preprocessing time via experiments" and notes that "the ideal approach
... is to develop a cost model that takes into account cost of
visiting peers as well as local processing costs; and for such cost
models, an ideal two-phase algorithm should determine ... how many
peers to visit in the second phase, and how many tuples to sub-sample
from each visited peer."  This module implements that ideal step.

Variance decomposition
----------------------

With per-peer sub-sampling of ``t`` tuples, the scaled local aggregate
``ŷ(s) = (n_s/t)·Σ z_i`` carries two kinds of noise:

* **between-peer**: ``C_between = Var_π[y(s)/prob(s)]`` — the paper's
  badness, independent of ``t``;
* **within-peer**: ``Var[ŷ(s)|s] ≈ n_s² σ_s² / t`` where ``σ_s²`` is
  the per-tuple contribution variance at peer ``s`` (shipped in the
  visit reply), contributing ``W/t`` with
  ``W = E_π[n_s² σ_s² / prob(s)²]``.

So ``C(t) = C_between + W/t``, and the phase-II size for absolute
error ``Δ`` is ``m'(t) = 2·C(t)/Δ²`` (the planner's conservative
factor included).

Latency model
-------------

Each visited peer costs ``K1 = j·hop_latency + visit_overhead + reply``
(getting there and being served) plus ``K2·t`` (local scan time), so

    latency(t) = m'(t) · (K1 + K2·t)
               ∝ (C_between + W/t) · (K1 + K2·t).

Minimizing over ``t`` gives the closed form

    t* = sqrt( (W · K1) / (C_between · K2) )

— the classic square-root balance between per-visit overhead and
per-tuple work.  Degenerate regimes fall out naturally: perfectly
mixed peers (``C_between → 0``) push ``t*`` up (scan more locally,
visit fewer peers); free visits (``K1 → 0``) push ``t*`` down.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from ..errors import SamplingError
from ..metrics.cost import CostModel
from ..network.protocol import AggregateSample
from .estimators import clustering_badness_estimate


__all__ = [
    "VarianceDecomposition",
    "TupleBudgetPlan",
    "decompose_variance",
    "optimize_tuple_budget",
]


@dataclasses.dataclass(frozen=True)
class VarianceDecomposition:
    """The two variance components estimated from phase I.

    Attributes
    ----------
    between:
        ``C_between`` — badness of the *exact* per-peer aggregates
        (within-peer noise subtracted out).
    within_rate:
        ``W`` — the coefficient of the ``1/t`` within-peer term.
    sampled_at:
        The ``t`` the observations were collected with (0 = full scans,
        in which case the observed badness is already ``C_between``).
    """

    between: float
    within_rate: float
    sampled_at: int

    def badness_at(self, tuples_per_peer: int) -> float:
        """``C(t) = C_between + W/t`` (``t=0`` means full scans)."""
        if tuples_per_peer <= 0:
            return self.between
        return self.between + self.within_rate / tuples_per_peer


@dataclasses.dataclass(frozen=True)
class TupleBudgetPlan:
    """The optimizer's recommendation.

    Attributes
    ----------
    tuples_per_peer:
        The cost-optimal ``t*`` (clamped to ``[1, max_tuples]``).
    peers_to_visit:
        ``m'(t*)`` — predicted sample size at the optimum.
    predicted_latency_ms:
        Predicted total latency of phase II at the optimum.
    decomposition:
        The variance decomposition behind the numbers.
    """

    tuples_per_peer: int
    peers_to_visit: int
    predicted_latency_ms: float
    decomposition: VarianceDecomposition


def decompose_variance(sample: AggregateSample) -> VarianceDecomposition:
    """Estimate ``C_between`` and ``W`` from the phase-I sample.

    The observed ratio variance is ``C_between + (within noise)``; the
    shipped per-peer contribution variances let us subtract the within
    part and extrapolate it to any ``t``:

        observed_within(s) = n_s² σ_s² / t_s    (t_s = processed)
        W-hat  = mean_s [ n_s² σ_s² / prob(s)² ]
        C-hat  = Var_s[ŷ(s)/prob(s)] − mean_s[ observed_within(s)/prob(s)² ]

    clamped at zero (small samples can over-subtract).
    """
    if len(sample) < 2:
        raise SamplingError("variance decomposition needs >= 2 observations")
    observed = clustering_badness_estimate(sample)

    n = sample["local_tuples"].astype(np.float64)
    processed = sample["processed_tuples"]
    prob2 = sample["probability"] ** 2
    within = n * n * sample["contribution_variance"]
    # A full scan (or an empty partition) carries no within noise.
    sub_sampled = (processed > 0) & (processed < sample["local_tuples"])
    within_observed = np.zeros(len(sample))
    np.divide(
        within, processed * prob2, out=within_observed, where=sub_sampled
    )
    return VarianceDecomposition(
        between=max(0.0, observed - float(within_observed.mean())),
        within_rate=float((within / prob2).mean()),
        sampled_at=int(processed[sub_sampled].max(initial=0)),
    )


def optimize_tuple_budget(
    sample: AggregateSample,
    absolute_error: float,
    cost_model: Optional[CostModel] = None,
    jump: int = 10,
    max_tuples: int = 1000,
    reply_bytes: int = 59,
) -> TupleBudgetPlan:
    """Choose the latency-optimal sub-sampling budget ``t*``.

    Parameters
    ----------
    sample:
        The phase-I sample (its replies carry contribution variances).
    absolute_error:
        The target ``Δ`` in estimator units (``Δreq × scale``).
    cost_model:
        Unit costs; defaults to the simulator's defaults.
    jump:
        Walk jump size — each visit costs ``jump`` hops of latency.
    max_tuples:
        Upper clamp for ``t*`` (e.g. the typical partition size:
        sampling more than a peer holds is meaningless).
    reply_bytes:
        Reply payload size for the transfer term of ``K1``.
    """
    if absolute_error <= 0:
        raise SamplingError("absolute_error must be positive")
    if max_tuples < 1:
        raise SamplingError("max_tuples must be >= 1")
    model = cost_model or CostModel()
    decomposition = decompose_variance(sample)

    per_visit = (
        jump * model.hop_latency_ms
        + model.visit_overhead_ms
        + reply_bytes * model.byte_latency_ms
    )
    per_tuple = model.tuple_processing_ms

    if decomposition.within_rate <= 0:
        # No within-peer noise: any t works; scan cheaply.
        t_star = 1
    elif decomposition.between <= 0 or per_tuple <= 0:
        t_star = max_tuples
    else:
        t_star = math.sqrt(
            decomposition.within_rate
            * per_visit
            / (decomposition.between * per_tuple)
        )
        t_star = int(min(max(1.0, t_star), float(max_tuples)))
    t_star = int(min(max(1, t_star), max_tuples))

    badness = decomposition.badness_at(t_star)
    peers = max(1, math.ceil(2.0 * badness / absolute_error**2))
    latency = peers * (per_visit + per_tuple * t_star)
    return TupleBudgetPlan(
        tuples_per_peer=t_star,
        peers_to_visit=peers,
        predicted_latency_ms=float(latency),
        decomposition=decomposition,
    )
