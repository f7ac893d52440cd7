"""The paper's primary contribution: adaptive two-phase sampling AQP.

* :mod:`repro.core.estimators` — the Horvitz–Thompson-style estimator
  ``y'' = avg(y(s) / prob(s))`` and its variance theory (Theorems 1–2);
* :mod:`repro.core.crossval` — the cross-validation machinery that
  estimates the clustering "badness" ``C`` (Theorem 3);
* :mod:`repro.core.planner` — turns a phase-I sample plus a required
  accuracy into a phase-II plan ``m' = (m/2) · (CVError / Δreq)²``;
* :mod:`repro.core.two_phase` — the full COUNT/SUM/AVG engine (§4),
  the one phase I → analysis → phase II loop every engine runs, and
  the plan cache that serves repeat signatures warm (§6);
* :mod:`repro.core.median` — the median/quantile engine (§5.6);
* :mod:`repro.core.confidence` — large-sample confidence intervals;
* :mod:`repro.core.result` — the result objects queries return.
"""

from .estimators import (
    avg_divisor,
    clustering_badness,
    clustering_badness_estimate,
    estimate_query,
    estimate_total_column_sum,
    estimate_total_tuples,
    hajek_estimate,
    hajek_variance,
    horvitz_thompson,
    ht_standard_error,
    ht_variance,
    make_estimator,
    observations_from_replies,
    theoretical_variance,
)
from .statistics import (
    DistinctResult,
    HistogramResult,
    StatisticsConfig,
    StatisticsEngine,
)
from .batch import BatchEngine
from .explain import ExplainReport, explain
from .cost_optimizer import (
    TupleBudgetPlan,
    VarianceDecomposition,
    decompose_variance,
    optimize_tuple_budget,
)
from .groupby import GroupByConfig, GroupByEngine, GroupByResult
from .biased import (
    BiasedConfig,
    BiasedSamplingEngine,
    biased_engine_for_query,
    probe_weights,
)
from .crossval import CrossValidation, cross_validate
from .planner import PhaseOneAnalysis, PhaseTwoPlan, analyze_phase_one
from .result import ApproximateResult, MedianResult, PhaseReport
from .two_phase import (
    CachedPlan,
    PhaseConfig,
    PlanCache,
    StepCheckpoint,
    TwoPhaseConfig,
    TwoPhaseEngine,
    drain_steps,
)
from .median import MedianConfig, MedianEngine
from .confidence import ConfidenceInterval, normal_confidence_interval

__all__ = [
    "observations_from_replies",
    "estimate_query",
    "avg_divisor",
    "clustering_badness_estimate",
    "estimate_total_tuples",
    "estimate_total_column_sum",
    "horvitz_thompson",
    "ht_variance",
    "ht_standard_error",
    "theoretical_variance",
    "clustering_badness",
    "CrossValidation",
    "cross_validate",
    "PhaseOneAnalysis",
    "PhaseTwoPlan",
    "analyze_phase_one",
    "ApproximateResult",
    "MedianResult",
    "PhaseReport",
    "StepCheckpoint",
    "PhaseConfig",
    "TwoPhaseConfig",
    "TwoPhaseEngine",
    "drain_steps",
    "MedianConfig",
    "MedianEngine",
    "ConfidenceInterval",
    "normal_confidence_interval",
    "hajek_estimate",
    "hajek_variance",
    "make_estimator",
    "StatisticsEngine",
    "StatisticsConfig",
    "HistogramResult",
    "DistinctResult",
    "CachedPlan",
    "PlanCache",
    "GroupByEngine",
    "GroupByConfig",
    "GroupByResult",
    "TupleBudgetPlan",
    "VarianceDecomposition",
    "decompose_variance",
    "optimize_tuple_budget",
    "ExplainReport",
    "explain",
    "BatchEngine",
    "BiasedSamplingEngine",
    "BiasedConfig",
    "biased_engine_for_query",
    "probe_weights",
]
