"""Histogram and distinct-value estimation over the P2P network.

The paper lists "medians, quantiles, histograms, and distinct values"
as the statistics beyond SUM/COUNT (§1) and notes that their cost model
is more complex because "the aggregation operator usually cannot be
pushed to the peers" (§3.2); it presents the median (§5.6) and leaves
the others as ongoing work.  This module completes the set with the
same two-phase, cross-validated machinery:

**Histograms.**  Visited peers ship a raw value sub-sample plus their
partition size; the sink scales each peer's sampled bucket counts to
per-peer bucket aggregates and applies Equation 1 per bucket.  The
cross-validation error is the total-variation distance between the
half-sample histograms (normalized by the estimated N), the
histogram analogue of the scalar CVError — this mirrors the
cross-validated histogram construction of Chaudhuri, Das & Srivastava
[9] that the paper cites as its inspiration.

**Distinct values.**  From the same shipped samples the sink counts the
distinct values observed (a lower bound) and applies the Chao1
abundance estimator ``D = d_obs + f1^2 / (2 f2)`` (``f1``/``f2`` =
values seen exactly once/twice) to correct for unseen values.  Distinct
counting from samples is fundamentally hard (Charikar et al. [5], cited
by the paper), so the result carries both the bound and the corrected
estimate.
"""

from __future__ import annotations

import dataclasses
from typing import Generator, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..metrics.cost import CostLedger, QueryCost
from ..network.protocol import ValueSample
from ..query.model import (
    AggregateOp,
    AggregationQuery,
    Predicate,
    TruePredicate,
)
from .result import PhaseReport
from .two_phase import (
    CachedPlan,
    PhaseConfig,
    StepCheckpoint,
    _PhasedEngine,
    _Run,
)


__all__ = [
    "StatisticsConfig",
    "HistogramResult",
    "DistinctResult",
    "StatisticsEngine",
]


@dataclasses.dataclass(frozen=True)
class StatisticsConfig(PhaseConfig):
    """The configuration every two-phase engine takes, with a larger
    default ``tuples_per_peer`` for the histogram/distinct engines —
    here it also bounds the reply payload, which is the real bandwidth
    cost of these aggregates.
    """

    tuples_per_peer: int = 50


@dataclasses.dataclass(frozen=True)
class HistogramResult:
    """An estimated equi-width histogram.

    Attributes
    ----------
    edges:
        Bucket edges, length ``num_buckets + 1``.
    counts:
        Estimated tuple count per bucket.
    total_estimate:
        Estimated number of matching tuples (sum of counts).
    """

    edges: np.ndarray
    counts: np.ndarray
    total_estimate: float
    delta_req: float
    phase_one: PhaseReport
    phase_two: Optional[PhaseReport]
    cost: QueryCost

    @property
    def num_buckets(self) -> int:
        """Number of buckets."""
        return int(self.counts.size)

    def normalized(self) -> np.ndarray:
        """Bucket fractions (sum to 1 when any tuples matched)."""
        total = float(self.counts.sum())
        if total <= 0:
            return np.zeros_like(self.counts)
        return self.counts / total

    def total_variation_distance(self, reference: np.ndarray) -> float:
        """TV distance between this histogram and reference counts,
        both normalized — the metric the engine's Δreq is read in."""
        reference = np.asarray(reference, dtype=float)
        if reference.shape != self.counts.shape:
            raise ConfigurationError("reference shape mismatch")
        ref_total = reference.sum()
        if ref_total <= 0:
            raise ConfigurationError("reference histogram is empty")
        return 0.5 * float(
            np.abs(self.normalized() - reference / ref_total).sum()
        )


@dataclasses.dataclass(frozen=True)
class DistinctResult:
    """An estimated distinct-value count.

    Attributes
    ----------
    observed:
        Distinct values actually seen in the sample — a lower bound.
    chao1:
        Chao1 abundance-corrected estimate (>= observed).
    singletons, doubletons:
        The frequency-of-frequency statistics behind Chao1.
    """

    observed: int
    chao1: float
    singletons: int
    doubletons: int
    phase_one: PhaseReport
    cost: QueryCost


def _bucket_terms(sample: ValueSample, edges: np.ndarray) -> np.ndarray:
    """Each row's scaled bucket counts ``y_b(s)`` over its ``prob(s)``;
    a row's counts are ``np.histogram(its values, bins=edges)``'s."""
    num_buckets = edges.size - 1
    buckets = np.searchsorted(edges, sample.values, side="right") - 1
    buckets[sample.values == edges[-1]] = num_buckets - 1
    inside = (buckets >= 0) & (buckets < num_buckets)
    rows = np.repeat(np.arange(len(sample)), sample["shipped"])
    counts = np.bincount(
        rows[inside] * num_buckets + buckets[inside],
        minlength=len(sample) * num_buckets,
    ).reshape(len(sample), num_buckets)
    processed = sample["processed_tuples"]
    scale = np.zeros(len(sample))
    np.divide(sample["local_tuples"], processed, out=scale, where=processed > 0)
    return counts * scale[:, None] * (1.0 / sample["probability"])[:, None]


def _histogram_estimate(terms: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Hájek per-bucket mean of these rows' terms and weights, both
    summed in row order (the caller scales by the number of peers)."""
    return np.add.accumulate(terms)[-1] / np.add.accumulate(weights)[-1]


def _values_query(
    column: str, predicate: Optional[Predicate]
) -> AggregationQuery:
    """The query a histogram or distinct count ships ``column`` for."""
    return AggregationQuery(
        agg=AggregateOp.MEDIAN, column=column,
        predicate=predicate or TruePredicate(),
    )


@dataclasses.dataclass(frozen=True)
class _Histogram:
    """What :meth:`StatisticsEngine.histogram` runs the loop for:
    ``values`` ships the column's matching values."""

    values: AggregationQuery
    num_buckets: int
    value_range: Optional[Tuple[float, float]]

    def __post_init__(self) -> None:
        if self.num_buckets < 1:
            raise ConfigurationError("num_buckets must be >= 1")
        if self.value_range is not None and not (
            self.value_range[0] < self.value_range[1]
        ):
            raise ConfigurationError("value_range must be increasing")


class StatisticsEngine(
    _PhasedEngine[PhaseConfig, _Histogram, HistogramResult]
):
    """Histogram and distinct-value estimation engines (see module
    docstring).

    A histogram runs the two-phase loop on raw value samples: per-bucket
    Hájek estimates, phase II sized by the TV cross-validation.
    """

    _name = "histogram"
    _default_config = StatisticsConfig

    # ------------------------------------------------------------------
    # Histogram
    # ------------------------------------------------------------------

    def histogram(
        self,
        column: str,
        num_buckets: int = 10,
        value_range: Optional[Tuple[float, float]] = None,
        predicate: Optional[Predicate] = None,
        delta_req: float = 0.1,
        sink: Optional[int] = None,
    ) -> HistogramResult:
        """Estimate an equi-width histogram of ``column``.

        ``delta_req`` is read as a bound on the total-variation
        distance between the estimated and true (normalized)
        histograms, cross-validated exactly like the scalar case.
        """
        query = _Histogram(
            _values_query(column, predicate), num_buckets, value_range
        )
        return self.execute(query, delta_req, sink=sink)

    def _collect(
        self, sink: int, query: _Histogram, count: int, ledger: CostLedger,
        chunk_peers: Optional[int], phase: str,
    ) -> Generator[StepCheckpoint, None, ValueSample]:
        return self._collect_values(
            sink, query.values, count, ledger, chunk_peers, phase,
            "sample", f"HISTOGRAM({query.values.column})",
        )

    def _signature(self, query: _Histogram) -> str:
        values, buckets = query.values.to_sql(), query.num_buckets
        return f"{values} AS HISTOGRAM({buckets}, {query.value_range})"

    def _analyze(
        self, query: _Histogram, sample: ValueSample, delta_req: float,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[int, CachedPlan, np.ndarray]:
        observed = sample.values if sample.values.size else np.zeros(1)
        low, high = query.value_range or (
            float(observed.min()), float(observed.max())
        )
        if low == high:  # one observed value (a given range increases)
            high = low + 1.0
        edges = np.linspace(low, high + 1e-9, query.num_buckets + 1)
        terms = _bucket_terms(sample, edges)
        weights = 1.0 / sample["probability"]
        additional, plan = self._tv_plan(
            len(sample),
            lambda rows: _histogram_estimate(terms[rows], weights[rows]),
            delta_req, rng,
        )
        return additional, plan, edges

    def _result(self, run: _Run[ValueSample]) -> HistogramResult:
        mean_bucket = _histogram_estimate(
            _bucket_terms(run.final, run.plan),
            1.0 / run.final["probability"],
        )
        counts = mean_bucket * self._simulator.num_peers  # Hájek scale
        return HistogramResult(
            edges=run.plan,
            counts=counts,
            total_estimate=float(counts.sum()),
            delta_req=run.delta_req,
            phase_one=run.phase_one,
            phase_two=run.phase_two,
            cost=run.cost,
        )

    # ------------------------------------------------------------------
    # Distinct values
    # ------------------------------------------------------------------

    def distinct_values(
        self,
        column: str,
        predicate: Optional[Predicate] = None,
        sink: Optional[int] = None,
    ) -> DistinctResult:
        """Estimate the number of distinct values of ``column``.

        Returns both the observed distinct count (a certain lower
        bound) and the Chao1 correction.  No phase II: distinct-value
        error cannot be cross-validated into a sample-size formula the
        way linear aggregates can (see Charikar et al. [5] for the
        lower bounds), so the engine reports the best estimate the
        budgeted sample supports.
        """
        # A distinct count reads what a histogram's phase I ships.
        sample, ledger = self._phase_one_only(
            _Histogram(_values_query(column, predicate), 1, None), sink
        )
        unique, counts = np.unique(sample.values, return_counts=True)
        observed = int(unique.size)
        singletons = int(np.count_nonzero(counts == 1))
        doubletons = int(np.count_nonzero(counts == 2))
        if doubletons > 0:
            chao1 = observed + singletons**2 / (2.0 * doubletons)
        elif singletons > 0:
            # Bias-corrected Chao1 when no doubletons exist.
            chao1 = observed + singletons * (singletons - 1) / 2.0
        else:
            chao1 = float(observed)
        cost = ledger.snapshot()
        return DistinctResult(
            observed=observed,
            chao1=float(chao1),
            singletons=singletons,
            doubletons=doubletons,
            phase_one=PhaseReport.of_sample(sample, cost.hops),
            cost=cost,
        )
