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
import math
from typing import Optional, Tuple

import numpy as np

from .._util import SeedLike
from ..errors import ConfigurationError, SamplingError
from ..metrics.cost import CostLedger, QueryCost
from ..network.protocol import ValueSample
from ..network.simulator import NetworkSimulator
from ..network.walker import RandomWalkConfig
from ..query.model import (
    AggregateOp,
    AggregationQuery,
    Predicate,
    TruePredicate,
)
from .median import _ValuesEngine
from .result import PhaseReport


__all__ = [
    "StatisticsConfig",
    "HistogramResult",
    "DistinctResult",
    "StatisticsEngine",
]


@dataclasses.dataclass(frozen=True)
class StatisticsConfig:
    """Tunables shared by the histogram/distinct engines.

    Mirrors :class:`~repro.core.two_phase.TwoPhaseConfig`; the
    ``tuples_per_peer`` budget here also bounds the reply payload,
    which is the real bandwidth cost of these aggregates.
    """

    phase_one_peers: int = 40
    tuples_per_peer: int = 50
    jump: int = 10
    walk_variant: str = "simple"
    burn_in: Optional[int] = None
    cross_validation_rounds: int = 5
    max_phase_two_peers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.phase_one_peers < 4:
            raise ConfigurationError("phase_one_peers must be >= 4")
        if self.tuples_per_peer < 0:
            raise ConfigurationError("tuples_per_peer must be >= 0")
        if self.cross_validation_rounds < 1:
            raise ConfigurationError("cross_validation_rounds must be >= 1")
        if self.max_phase_two_peers is not None and self.max_phase_two_peers < 0:
            raise ConfigurationError("max_phase_two_peers must be >= 0")

    def walk_config(self) -> RandomWalkConfig:
        """The walk configuration this config implies."""
        return RandomWalkConfig(
            jump=self.jump, burn_in=self.burn_in, variant=self.walk_variant
        )


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


class StatisticsEngine(_ValuesEngine[StatisticsConfig]):
    """Histogram and distinct-value estimation engines (see module
    docstring)."""

    def __init__(
        self,
        simulator: NetworkSimulator,
        config: Optional[StatisticsConfig] = None,
        seed: SeedLike = None,
    ):
        super().__init__(simulator, config or StatisticsConfig(), seed)

    def _collect_values(
        self, sink: int, column: str, predicate: Predicate, count: int,
        ledger: CostLedger,
    ) -> Tuple[ValueSample, int]:
        """Walk and gather raw value samples of ``column``."""
        query = AggregationQuery(
            agg=AggregateOp.MEDIAN, column=column, predicate=predicate
        )
        return self._collect(
            sink, query, count, ledger, "sample", f"HISTOGRAM({column})"
        )

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
        if num_buckets < 1:
            raise ConfigurationError("num_buckets must be >= 1")
        if not 0.0 < delta_req <= 1.0:
            raise SamplingError(f"delta_req must be in (0, 1], got {delta_req}")
        predicate = predicate or TruePredicate()
        if sink is None:
            sink = int(self._rng.integers(self._simulator.num_peers))
        ledger = self._simulator.new_ledger()

        sample_one, hops_one = self._collect_values(
            sink, column, predicate, self._config.phase_one_peers, ledger
        )
        if value_range is None:
            observed = sample_one.values
            if not observed.size:
                observed = np.zeros(1)
            low, high = float(observed.min()), float(observed.max())
            if low == high:
                high = low + 1.0
        else:
            low, high = value_range
            if not low < high:
                raise ConfigurationError("value_range must be increasing")
        edges = np.linspace(low, high + 1e-9, num_buckets + 1)

        # Cross-validate: TV distance between half-sample histograms.
        m = len(sample_one)
        if m < 4:
            raise SamplingError("histogram needs >= 4 phase-I peers")
        terms = _bucket_terms(sample_one, edges)
        weights = 1.0 / sample_one["probability"]
        half = m // 2
        squared_errors = []
        indices = np.arange(m)
        for _ in range(self._config.cross_validation_rounds):
            order = self._rng.permutation(indices)
            first, second = order[:half], order[half: 2 * half]
            hist_one = _histogram_estimate(terms[first], weights[first])
            hist_two = _histogram_estimate(terms[second], weights[second])
            total_one = hist_one.sum()
            total_two = hist_two.sum()
            if total_one <= 0 or total_two <= 0:
                squared_errors.append(1.0)
                continue
            tv = 0.5 * float(
                np.abs(hist_one / total_one - hist_two / total_two).sum()
            )
            squared_errors.append(tv**2)
        cv_squared = float(np.mean(squared_errors))

        additional = 0
        m_prime = half * cv_squared / delta_req**2
        if m_prime >= 1.0:
            additional = int(math.ceil(m_prime))
            if self._config.max_phase_two_peers is not None:
                additional = min(
                    additional, self._config.max_phase_two_peers
                )

        phase_one = PhaseReport.of_sample(sample_one, hops_one)
        phase_two: Optional[PhaseReport] = None
        if additional > 0:
            sample_two, hops_two = self._collect_values(
                sink, column, predicate, additional, ledger
            )
            phase_two = PhaseReport.of_sample(sample_two, hops_two)
            terms = np.concatenate([terms, _bucket_terms(sample_two, edges)])
            weights = np.concatenate([weights, 1.0 / sample_two["probability"]])

        mean_bucket = _histogram_estimate(terms, weights)
        counts = mean_bucket * self._simulator.num_peers  # Hájek scale
        return HistogramResult(
            edges=edges,
            counts=counts,
            total_estimate=float(counts.sum()),
            delta_req=delta_req,
            phase_one=phase_one,
            phase_two=phase_two,
            cost=ledger.snapshot(),
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
        predicate = predicate or TruePredicate()
        if sink is None:
            sink = int(self._rng.integers(self._simulator.num_peers))
        ledger = self._simulator.new_ledger()
        sample, hops = self._collect_values(
            sink, column, predicate, self._config.phase_one_peers, ledger
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
        return DistinctResult(
            observed=observed,
            chao1=float(chao1),
            singletons=singletons,
            doubletons=doubletons,
            phase_one=PhaseReport.of_sample(sample, hops),
            cost=ledger.snapshot(),
        )
