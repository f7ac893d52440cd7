"""Median and quantile estimation over the P2P network (paper §5.6).

Medians cannot be pushed down (a median of medians is not the median),
so the paper ships per-peer *local medians* to the sink and combines
them with stationary-probability weights:

1. select ``m`` peers by random walk;
2. each peer returns its local median ``med_j`` and ``prob(s_j)``;
3. the sink randomly splits the medians into two groups;
4. ``med_g1`` = weighted median of group 1 (weights ``1/prob(s_j)``),
   i.e. the value minimizing the imbalance between weight below and
   weight above — the quantity in step 4 of the paper's pseudocode;
5. the rank error ``c`` is how far ``med_g1`` sits from the weighted
   middle of group 2 — a cross-validated, observable stand-in for the
   unknown true rank error;
6. phase II visits ``(m/2) · (c / Δreq)²`` additional peers (the same
   Theorem-2/3 inversion as for COUNT, with rank fractions playing the
   role of the normalized error);
7. the weighted median of the new peers' medians is returned.

Quantiles generalize the same machinery by replacing the 1/2 weight
fraction with an arbitrary ``q``.
"""

from __future__ import annotations

import math
from typing import Generator, Optional, Tuple

import numpy as np

from .._util import weighted_median
from ..errors import ConfigurationError, SamplingError
from ..metrics.cost import CostLedger
from ..network.protocol import ValueSample
from ..network.visits import ValueVisits
from ..query.model import AggregateOp, AggregationQuery
from .result import MedianResult
from .two_phase import (
    CachedPlan,
    PhaseConfig,
    StepCheckpoint,
    _PhasedEngine,
    _Run,
)


__all__ = [
    "MedianConfig",
    "weighted_rank_fraction",
    "MedianEngine",
]


#: The median engine's configuration is the one every two-phase engine
#: takes (``tuples_per_peer`` is the sub-sampling budget for computing
#: local medians, ``cross_validation_rounds`` the random group splits
#: averaged in step 5, and ``pool_phases=False`` the paper's literal
#: step 7); the name stays for the public API.
MedianConfig = PhaseConfig


def weighted_rank_fraction(
    values: np.ndarray, weights: np.ndarray, pivot: float
) -> float:
    """Weighted rank of ``pivot``: weight below plus half the weight
    tied at ``pivot``, as a fraction of the total.

    The half-tie convention matters: attribute domains are small (the
    paper's data has 100 distinct values), so local medians tie
    heavily — counting ties as zero would report a spurious 0.5 rank
    displacement on perfectly homogeneous data.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    total = float(weights.sum())
    if total <= 0:
        raise SamplingError("weights must have positive total")
    below = float(weights[values < pivot].sum())
    tied = float(weights[values == pivot].sum())
    return (below + 0.5 * tied) / total


def _medians(sample: ValueSample) -> ValueSample:
    """The rows that shipped a local median (a peer with no matching
    tuple ships none)."""
    return sample.take(np.flatnonzero(sample["shipped"]))


class MedianEngine(
    _PhasedEngine[PhaseConfig, AggregationQuery, MedianResult]
):
    """Answers MEDIAN/QUANTILE queries over a simulator.

    :meth:`execute` reads ``delta_req`` on the paper's scale: the
    returned value's true rank should be within ``delta_req * N`` of
    the target rank.  Each phase's estimate is the weighted quantile of
    its local medians; phase II is sized by the rank-error
    cross-validation (steps 3–6).
    """

    _name = "median"
    _default_config = PhaseConfig

    @staticmethod
    def _weighted_median_of(medians: ValueSample, fraction: float) -> float:
        if not len(medians):
            raise SamplingError("no medians collected; empty selection?")
        return weighted_median(
            medians.values, 1.0 / medians["probability"], fraction=fraction
        )

    def _cross_validated_rank_error(
        self, medians: ValueSample, fraction: float,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Steps 3–5, averaged over several random splits.

        Each round splits the medians into two halves, takes the
        weighted quantile of group 1, and measures how far (in weight
        fraction) it sits from the target fraction within group 2.
        Returns the RMS of those displacements.
        """
        values, weights = medians.values, 1.0 / medians["probability"]

        def squared_displacement(
            group1: np.ndarray, group2: np.ndarray
        ) -> float:
            med_g1 = weighted_median(
                values[group1], weights[group1], fraction=fraction
            )
            return (
                weighted_rank_fraction(values[group2], weights[group2], med_g1)
                - fraction
            ) ** 2

        return math.sqrt(
            self._cross_validate(len(medians), squared_displacement, rng)
        )

    # ------------------------------------------------------------------
    # The strategy
    # ------------------------------------------------------------------

    def _check(self, query: AggregationQuery) -> None:
        if query.agg not in (AggregateOp.MEDIAN, AggregateOp.QUANTILE):
            raise ConfigurationError(
                f"MedianEngine answers MEDIAN/QUANTILE, not {query.agg.value}"
            )

    def _collect(
        self, sink: int, query: AggregationQuery, count: int,
        ledger: CostLedger, chunk_peers: Optional[int], phase: str,
    ) -> Generator[StepCheckpoint, None, ValueSample]:
        """Steps 1–2: each visited peer ships its local median, as one
        :class:`ValueSample` with stationary probabilities attached."""
        sample = yield from self._walk_and_visit(
            count, ledger, chunk_peers, phase, query.to_sql(),
            ValueVisits(
                self._simulator, query, sink, self._config.tuples_per_peer,
                seed=self._visit_rng,
            ),
        )
        return self._reweigh(sample)

    def _phase_estimate(
        self, query: AggregationQuery, sample: ValueSample
    ) -> Optional[float]:
        medians = _medians(sample)
        if not len(medians):
            return None
        return self._weighted_median_of(medians, query.quantile_fraction)

    def _answers(self, sample: ValueSample) -> bool:
        """A sample with no local median cannot be answered from."""
        return bool(sample["shipped"].any())

    def _analyze(
        self, query: AggregationQuery, sample: ValueSample, delta_req: float,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[int, CachedPlan, None]:
        medians = _medians(sample)
        rank_error = self._cross_validated_rank_error(
            medians, query.quantile_fraction, rng
        )
        # Step 6: m' = (m/2) · (c / Δreq)², the same cross-validation
        # inversion as the COUNT planner with rank fractions as the
        # error scale.
        additional = int(
            math.ceil(len(medians) // 2 * (rank_error / delta_req) ** 2)
        )
        cap = self._config.max_phase_two_peers
        if cap is not None:
            additional = min(additional, cap)
        return (
            additional, CachedPlan(rank_error**2, len(medians) // 2), None
        )

    def _result(self, run: _Run[ValueSample]) -> MedianResult:
        return MedianResult(
            query=run.query,
            estimate=self._weighted_median_of(
                _medians(run.final), run.query.quantile_fraction
            ),
            delta_req=run.delta_req,
            rank_error_estimate=run.error,
            phase_one=run.phase_one,
            phase_two=run.phase_two,
            cost=run.cost,
            requested_sample_size=run.requested,
            effective_sample_size=run.received,
            degraded=run.degraded,
            timing=run.timing,
        )
