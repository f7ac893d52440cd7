"""Result objects returned by the approximate query engines."""

from __future__ import annotations

import dataclasses
from typing import Any, Optional, Protocol, Sequence, Type, TypeVar

from numpy.typing import NDArray

from ..metrics.cost import QueryCost
from ..query.model import AggregationQuery
from ..sim.timing import QueryTiming
from .confidence import ConfidenceInterval


__all__ = [
    "PhaseReport",
    "ApproximateResult",
    "MedianResult",
]


_T = TypeVar("_T")


class _Sample(Protocol):
    """A phase's replies as the two-phase loop reads them: how many
    arrived, a column of theirs, and how two collections join."""

    def __len__(self) -> int: ...

    def __getitem__(self, column: str) -> "NDArray[Any]": ...

    @classmethod
    def concat(cls: Type[_T], samples: Sequence[_T]) -> _T: ...


@dataclasses.dataclass(frozen=True)
class PhaseReport:
    """What one phase of the algorithm did.

    Attributes
    ----------
    peers_visited:
        Number of peer visits the phase performed.
    tuples_sampled:
        Tuples pulled into local aggregation across those visits.
    hops:
        Walk hops the phase spent (cost driver of the walk).
    estimate:
        The estimate computable from this phase's sample alone.
    """

    peers_visited: int
    tuples_sampled: int
    hops: int
    estimate: Optional[float] = None

    @classmethod
    def of_sample(
        cls,
        sample: _Sample,
        hops: int,
        estimate: Optional[float] = None,
    ) -> "PhaseReport":
        """The report of a phase whose visits returned ``sample``."""
        return cls(
            len(sample), int(sample["processed_tuples"].sum()), hops, estimate
        )


@dataclasses.dataclass(frozen=True)
class ApproximateResult:
    """The answer to an approximate COUNT/SUM/AVG query.

    Attributes
    ----------
    query:
        The query answered.
    estimate:
        The final estimate (phase II per the paper; pooled if the
        engine was configured to combine phases).
    delta_req:
        The requested accuracy on the normalized scale.
    scale:
        The normalization scale used to interpret ``delta_req``.
    confidence_interval:
        CLT interval around the estimate.
    phase_one, phase_two:
        Per-phase execution reports (``phase_two`` is None when phase
        I already met the requirement).
    cost:
        Full cost snapshot of the execution.
    requested_sample_size, effective_sample_size:
        How many peer observations the engine planned for versus how
        many actually arrived.  Under fault injection (crashes, lost
        replies, probe timeouts) the effective size can fall short,
        widening the real uncertainty beyond what the plan assumed.
    degraded:
        True when ``effective_sample_size < requested_sample_size`` —
        the estimate is still unbiased but the confidence interval
        was built from fewer observations than requested.  Zero for
        both sizes (legacy constructors) leaves this False.
    timing:
        Virtual-time execution report when the query ran on an
        event-driven simulator with time armed; ``None`` on the
        synchronous simulator (and in zero-latency passthrough, which
        keeps results bit-identical across execution modes).
    """

    query: AggregationQuery
    estimate: float
    delta_req: float
    scale: float
    confidence_interval: ConfidenceInterval
    phase_one: PhaseReport
    phase_two: Optional[PhaseReport]
    cost: QueryCost
    analysis: Optional[object] = None  # PhaseOneAnalysis when available
    requested_sample_size: int = 0
    effective_sample_size: int = 0
    degraded: bool = False
    timing: Optional[QueryTiming] = None

    @property
    def total_peers_visited(self) -> int:
        """Peer visits across both phases."""
        total = self.phase_one.peers_visited
        if self.phase_two is not None:
            total += self.phase_two.peers_visited
        return total

    @property
    def total_tuples_sampled(self) -> int:
        """Tuples sampled across both phases (the paper's surrogate
        for latency in the experimental section)."""
        total = self.phase_one.tuples_sampled
        if self.phase_two is not None:
            total += self.phase_two.tuples_sampled
        return total

    def normalized_error(self, truth: float) -> float:
        """Error vs a known ground truth, on the ``delta_req`` scale."""
        return abs(self.estimate - truth) / self.scale

    @property
    def accuracy_at_risk(self) -> bool:
        """True when the phase-II cost cap truncated the plan: the
        requirement may not be met (check the confidence interval)."""
        plan = getattr(self.analysis, "plan", None)
        return bool(plan is not None and plan.capped)

    def __str__(self) -> str:
        return (
            f"{self.query} ≈ {self.estimate:.6g} "
            f"[{self.confidence_interval}] "
            f"(visited {self.total_peers_visited} peers, "
            f"{self.total_tuples_sampled} tuples)"
        )


@dataclasses.dataclass(frozen=True)
class MedianResult:
    """The answer to an approximate MEDIAN/QUANTILE query.

    Attributes
    ----------
    estimate:
        The returned value from the aggregated column's domain.
    rank_error_estimate:
        The cross-validated rank-error coefficient ``c`` measured in
        phase I (drives the phase-II size).
    requested_sample_size, effective_sample_size:
        Planned versus received peer observations (see
        :class:`ApproximateResult`).
    degraded:
        True when faults shrank the sample below what was requested.
    timing:
        Virtual-time execution report (see :class:`ApproximateResult`).
    """

    query: AggregationQuery
    estimate: float
    delta_req: float
    rank_error_estimate: float
    phase_one: PhaseReport
    phase_two: Optional[PhaseReport]
    cost: QueryCost
    requested_sample_size: int = 0
    effective_sample_size: int = 0
    degraded: bool = False
    timing: Optional[QueryTiming] = None

    @property
    def total_peers_visited(self) -> int:
        """Peer visits across both phases."""
        total = self.phase_one.peers_visited
        if self.phase_two is not None:
            total += self.phase_two.peers_visited
        return total

    @property
    def total_tuples_sampled(self) -> int:
        """Tuples sampled across both phases."""
        total = self.phase_one.tuples_sampled
        if self.phase_two is not None:
            total += self.phase_two.tuples_sampled
        return total

    def __str__(self) -> str:
        return (
            f"{self.query} ≈ {self.estimate:.6g} "
            f"(visited {self.total_peers_visited} peers)"
        )
