"""GROUP BY aggregation over the P2P network.

``SELECT Agg(Col) FROM T WHERE ... GROUP BY G`` generalizes the
paper's scalar estimation to a vector of per-group aggregates.  Each
visited peer pushes the grouping down — it ships one scaled
``(group, count, sum)`` triple per group present in its processed
tuples (see :class:`~repro.network.protocol.GroupReply`), so bandwidth
scales with the number of groups, not the data.

Estimation applies the Hájek form of Equation 1 *per group* (a group
absent at a peer contributes zero, which the estimator handles
natively), and the cross-validation step mirrors the scalar algorithm
with the total-variation distance between half-sample group vectors as
the error.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..metrics.cost import CostLedger, QueryCost
from ..network.protocol import ValueSample
from ..network.visits import GroupVisits
from ..query.model import AggregateOp, AggregationQuery
from .result import PhaseReport
from .two_phase import (
    CachedPlan,
    PhaseConfig,
    StepCheckpoint,
    _PhasedEngine,
    _Run,
)


__all__ = [
    "GroupByConfig",
    "GroupByResult",
    "GroupByEngine",
]


#: The GROUP BY engine's configuration is the one every two-phase
#: engine takes; the name stays for the public API.
GroupByConfig = PhaseConfig


@dataclasses.dataclass(frozen=True)
class GroupByResult:
    """Estimated per-group aggregates.

    Attributes
    ----------
    groups:
        ``{group value: estimated aggregate}``, sorted iteration order.
    delta_req:
        The requested accuracy (total-variation over the normalized
        group masses for COUNT/SUM).
    """

    query: AggregationQuery
    groups: Dict[float, float]
    delta_req: float
    phase_one: PhaseReport
    phase_two: Optional[PhaseReport]
    cost: QueryCost

    @property
    def num_groups(self) -> int:
        """Number of groups with a nonzero estimate."""
        return len(self.groups)

    @property
    def total(self) -> float:
        """Sum over groups (the scalar answer for COUNT/SUM)."""
        return float(sum(self.groups.values()))

    def top(self, k: int) -> List[Tuple[float, float]]:
        """The ``k`` heaviest groups, largest first.

        Grouping by the value column itself turns this into a
        heavy-hitters query ("which genres dominate the network?").
        """
        if k < 1:
            raise ConfigurationError("k must be >= 1")
        ranked = sorted(
            self.groups.items(), key=lambda item: item[1], reverse=True
        )
        return ranked[:k]

    def total_variation_distance(
        self, reference: Dict[float, float]
    ) -> float:
        """TV distance between normalized group masses — the metric
        ``delta_req`` is read in (COUNT/SUM only)."""
        keys = set(self.groups) | set(reference)
        mine = np.array([self.groups.get(k, 0.0) for k in keys])
        theirs = np.array([reference.get(k, 0.0) for k in keys])
        if mine.sum() <= 0 or theirs.sum() <= 0:
            raise ConfigurationError("cannot compare empty group vectors")
        return 0.5 * float(
            np.abs(mine / mine.sum() - theirs / theirs.sum()).sum()
        )


def _group_terms(
    sample: ValueSample,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The groups ``sample``'s replies saw, ascending, and each reply's
    scaled count and sum of every group over its ``prob(s)`` (a row per
    reply, a column per group; 0 where the reply has no such group)."""
    groups, columns = np.unique(sample.values[:, 0], return_inverse=True)
    rows = np.repeat(np.arange(len(sample)), sample["shipped"])
    counts = np.zeros((len(sample), groups.size))
    sums = np.zeros((len(sample), groups.size))
    counts[rows, columns] = sample.values[:, 1]
    sums[rows, columns] = sample.values[:, 2]
    weights = (1.0 / sample["probability"])[:, None]
    return groups, counts * weights, sums * weights


def _group_totals(
    terms: np.ndarray, sample: ValueSample, rows: np.ndarray, num_peers: int
) -> np.ndarray:
    """Hájek per-group estimates from the ``rows``' terms, each summed
    in row order."""
    weights = 1.0 / sample["probability"][rows]
    totals: np.ndarray = np.add.accumulate(terms[rows])[-1] * (
        num_peers / np.add.accumulate(weights)[-1]
    )
    return totals


class GroupByEngine(
    _PhasedEngine[PhaseConfig, AggregationQuery, GroupByResult]
):
    """Answers GROUP BY COUNT/SUM/AVG queries approximately: per-group
    Hájek estimates, phase II sized by the TV distance between
    half-sample group masses."""

    _name = "group-by"
    _default_config = PhaseConfig

    def execute(
        self,
        query: AggregationQuery,
        delta_req: float = 0.1,
        sink: Optional[int] = None,
    ) -> GroupByResult:
        """Estimate per-group aggregates within ``delta_req``.

        ``delta_req`` is read as a total-variation bound on the
        normalized group masses (COUNT/SUM); AVG reuses the COUNT
        cross-validation for sizing.
        """
        return super().execute(query, delta_req, sink)

    # ------------------------------------------------------------------
    # The strategy
    # ------------------------------------------------------------------

    def _check(self, query: AggregationQuery) -> None:
        if query.group_by is None:
            raise ConfigurationError("query has no GROUP BY column")

    def _collect(
        self, sink: int, query: AggregationQuery, count: int,
        ledger: CostLedger, chunk_peers: Optional[int], phase: str,
    ) -> Generator[StepCheckpoint, None, ValueSample]:
        """Walk to ``count`` peers and gather their group replies (a
        lost reply skipped) as a sample whose values are the replies'
        ``(group, count, sum)`` entries."""
        sample = yield from self._walk_and_visit(
            count, ledger, chunk_peers, phase, query.to_sql(),
            GroupVisits(
                self._simulator, query, sink, self._config.tuples_per_peer,
                seed=self._visit_rng,
            ),
        )
        return self._reweigh(sample)

    def _analyze(
        self, query: AggregationQuery, sample: ValueSample, delta_req: float,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[int, CachedPlan, None]:
        _, counts, sums = _group_terms(sample)
        # The masses Δreq bounds: the sums for SUM, the counts for
        # COUNT and AVG.
        terms = sums if query.agg is AggregateOp.SUM else counts
        num_peers = self._simulator.num_peers
        additional, plan = self._tv_plan(
            len(sample),
            lambda rows: _group_totals(terms, sample, rows, num_peers),
            delta_req, rng,
        )
        return additional, plan, None

    def _result(self, run: _Run[ValueSample]) -> GroupByResult:
        groups, counts, sums = _group_terms(run.final)
        rows = np.arange(len(run.final))
        num_peers = self._simulator.num_peers
        count_totals = _group_totals(counts, run.final, rows, num_peers)
        values = count_totals
        if run.query.agg is not AggregateOp.COUNT:
            values = _group_totals(sums, run.final, rows, num_peers)
        if run.query.agg is AggregateOp.AVG:
            seen = count_totals > 0
            groups, values = groups[seen], values[seen] / count_totals[seen]
        return GroupByResult(
            query=run.query,
            groups=dict(zip(groups.tolist(), values.tolist())),
            delta_req=run.delta_req,
            phase_one=run.phase_one,
            phase_two=run.phase_two,
            cost=run.cost,
        )
