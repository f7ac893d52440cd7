"""EXPLAIN for approximate queries: preview the plan before paying.

The two-phase algorithm effectively builds a query plan at runtime —
phase I "sniffs" the network and decides how much phase II costs.
:func:`explain` exposes that plan the way a database's ``EXPLAIN``
does: it runs only the cheap phase-I sniff plus the sink-side
analysis, then reports what a full execution *would* do — sample
sizes, the optimal sub-sampling budget, predicted accuracy and
latency — without running phase II.

>>> report = explain(engine, query, delta_req=0.1)   # doctest: +SKIP
>>> print(report.render())                           # doctest: +SKIP
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from ..errors import ConfigurationError
from ..network.simulator import NetworkSimulator
from ..query.model import AggregationQuery
from .cost_optimizer import TupleBudgetPlan, optimize_tuple_budget
from .planner import PhaseOneAnalysis
from .two_phase import TwoPhaseConfig, TwoPhaseEngine, _analyze_aggregate


__all__ = [
    "ExplainReport",
    "explain",
]


@dataclasses.dataclass(frozen=True)
class ExplainReport:
    """A previewed execution plan for an approximate query.

    Attributes
    ----------
    query, delta_req:
        What is being planned.
    analysis:
        The phase-I analysis (estimate, scale, CV error, plan).
    sniff_peers:
        Peers the sniff itself visited (the cost of this EXPLAIN).
    optimizer:
        The cost-optimal sub-sampling recommendation, when requested.
    """

    query: AggregationQuery
    delta_req: float
    analysis: PhaseOneAnalysis
    sniff_peers: int
    config: TwoPhaseConfig
    optimizer: Optional[TupleBudgetPlan] = None

    @property
    def planned_phase_two_peers(self) -> int:
        """``m'`` the plan would execute."""
        return self.analysis.plan.additional_peers

    @property
    def planned_total_tuples(self) -> int:
        """Tuples a full execution would sample (both phases)."""
        t = self.config.tuples_per_peer or 1
        return (self.sniff_peers + self.planned_phase_two_peers) * t

    def render(self) -> str:
        """Human-readable plan, EXPLAIN-style."""
        cv = self.analysis.cross_validation
        lines: List[str] = [
            f"EXPLAIN {self.query}",
            f"  required accuracy     : {self.delta_req:g} "
            f"(absolute ±{self.analysis.plan.absolute_error_target:.4g})",
            f"  phase I (sniff)       : {self.sniff_peers} peers, "
            f"jump {self.config.jump}, t={self.config.tuples_per_peer}",
            f"  preliminary estimate  : {self.analysis.estimate:.6g}",
            f"  normalization scale   : {self.analysis.scale:.6g}",
            f"  cross-validation RMS  : {cv.rms_error:.4g} "
            f"over {cv.rounds} halvings (half size {cv.half_size})",
            f"  clustering badness C  : {self.analysis.badness:.4g}",
            f"  planned phase II      : {self.planned_phase_two_peers} peers"
            + ("" if self.analysis.plan.phase_two_needed
               else " (phase I already suffices)"),
            f"  planned total tuples  : {self.planned_total_tuples}",
        ]
        total = self.sniff_peers + self.planned_phase_two_peers
        lines.append(
            f"  predicted error @plan : "
            f"{self.analysis.predicted_error_at(max(total, 1)) / self.analysis.scale:.4g}"
            f" (normalized, one std)"
        )
        if self.optimizer is not None:
            opt = self.optimizer
            lines.extend(
                [
                    "  cost-optimal t        : "
                    f"{opt.tuples_per_peer} tuples/peer "
                    f"-> {opt.peers_to_visit} peers, "
                    f"~{opt.predicted_latency_ms:.0f} ms",
                    "  variance split        : "
                    f"between={opt.decomposition.between:.4g}, "
                    f"within-rate={opt.decomposition.within_rate:.4g}",
                ]
            )
        return "\n".join(lines)


def explain(
    engine: TwoPhaseEngine,
    query: AggregationQuery,
    delta_req: float,
    sink: Optional[int] = None,
    optimize_budget: bool = True,
    max_tuples: int = 1000,
) -> ExplainReport:
    """Preview the plan for ``query`` at ``delta_req``.

    Runs phase I (the sniff) and the sink analysis, optionally the
    cost-based sub-sampling optimizer, and returns the report without
    executing phase II.  The sniff's network cost is real — roughly
    ``m`` peer visits — which is exactly the paper's point: the plan
    itself is cheap compared to an unplanned execution.
    """
    if not query.agg.supports_pushdown:
        raise ConfigurationError(
            "EXPLAIN supports COUNT/SUM/AVG queries"
        )
    simulator: NetworkSimulator = engine.simulator
    if sink is None:
        sink = 0
    ledger = simulator.new_ledger()
    sample = engine.collect_observations(
        sink, query, engine.config.phase_one_peers, ledger
    )
    analysis = _analyze_aggregate(
        engine.config, query, sample, delta_req, 0,
        simulator.topology.num_peers,
    )
    optimizer = None
    if optimize_budget:
        optimizer = optimize_tuple_budget(
            sample,
            absolute_error=analysis.plan.absolute_error_target,
            cost_model=simulator.cost_model,
            jump=engine.config.jump,
            max_tuples=max_tuples,
        )
    return ExplainReport(
        query=query,
        delta_req=delta_req,
        analysis=analysis,
        sniff_peers=len(sample),
        config=engine.config,
        optimizer=optimizer,
    )
