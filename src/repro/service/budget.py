"""Per-query cost budgets for the serving layer.

A :class:`CostBudget` is a set of ceilings over the fields of a
:class:`~repro.metrics.cost.QueryCost` snapshot.  The scheduler checks
a query's ledger against its budget at every chunk boundary
(:class:`~repro.core.two_phase.StepCheckpoint`), so enforcement is
deterministic — the same query with the same seed trips its budget at
the same chunk whether it runs alone or interleaved with others — and
a query can overshoot a ceiling by at most one chunk's worth of work:
the service's ``chunk_peers`` visits and the hops between them.

A budget with no ceiling set (:attr:`CostBudget.unlimited`) has
nothing to check and is treated exactly like no budget: the query is
not cut into ``chunk_peers`` pieces and its ledger is not snapshotted
between them.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..errors import ConfigurationError
from ..metrics.cost import QueryCost

__all__ = [
    "CostBudget",
]


@dataclasses.dataclass(frozen=True)
class CostBudget:
    """Ceilings on one query's cost.  ``None`` means unlimited.

    Attributes
    ----------
    max_messages:
        Ceiling on total messages (walk hops + replies).
    max_hops:
        Ceiling on walk hops.
    max_visits:
        Ceiling on peer visits (with multiplicity).
    max_latency_ms:
        Ceiling on modelled latency.
    """

    max_messages: Optional[int] = None
    max_hops: Optional[int] = None
    max_visits: Optional[int] = None
    max_latency_ms: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("max_messages", "max_hops", "max_visits"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")
        if self.max_latency_ms is not None and self.max_latency_ms < 0:
            raise ConfigurationError(
                f"max_latency_ms must be >= 0, got {self.max_latency_ms}"
            )

    @property
    def unlimited(self) -> bool:
        """Whether no ceiling is set at all — the service then runs
        the query as if it had no budget."""
        return (
            self.max_messages is None
            and self.max_hops is None
            and self.max_visits is None
            and self.max_latency_ms is None
        )

    def violation(self, cost: QueryCost) -> Optional[str]:
        """The first ceiling ``cost`` exceeds, or ``None`` if within
        budget.  The returned string names the field and both values —
        it becomes the outcome's ``detail``."""
        if self.max_messages is not None and cost.messages > self.max_messages:
            return f"messages {cost.messages} > {self.max_messages}"
        if self.max_hops is not None and cost.hops > self.max_hops:
            return f"hops {cost.hops} > {self.max_hops}"
        if self.max_visits is not None and cost.peers_visited > self.max_visits:
            return f"visits {cost.peers_visited} > {self.max_visits}"
        if (
            self.max_latency_ms is not None
            and cost.latency_ms > self.max_latency_ms
        ):
            return (
                f"latency {cost.latency_ms:.1f} ms > "
                f"{self.max_latency_ms:.1f} ms"
            )
        return None
