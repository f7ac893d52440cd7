"""Per-query virtual timing: tokens and the result-facing summary.

Engines bracket a run with ``simulator.begin_timing()`` /
``finish_timing(token)``.  A session with no time domain (the
synchronous simulator, or an un-armed
:class:`~repro.sim.event_driven.EventDrivenSimulator`) returns ``None``
from both (results are unchanged — the parity invariant); one that
holds a :class:`~repro.sim.event_driven.VirtualTime` captures the
kernel state at the two boundaries and condenses it into a frozen
:class:`QueryTiming` carried by the result.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

__all__ = ["QueryTiming", "TimingToken"]


@dataclasses.dataclass(frozen=True)
class TimingToken:
    """Kernel state captured when a query begins (opaque to engines)."""

    started_ms: float
    epoch: int
    epoch_started_ms: float
    stale_replies: int


@dataclasses.dataclass(frozen=True)
class QueryTiming:
    """How one query experienced virtual time.

    ``staleness_ms`` is the age, at finish, of the data epoch the
    query *started* in: a query that began just before an epoch
    advance answered from a snapshot that was already
    ``staleness_ms`` old when it returned.  ``stale_replies`` counts
    replies delivered after the epoch advanced past their send epoch.
    """

    started_ms: float
    finished_ms: float
    deadline_ms: Optional[float] = None
    deadline_missed: bool = False
    epochs_crossed: int = 0
    stale_replies: int = 0
    staleness_ms: float = 0.0

    @property
    def duration_ms(self) -> float:
        """Virtual wall time the query took, start to finish."""
        return self.finished_ms - self.started_ms

    @property
    def stale(self) -> bool:
        """Whether the network moved on while the query was running."""
        return self.epochs_crossed > 0 or self.stale_replies > 0
