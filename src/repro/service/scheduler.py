"""Round-robin interleaving of stepwise query executions.

The scheduler is deliberately dumb: it holds a FIFO of admitted tasks,
keeps at most ``max_in_flight`` of them running, and on every
:meth:`RoundRobinScheduler.tick` advances each running task by exactly
one chunk (one ``next()`` on its stepwise generator).  Fairness is
structural — nobody can starve, because every tick touches every
running query once.  How much one chunk is was fixed when the task was
built (:func:`~repro.service.backend.build_task`): ``chunk_peers``
visits for a query with a budget ceiling or a deadline to check, a
whole phase for one with neither — so a tick is bounded by
``max_in_flight`` phases, and a phase by the plan.

Two rules carry the service's determinism invariant:

* **Per-query isolation.**  A task's generator runs against its own
  simulator session and engine RNG streams, so *when* it is advanced
  relative to other tasks cannot change *what* it computes.
* **Per-signature serialization.**  Tasks sharing a query signature
  also share a mutable :class:`~repro.core.two_phase.CachedPlan`, and
  the warm/cold decision is made on a task's first advance.  The scheduler
  therefore never starts a task while an earlier task with the same
  signature is unfinished — the cache is read and refreshed in
  submission order, exactly as a serial run would.  Distinct
  signatures interleave freely.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Any, Callable, Deque, Generator, List, Optional, Set, Union

from ..core.groupby import GroupByResult
from ..core.result import ApproximateResult, MedianResult
from ..core.two_phase import StepCheckpoint, _PhasedEngine
from ..errors import ConfigurationError, ReproError, ServiceError
from ..obs.events import QueryLifecycleEvent
from ..obs.tracer import _ACTIVE, Tracer
from ..query.model import AggregationQuery
from .budget import CostBudget

__all__ = [
    "QueryTicket",
    "ScheduledQuery",
    "ServedResult",
    "Completion",
    "RoundRobinScheduler",
    "advance_task",
    "emit_lifecycle",
    "query_failure",
]

#: What a served query answers with: the result of the engine its
#: query names — COUNT/SUM/AVG, MEDIAN/QUANTILE, or GROUP BY.
ServedResult = Union[ApproximateResult, MedianResult, GroupByResult]


@dataclasses.dataclass(frozen=True)
class QueryTicket:
    """The submitter's handle on one admitted query."""

    query_id: int
    query: AggregationQuery
    delta_req: float
    signature: str


@dataclasses.dataclass
class ScheduledQuery:
    """One admitted query's scheduling state."""

    ticket: QueryTicket
    steps: Generator[StepCheckpoint, None, ServedResult]
    engine: _PhasedEngine[Any, AggregationQuery, ServedResult]
    #: ``None`` when there is no ceiling to check — a ceilingless
    #: :class:`CostBudget` never gets here (``build_task`` drops it), so
    #: such a task's ledger is not snapshotted per chunk.
    budget: Optional[CostBudget]
    tracer: Optional[Tracer]
    #: Virtual-time deadline and the session clock that measures it.
    #: Both set (by the service) only for event-driven sessions;
    #: enforcement happens at chunk boundaries like budgets.
    deadline_ms: Optional[float] = None
    clock: Optional[Callable[[], float]] = None
    started: bool = False
    chunks: int = 0
    last_checkpoint: Optional[StepCheckpoint] = None


@dataclasses.dataclass(frozen=True)
class Completion:
    """How one task left the scheduler."""

    task: ScheduledQuery
    status: str  # done | failed | budget-exceeded | deadline-exceeded
    result: Optional[ServedResult] = None
    error: Optional[ReproError] = None
    detail: str = ""


def emit_lifecycle(
    task: ScheduledQuery, status: str, detail: str = ""
) -> None:
    """Record a lifecycle transition in the task's trace (if any)."""
    if task.tracer is not None:
        task.tracer.emit(
            QueryLifecycleEvent, task.ticket.query_id, status,
            task.ticket.signature, detail,
        )


def query_failure(query_id: int, error: Exception) -> ServiceError:
    """The typed error a query resolves ``failed`` with when its
    execution raised something other than a :class:`ReproError` — on
    every backend, so inline and forked serving report it alike."""
    return ServiceError(f"query {query_id} failed: {error!r}")


def advance_task(task: ScheduledQuery) -> Optional[Completion]:
    """Run ``task`` one chunk forward; a completion ends it.

    This is the single definition of "one chunk of service work" —
    the round-robin scheduler calls it once per running task per tick,
    and the sharded backend's workers call it in a drain loop — so
    budget and deadline enforcement at chunk boundaries is the same
    code on every execution path.  A chunk is ``chunk_peers`` visits
    (the enforcement quantum) for a task with a ceiling or a deadline
    and one whole phase for a task with neither; a ceiling can be
    overshot by at most one quantum.

    The task's tracer (if any) is active only while the generator
    runs, so every engine event lands in the query's own trace
    regardless of interleaving; lifecycle events go to the tracer
    directly.  Whatever the generator raises resolves the task
    ``failed`` (a non-:class:`ReproError` as :func:`query_failure`), so
    a raising query never escapes a tick or stays in flight.
    """
    if not task.started:
        task.started = True
        emit_lifecycle(task, "started")
    token = _ACTIVE.set(task.tracer) if task.tracer is not None else None
    try:
        checkpoint = next(task.steps)
    except StopIteration as stop:
        result: ServedResult = stop.value
        emit_lifecycle(task, "done")
        return Completion(task=task, status="done", result=result)
    except Exception as raised:  # noqa: BLE001 - resolved as a failed query
        error = (
            raised if isinstance(raised, ReproError)
            else query_failure(task.ticket.query_id, raised)
        )
        emit_lifecycle(task, "failed", detail=str(error))
        return Completion(
            task=task, status="failed", error=error, detail=str(error)
        )
    finally:
        if token is not None:
            _ACTIVE.reset(token)
    task.chunks += 1
    task.last_checkpoint = checkpoint
    if task.budget is not None:
        violation = task.budget.violation(checkpoint.ledger.snapshot())
        if violation is not None:
            task.steps.close()
            emit_lifecycle(task, "budget-exceeded", detail=violation)
            return Completion(
                task=task, status="budget-exceeded", detail=violation
            )
    if task.deadline_ms is not None and task.clock is not None:
        now_ms = task.clock()
        if now_ms > task.deadline_ms:
            detail = (
                f"virtual time {now_ms:.3f} ms passed the "
                f"{task.deadline_ms:.3f} ms deadline"
            )
            task.steps.close()
            emit_lifecycle(task, "deadline-exceeded", detail=detail)
            return Completion(
                task=task, status="deadline-exceeded", detail=detail
            )
    return None


class RoundRobinScheduler:
    """Advances up to ``max_in_flight`` stepwise queries, one chunk
    per query per tick."""

    def __init__(self, max_in_flight: int):
        if max_in_flight < 1:
            raise ConfigurationError("max_in_flight must be >= 1")
        self._max_in_flight = max_in_flight
        self._pending: Deque[ScheduledQuery] = deque()
        self._running: List[ScheduledQuery] = []
        self._active_signatures: Set[str] = set()

    @property
    def max_in_flight(self) -> int:
        """Concurrency ceiling."""
        return self._max_in_flight

    @property
    def backlog(self) -> int:
        """Admitted tasks waiting to start."""
        return len(self._pending)

    @property
    def in_flight(self) -> int:
        """Tasks currently running."""
        return len(self._running)

    @property
    def idle(self) -> bool:
        """Whether nothing is queued or running."""
        return not self._pending and not self._running

    def enqueue(self, task: ScheduledQuery) -> None:
        """Append ``task`` to the admission FIFO."""
        self._pending.append(task)

    # ------------------------------------------------------------------

    def _admit(self) -> None:
        """Start pending tasks up to the concurrency ceiling.

        Scans the FIFO in order; a task whose signature is already
        running stays queued (in its original position) so
        same-signature plan-cache traffic happens in submission order.
        """
        if not self._pending or len(self._running) >= self._max_in_flight:
            return
        blocked: Deque[ScheduledQuery] = deque()
        while self._pending and len(self._running) < self._max_in_flight:
            task = self._pending.popleft()
            if task.ticket.signature in self._active_signatures:
                blocked.append(task)
                continue
            self._active_signatures.add(task.ticket.signature)
            self._running.append(task)
        while blocked:
            self._pending.appendleft(blocked.pop())

    def tick(self) -> List[Completion]:
        """One fairness round: admit, then advance every running task
        one chunk.  Returns the tasks that finished this round."""
        self._admit()
        completions: List[Completion] = []
        for task in list(self._running):
            completion = advance_task(task)
            if completion is not None:
                self._running.remove(task)
                self._active_signatures.discard(task.ticket.signature)
                completions.append(completion)
        self._admit()
        return completions
