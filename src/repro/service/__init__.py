"""Concurrent query serving over a shared network snapshot.

This package is the serving layer the ROADMAP's "heavy traffic" north
star calls for: many aggregation queries multiplexed over one
simulator, with bounded admission, round-robin fairness, per-query
cost budgets, a workload-shared plan cache and per-query tracing.

The keystone invariant — proven by the property suite — is that
concurrency never changes answers: ``N`` queries run interleaved are
bit-identical to the same queries run serially, because every query
owns its RNG streams (spawned in submission order) and its own
simulator session.  The sharded backend extends the same invariant
across *processes*: ``QueryService(workers=N)`` serves through ``N``
forked shard owners over shared-memory snapshot arrays, still bit
for bit equal to serial.

* :mod:`~repro.service.service` — :class:`QueryService` (submit /
  await / run) and outcome types.
* :mod:`~repro.service.backend` — the execution backends (inline
  round-robin, sharded multi-process) behind the service.
* :mod:`~repro.service.codec` — the versioned tuple wire codec the
  sharded backend's replies cross the pool queue in.
* :mod:`~repro.service.shm` — shared-memory export/attach of the
  snapshot's flat columns.
* :mod:`~repro.service.scheduler` — the round-robin stepwise
  scheduler with per-signature serialization.
* :mod:`~repro.service.budget` — per-query cost ceilings.
"""

from .backend import (
    CacheStats,
    EngineSettings,
    ExecutionBackend,
    ForkedBackend,
    InlineBackend,
    QueryJob,
    QueryReply,
    TransportStats,
)
from .budget import CostBudget
from .scheduler import (
    Completion,
    QueryTicket,
    RoundRobinScheduler,
    ScheduledQuery,
)
from .service import QueryOutcome, QueryService, ServiceStats

__all__ = [
    "CacheStats",
    "CostBudget",
    "EngineSettings",
    "ExecutionBackend",
    "ForkedBackend",
    "InlineBackend",
    "QueryJob",
    "QueryReply",
    "QueryTicket",
    "TransportStats",
    "ScheduledQuery",
    "Completion",
    "RoundRobinScheduler",
    "QueryOutcome",
    "ServiceStats",
    "QueryService",
]
