"""The concurrent query-serving front-end.

:class:`QueryService` multiplexes many simultaneous aggregation
queries over one shared network snapshot.  Design (ROADMAP: serve
heavy repeat traffic, not one query at a time):

* **Submit/await.**  :meth:`QueryService.submit` admits a query and
  returns a :class:`~repro.service.scheduler.QueryTicket`;
  :meth:`QueryService.await_result` (or :meth:`QueryService.run`)
  drives the scheduler until the answer is in.  Admission is bounded:
  when ``max_queue`` queries are outstanding, ``submit`` raises
  :class:`~repro.errors.AdmissionError` (backpressure) instead of
  growing an unbounded backlog.
* **Per-query determinism.**  Every submission spawns its own RNG
  streams — two children of the service seed
  (:func:`~repro._util.seed_sequence`), each becoming a ``Generator``
  where it is first drawn from — in submission order: one seeds a
  private :meth:`~repro.network.simulator.NetworkSimulator.session`
  (own sub-sampling RNG, own fault clock), the other
  the query's engine — the one its query names
  (:func:`~repro.service.backend.build_task`).  No query
  reads shared simulator randomness, so *any* interleaving of walker
  steps produces bit-identical results — the keystone invariant:
  ``N`` queries run concurrently equal the same queries run serially
  (a service with ``max_in_flight=1``) bit for bit, traces included.
* **Fair interleaving with budgets.**  Engines execute stepwise; the
  round-robin scheduler advances every in-flight query one step per
  tick.  A step boundary exists where something is checked: a query
  with a :class:`~repro.service.budget.CostBudget` ceiling or a
  deadline steps every ``chunk_peers`` visits (the enforcement
  quantum) and is stopped at the first boundary past its limit; a
  query with neither takes one step per phase.
* **Shared plan cache.**  All per-query engines — COUNT/SUM/AVG,
  MEDIAN/QUANTILE and GROUP BY alike — serve from one
  :class:`~repro.core.two_phase.PlanCache`, so repeat signatures in the
  workload go warm.  Cache entries are churn-epoch aware; after
  :meth:`QueryService.rebind` to a new snapshot, stale plans cold-miss
  on their own.
* **Observability.**  With ``capture_traces=True`` each query gets its
  own :class:`~repro.obs.tracer.Tracer` (scheduling-independent,
  diffable with ``python -m repro.tools.trace diff``); the
  service-level :class:`~repro.obs.registry.MetricsRegistry` tracks
  throughput counters, queue depth, warm/cold runs and
  budget/admission rejections.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, List, Optional, Union

from .._util import SeedLike, seed_sequence
from ..core.two_phase import PlanCache, TwoPhaseConfig
from ..errors import (
    AdmissionError,
    BudgetExceededError,
    ConfigurationError,
    DeadlineExceededError,
    ReproError,
    ServiceError,
)
from ..metrics.cost import QueryCost
from ..network.simulator import NetworkSimulator
from ..obs.registry import MetricsRegistry
from ..obs.tracer import TraceLike
from ..query.model import AggregationQuery
from .backend import (
    EngineSettings,
    ExecutionBackend,
    ForkedBackend,
    InlineBackend,
    QueryJob,
    QueryReply,
)
from .budget import CostBudget
from .scheduler import QueryTicket, ServedResult

__all__ = [
    "QueryOutcome",
    "ServiceStats",
    "QueryService",
]

#: The ``service.*`` counters, named as :class:`ServiceStats` reports them.
_COUNTED = (
    "submitted", "completed", "failed", "budget_stopped",
    "deadline_stopped", "rejected", "ticks", "warm_runs", "cold_runs",
    "delta_runs",
)
#: The counter each way a query can end bumps.
_ENDED = {
    "done": "completed",
    "failed": "failed",
    "budget-exceeded": "budget_stopped",
    "deadline-exceeded": "deadline_stopped",
}


@dataclasses.dataclass(frozen=True)
class QueryOutcome:
    """How one submitted query ended.

    ``status`` is ``"done"`` (``result`` is set), ``"failed"``
    (``error`` holds the :class:`~repro.errors.ReproError`),
    ``"budget-exceeded"`` (``detail`` names the tripped ceiling) or
    ``"deadline-exceeded"`` (the session's virtual clock passed the
    query's deadline at a chunk boundary).
    ``cost`` is the query's ledger snapshot at the end, whichever way
    it ended; ``chunks`` is how many scheduling steps it consumed — a
    function of the query's own job (one per phase, or one per
    ``chunk_peers`` visits under a ceiling or a deadline), the same on
    every backend.
    """

    ticket: QueryTicket
    status: str
    result: Optional[ServedResult] = None
    error: Optional[ReproError] = None
    detail: str = ""
    cost: Optional[QueryCost] = None
    chunks: int = 0

    @property
    def ok(self) -> bool:
        """Whether the query produced a result."""
        return self.status == "done"


@dataclasses.dataclass(frozen=True)
class ServiceStats:
    """A point-in-time summary of the service's counters (runs of
    every engine kind).  ``plan_entries`` is the plans held: at most
    :data:`~repro.core.two_phase.PLAN_CACHE_ENTRIES` per cache, summed
    over a sharded service's workers."""

    submitted: int
    completed: int
    failed: int
    budget_stopped: int
    deadline_stopped: int
    rejected: int
    queued: int
    in_flight: int
    ticks: int
    warm_runs: int
    cold_runs: int
    delta_runs: int
    cache_hits: int
    cache_misses: int
    churn_invalidations: int
    delta_hits: int
    plan_entries: int

    @property
    def warm_ratio(self) -> float:
        """Warm runs over all runs, delta runs included (0.0 when
        nothing ran)."""
        total = self.warm_runs + self.cold_runs + self.delta_runs
        return self.warm_runs / total if total else 0.0


class QueryService:
    """Concurrent aggregation-query serving over one shared snapshot.

    Parameters
    ----------
    simulator:
        The network snapshot to serve against.  Each query runs in its
        own :meth:`~repro.network.simulator.NetworkSimulator.session`
        of it.
    config:
        Engine configuration shared by all queries: every engine runs
        it as it is — COUNT/SUM/AVG, MEDIAN/QUANTILE and GROUP BY
        alike, so every served kind retries under its
        ``retry_policy`` and honours its ``pool_phases``.
    seed:
        Service seed; every per-query stream spawns from it in
        submission order, which is the whole determinism story.
    max_in_flight:
        Queries interleaved at once (1 = serial reference behaviour).
    max_queue:
        Outstanding-query bound (queued + running); beyond it,
        :meth:`submit` raises :class:`~repro.errors.AdmissionError`.
    chunk_peers:
        The enforcement quantum: peer visits between two budget /
        deadline checks of a query that has a ceiling or a deadline,
        which can overshoot a ceiling by at most this many visits (and
        the hops between them).  Smaller = tighter enforcement, at
        more scheduling overhead; ``None`` checks once per phase.  A
        query with nothing to enforce runs each phase in one step
        whatever this is — its step size depends on its own job only,
        never on what else is in flight, so traces stay
        scheduling-independent.
    default_budget:
        Budget applied to submissions that don't bring their own.  A
        budget with no ceiling set is the same as none.
    max_age, decay:
        Plan-cache tuning for every engine: warm runs per plan
        before a cold refresh, and the refresh's blending factor (as
        for :class:`~repro.core.two_phase.PlanCache`).
    capture_traces:
        Give each query a private tracer (inspect via :meth:`trace`,
        dump via :meth:`write_traces`).
    registry:
        Service metrics registry; a fresh one is created when omitted.
        :meth:`stats` reads its ``service.*`` counters.
    delta_reestimation:
        As for :class:`~repro.core.two_phase.PlanCache`: when on and
        the snapshot carries stable peer labels, churn-invalidated
        COUNT/SUM/AVG plans are topped up incrementally from their
        retained sample instead of re-running cold (counted in
        ``delta_runs``/``delta_hits``).
    workers:
        ``None`` (default) serves inline in this process.  An integer
        ``N >= 1`` serves through the sharded
        :class:`~repro.service.backend.ForkedBackend`: ``N`` forked
        worker processes over the shared snapshot, jobs routed by
        query signature.  Results, costs and traces are bit-identical
        either way (the serial==sharded invariant); a sharded service
        should be closed (:meth:`close`, or use it as a context
        manager) to reap its workers and shared memory.
    backend:
        Advanced: a pre-built
        :class:`~repro.service.backend.ExecutionBackend` to serve on,
        mutually exclusive with ``workers``.
    """

    def __init__(
        self,
        simulator: NetworkSimulator,
        config: Optional[TwoPhaseConfig] = None,
        seed: SeedLike = None,
        *,
        max_in_flight: int = 4,
        max_queue: int = 64,
        chunk_peers: Optional[int] = 8,
        default_budget: Optional[CostBudget] = None,
        max_age: int = 25,
        decay: float = 0.7,
        capture_traces: bool = False,
        registry: Optional[MetricsRegistry] = None,
        delta_reestimation: bool = False,
        workers: Optional[int] = None,
        backend: Optional[ExecutionBackend] = None,
    ):
        if max_queue < 1:
            raise ConfigurationError("max_queue must be >= 1")
        if chunk_peers is not None and chunk_peers < 1:
            raise ConfigurationError("chunk_peers must be >= 1")
        if workers is not None and backend is not None:
            raise ConfigurationError(
                "pass either workers or backend, not both"
            )
        self._base = simulator
        self._config = config or TwoPhaseConfig()
        self._seed_seq = seed_sequence(seed)
        self._max_queue = max_queue
        self._default_budget = default_budget
        self._capture_traces = capture_traces
        self._registry = registry if registry is not None else MetricsRegistry()
        # Registered up front: a query's bookkeeping is then a
        # dictionary read, not a registry lookup per event.
        self._counters = {
            name: self._registry.counter(f"service.{name}")
            for name in _COUNTED
        }
        self._queue_depth = self._registry.gauge("service.queue_depth")
        self._in_flight = self._registry.gauge("service.in_flight")
        self._outcomes: Dict[int, QueryOutcome] = {}
        self._tracers: Dict[int, TraceLike] = {}
        self._next_id = 0
        self._prime(simulator)
        settings = EngineSettings(
            config=self._config,
            chunk_peers=chunk_peers,
            max_age=max_age,
            decay=decay,
            delta_reestimation=delta_reestimation,
        )
        if backend is not None:
            self._backend: ExecutionBackend = backend
        elif workers is not None:
            self._backend = ForkedBackend(simulator, settings, workers)
        else:
            self._backend = InlineBackend(
                simulator, settings, max_in_flight=max_in_flight
            )

    @staticmethod
    def _prime(simulator: NetworkSimulator) -> None:
        # Sessions share the snapshot's memoized columnar view; build
        # it once up front so no query pays for it mid-run (clean or
        # faulted: every aggregate collection reads its rows there).
        simulator.flat_dataset

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def registry(self) -> MetricsRegistry:
        """The service-level metrics registry."""
        return self._registry

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend serving this service's queries."""
        return self._backend

    @property
    def cache(self) -> PlanCache:
        """The plan cache shared by every query's engine.

        Only the inline backend has one cache in this process; a
        sharded service's caches live in its worker processes
        (aggregated counters are still in :meth:`stats`).
        """
        cache = self._backend.plan_cache
        if cache is None:
            raise ServiceError(
                "a sharded service's plan caches live in its worker "
                "processes; read the aggregated counters via stats()"
            )
        return cache

    @property
    def idle(self) -> bool:
        """Whether no admitted query is unfinished."""
        return self._backend.idle

    def stats(self) -> ServiceStats:
        """A snapshot of the service's counters."""
        cache_stats = self._backend.cache_stats()
        return ServiceStats(
            **{
                name: int(counter.value)
                for name, counter in self._counters.items()
            },
            queued=self._backend.backlog,
            in_flight=self._backend.in_flight,
            cache_hits=cache_stats.hits,
            cache_misses=cache_stats.misses,
            churn_invalidations=cache_stats.churn_invalidations,
            delta_hits=cache_stats.delta_hits,
            plan_entries=cache_stats.entries,
        )

    def outcome(self, ticket: QueryTicket) -> Optional[QueryOutcome]:
        """The outcome for ``ticket``, if it has resolved."""
        return self._outcomes.get(ticket.query_id)

    def trace(self, ticket: QueryTicket) -> Optional[TraceLike]:
        """The query's private trace (``capture_traces`` only),
        available once the query has resolved.

        On a sharded service the lines arrived with the query's
        reply, so they survive the workers — byte-identical to the
        inline backend's.
        """
        return self._tracers.get(ticket.query_id)

    def write_traces(self, directory: Union[str, Path]) -> List[Path]:
        """Dump every resolved query's trace as ``query-NNNN.jsonl``.

        The files are canonical JSONL, one per query in query-id
        order — ready for ``python -m repro.tools.trace diff`` against
        a reference run.
        """
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        written: List[Path] = []
        for query_id in sorted(self._tracers):
            tracer = self._tracers[query_id]
            path = target / f"query-{query_id:04d}.jsonl"
            content = "\n".join(tracer.lines)
            path.write_text(content + "\n" if content else "")
            written.append(path)
        return written

    # ------------------------------------------------------------------
    # Submission and scheduling
    # ------------------------------------------------------------------

    def submit(
        self,
        query: AggregationQuery,
        delta_req: float,
        sink: Optional[int] = None,
        budget: Optional[CostBudget] = None,
        deadline_ms: Optional[float] = None,
    ) -> QueryTicket:
        """Admit one query; returns its ticket.

        Raises :class:`~repro.errors.AdmissionError` when ``max_queue``
        queries are already outstanding.  The query's RNG streams are
        spawned *here*, so results depend only on submission order —
        never on scheduling.

        ``deadline_ms`` is a virtual-time deadline measured on the
        query's own session clock; it requires serving from an
        event-driven simulator (``repro.sim``) and is enforced at
        chunk boundaries, like budgets.  Passing it against a plain
        synchronous snapshot raises
        :class:`~repro.errors.ConfigurationError` — there is no clock
        to measure it on.
        """
        outstanding = self._backend.backlog + self._backend.in_flight
        if outstanding >= self._max_queue:
            self._counters["rejected"].inc()
            raise AdmissionError(
                f"admission queue full ({outstanding} queries outstanding, "
                f"bound {self._max_queue})"
            )
        query_id = self._next_id
        self._next_id += 1
        signature = query.to_sql()
        session_seed, engine_seed = self._seed_seq.spawn(2)
        job = QueryJob(
            query_id=query_id,
            query=query,
            delta_req=delta_req,
            signature=signature,
            sink=sink,
            budget=budget if budget is not None else self._default_budget,
            deadline_ms=deadline_ms,
            session_seed=session_seed,
            engine_seed=engine_seed,
            capture_trace=self._capture_traces,
        )
        # The backend may refuse the job (e.g. a deadline against a
        # clockless snapshot); the spawn above already happened, which
        # is exactly what the inline path did when arm_deadline raised
        # mid-submit — stream consumption stays identical.
        self._backend.submit(job)
        ticket = QueryTicket(
            query_id=query_id,
            query=query,
            delta_req=delta_req,
            signature=signature,
        )
        self._counters["submitted"].inc()
        self._update_gauges()
        return ticket

    def tick(self) -> List[QueryOutcome]:
        """One scheduling round; returns queries that resolved in it."""
        self._counters["ticks"].inc()
        outcomes = [
            self._finish(reply) for reply in self._backend.pump()
        ]
        self._update_gauges()
        return outcomes

    def run(self) -> List[QueryOutcome]:
        """Drive the scheduler until every admitted query resolves.

        Returns the outcomes that resolved during this call, in
        submission order.
        """
        finished: List[QueryOutcome] = []
        while not self._backend.idle:
            finished.extend(self.tick())
        return sorted(finished, key=lambda o: o.ticket.query_id)

    def await_result(self, ticket: QueryTicket) -> ServedResult:
        """Drive the scheduler until ``ticket`` resolves; return its
        result or raise how it failed.

        Raises the query's own :class:`~repro.errors.ReproError` for
        failed queries, :class:`~repro.errors.BudgetExceededError` for
        budget stops, :class:`~repro.errors.DeadlineExceededError` for
        deadline stops, and :class:`~repro.errors.ServiceError` for a
        ticket this service never admitted.
        """
        while (
            ticket.query_id not in self._outcomes
            and not self._backend.idle
        ):
            self.tick()
        outcome = self._outcomes.get(ticket.query_id)
        if outcome is None:
            raise ServiceError(
                f"query {ticket.query_id} is not outstanding here"
            )
        if outcome.status == "budget-exceeded":
            raise BudgetExceededError(
                f"query {ticket.query_id} stopped: {outcome.detail}"
            )
        if outcome.status == "deadline-exceeded":
            raise DeadlineExceededError(
                f"query {ticket.query_id} stopped: {outcome.detail}"
            )
        if outcome.error is not None:
            raise outcome.error
        assert outcome.result is not None
        return outcome.result

    def rebind(self, simulator: NetworkSimulator) -> None:
        """Serve subsequent submissions from a new network snapshot.

        Only legal while idle — in-flight queries hold sessions of the
        old snapshot.  The plan cache survives: entries learned on the
        old population cold-miss via their population stamp (counted
        in ``churn_invalidations``), so no manual invalidation is
        needed across churn epochs.
        """
        if not self._backend.idle:
            raise ServiceError(
                "cannot rebind while queries are outstanding"
            )
        self._base = simulator
        self._prime(simulator)
        self._backend.rebind(simulator)

    def close(self) -> None:
        """Release the backend (worker processes, shared memory).

        A no-op for the inline backend; a sharded service must be
        closed — or used as a context manager — to reap its workers
        and unlink its shared-memory segment.  Every trace is already
        in this process, so :meth:`trace` and :meth:`write_traces`
        keep working on a closed service.  Idempotent.
        """
        self._backend.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _finish(self, reply: QueryReply) -> QueryOutcome:
        outcome = QueryOutcome(
            ticket=reply.ticket,
            status=reply.status,
            result=reply.result,
            error=reply.error,
            detail=reply.detail,
            cost=reply.cost,
            chunks=reply.chunks,
        )
        self._outcomes[reply.ticket.query_id] = outcome
        if reply.tracer is not None:
            self._tracers[reply.ticket.query_id] = reply.tracer
        self._counters[_ENDED[reply.status]].inc()
        if reply.warm_runs:
            self._counters["warm_runs"].inc(reply.warm_runs)
        if reply.cold_runs:
            self._counters["cold_runs"].inc(reply.cold_runs)
        if reply.delta_runs:
            self._counters["delta_runs"].inc(reply.delta_runs)
        return outcome

    def _update_gauges(self) -> None:
        self._queue_depth.set(float(self._backend.backlog))
        self._in_flight.set(float(self._backend.in_flight))
