"""Execution backends for :class:`~repro.service.service.QueryService`.

The service front-end (admission, RNG spawning, outcome bookkeeping)
is backend-agnostic.  A backend receives fully-seeded
:class:`QueryJob`\\ s and resolves them into :class:`QueryReply`\\ s:

* :class:`InlineBackend` — the original single-process path: builds a
  :class:`~repro.service.scheduler.ScheduledQuery` per job and
  interleaves them on a
  :class:`~repro.service.scheduler.RoundRobinScheduler` with one
  shared :class:`~repro.core.two_phase.PlanCache`, which every engine
  kind plans in.
* :class:`ForkedBackend` — the sharded path: ``N`` forked worker
  processes (:class:`~repro._pool.ForkPool`) over the same read-only
  snapshot, its big arrays pinned in shared memory
  (:mod:`repro.service.shm`).

Why serial == sharded holds bit for bit
---------------------------------------

Both backends build the per-query session/engine/tracer with the same
function (:func:`build_task`) and advance it with the same chunk step
(:func:`~repro.service.scheduler.advance_task`), so a query's entire
computation is a function of its job alone — the seeds are spawned by
the service in submission order before the backend ever sees the job,
and its chunk boundaries are derived by :func:`build_task` from the
job's own budget and deadline, never from what else is running.
What remains is the plan cache, the only cross-query state.  The cache
is keyed purely by query signature: a lookup's outcome depends only on
the history of *same-signature* traffic.  The sharded backend
therefore routes jobs by ``sha256(signature) mod workers`` — every
signature has one owner — and each worker's FIFO inbox preserves
submission order, so every signature sees exactly the cache history it
would have seen inline (where the scheduler serializes same-signature
tasks in submission order for the same reason).  Per-worker caches are
then a partition of the inline shared cache by signature: same
entries, same hit/miss/invalidation counts, summed.

Budgets and deadlines are enforced inside :func:`advance_task` at
chunk boundaries on the query's own ledger and session clock, and the
tracer is created worker-side around the session clock, so replies
carry byte-identical trace lines.

Transport (the sharded backend's wire protocol)
-----------------------------------------------

Replies never cross the pool's pipes as whole-object pickles.  Each
worker flattens a reply through the versioned tuple codec
(:mod:`repro.service.codec`) and sends it on its own reply pipe the
moment the job ends, so a query never waits for the slowest job of
its batch.  A traced reply carries its canonical lines and their
digest; the decoded
:class:`~repro.service.codec.TraceWire` is the parent's trace, so
traces outlive the workers and need nothing at close.  The lines are
byte-identical to the inline backend's, which the parity suite pins.

Each job is answered once, on one stream.  The parent asks a worker
something outside that stream only in :meth:`ForkedBackend.rebind`,
which is legal only while no job is in flight: it sends one
``_Rebind`` per worker and reads one acknowledgement from each.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from .. import _pool
from .._util import Seed
from ..core.groupby import GroupByEngine
from ..core.median import MedianEngine
from ..core.two_phase import (
    PlanCache,
    TwoPhaseConfig,
    TwoPhaseEngine,
    _PhasedEngine,
)
from ..errors import (
    ConfigurationError,
    ReproError,
    ServiceError,
    WorkerPoolError,
)
from ..metrics.cost import QueryCost
from ..network.simulator import NetworkSimulator
from ..obs.events import QueryLifecycleEvent
from ..obs.tracer import TraceLike, Tracer
from ..query.model import AggregationQuery
from .budget import CostBudget
from .codec import TraceWire, decode_reply, encode_reply, reply_query_id
from .scheduler import (
    Completion,
    QueryTicket,
    RoundRobinScheduler,
    ScheduledQuery,
    ServedResult,
    advance_task,
    query_failure,
)
from .shm import (
    PackManifest,
    SharedArrayPack,
    SnapshotView,
    attach_snapshot,
    export_snapshot,
)

__all__ = [
    "CacheStats",
    "EngineSettings",
    "ExecutionBackend",
    "ForkedBackend",
    "InlineBackend",
    "QueryJob",
    "QueryReply",
    "TransportStats",
    "build_task",
    "drive_task",
    "shard_for_signature",
]


@dataclasses.dataclass(frozen=True)
class EngineSettings:
    """Per-service engine knobs every backend must apply identically.

    ``config`` configures every engine as it is, its
    ``retry_policy`` and ``pool_phases`` included.
    ``chunk_peers`` is the enforcement quantum: the visits between two
    budget/deadline checks of a job that has a ceiling or a deadline
    (``None`` = one check per phase).  :func:`build_task` applies it;
    a job with nothing to enforce runs one take per phase whatever it
    is set to.  ``max_age``, ``decay`` and ``delta_reestimation`` are
    the plan policy of every engine (the backend's
    :class:`~repro.core.two_phase.PlanCache` carries it).
    """

    config: TwoPhaseConfig
    chunk_peers: Optional[int]
    max_age: int
    decay: float
    delta_reestimation: bool


@dataclasses.dataclass(frozen=True)
class QueryJob:
    """One admitted query, fully seeded — everything a backend needs.

    The seeds are spawned by the service in submission order *before*
    the job reaches any backend, so where the job executes cannot
    change what it computes.  Small and picklable by design: the
    snapshot never rides along, and the seeds travel as
    :func:`~repro._util.seed_sequence`'s seeds that become
    ``Generator``\\ s where they are drawn from.
    """

    query_id: int
    query: AggregationQuery
    delta_req: float
    signature: str
    sink: Optional[int]
    budget: Optional[CostBudget]
    deadline_ms: Optional[float]
    session_seed: Union[Seed, np.random.SeedSequence]
    engine_seed: Union[Seed, np.random.SeedSequence]
    capture_trace: bool


@dataclasses.dataclass(frozen=True)
class QueryReply:
    """How one job resolved, backend-independent.

    ``cache_*`` fields are the plan-cache counter *deltas* this job
    produced, ``cache_entries`` the change in its cache's entry count
    (the sharded backend sums them parent-side; the inline backend
    reads its shared cache directly and leaves them zero).
    """

    ticket: QueryTicket
    status: str
    result: Optional[ServedResult]
    error: Optional[ReproError]
    detail: str
    cost: Optional[QueryCost]
    chunks: int
    tracer: Optional[TraceLike]
    warm_runs: int
    cold_runs: int
    delta_runs: int
    cache_hits: int = 0
    cache_misses: int = 0
    cache_churn_invalidations: int = 0
    cache_delta_hits: int = 0
    cache_entries: int = 0


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """Plan-cache counters and plans held (``entries``, summed over
    a sharded backend's workers) as ``stats()`` reports them."""

    hits: int
    misses: int
    churn_invalidations: int
    delta_hits: int
    entries: int


def shard_for_signature(signature: str, workers: int) -> int:
    """The worker that owns ``signature``'s plan-cache traffic.

    sha256 so the routing is stable across processes and runs
    (``hash(str)`` is salted per interpreter) — the owner of a
    signature must be a pure function of the query text.
    """
    digest = hashlib.sha256(signature.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % workers


def build_task(
    simulator: NetworkSimulator,
    settings: EngineSettings,
    cache: PlanCache,
    job: QueryJob,
) -> ScheduledQuery:
    """Construct one query's session, engine, tracer and stepwise run.

    This is the single definition of "what a submitted query is" —
    the inline backend calls it in the parent at submit time, the
    sharded backend calls it in the owning worker — so both paths
    produce bit-identical executions from the same job.

    The engine is the one the query names: a
    :class:`~repro.core.groupby.GroupByEngine` for a GROUP BY, a
    :class:`~repro.core.median.MedianEngine` for MEDIAN/QUANTILE and a
    :class:`~repro.core.two_phase.TwoPhaseEngine` otherwise, each
    running ``settings.config`` as it is (so every kind retries under
    its ``retry_policy``) on ``cache`` under the cache's plan policy,
    so every kind is served warm when its signature repeats.  One
    engine of each kind is bound per snapshot (its walk, estimators
    and stationary probabilities); a query runs
    :meth:`~repro.core.two_phase._PhasedEngine.for_query` of it, so
    it builds its session and its streams and nothing else.

    It also sizes the job's takes.  A chunk boundary exists to check
    something, so a job with nothing to enforce — no budget (or one
    with no ceiling) and no deadline — walks each phase in one take; a
    job with a ceiling or an armed deadline is checked every
    ``settings.chunk_peers`` visits.  The rule reads the job alone: a
    take emits one walk and one batch-visit event, so boundaries sized
    from what else is runnable would make a query's trace depend on
    its neighbours.
    """
    budget = job.budget
    if budget is not None and budget.unlimited:
        budget = None
    enforced = budget is not None or job.deadline_ms is not None
    session = simulator.session(seed=job.session_seed)
    if job.deadline_ms is not None:
        session.arm_deadline(job.deadline_ms)
    query = job.query
    kind: Any = TwoPhaseEngine
    if query.group_by is not None:
        kind = GroupByEngine
    elif not query.agg.supports_pushdown:
        kind = MedianEngine
    # The engine bound to this snapshot is built by its first query
    # (of any service with an equal config); every query runs a copy of
    # it with the job's streams.
    config = settings.config
    bound: _PhasedEngine[Any, AggregationQuery, ServedResult] = (
        simulator.derived(
            (kind, config), lambda: kind.for_snapshot(simulator, config)
        )
    )
    engine = bound.for_query(session, job.engine_seed, cache)
    ticket = QueryTicket(
        query_id=job.query_id,
        query=query,
        delta_req=job.delta_req,
        signature=job.signature,
    )
    clock = session.virtual_clock
    tracer: Optional[Tracer] = None
    if job.capture_trace:
        tracer = Tracer(
            time_source=clock.read if clock is not None else None
        )
        tracer.emit(
            QueryLifecycleEvent, job.query_id, "submitted", job.signature, ""
        )
    return ScheduledQuery(
        ticket=ticket,
        steps=engine.run_stepwise(
            query,
            job.delta_req,
            sink=job.sink,
            chunk_peers=settings.chunk_peers if enforced else None,
        ),
        engine=engine,
        budget=budget,
        tracer=tracer,
        deadline_ms=job.deadline_ms,
        clock=clock.read if clock is not None else None,
    )


def drive_task(task: ScheduledQuery) -> Completion:
    """Advance ``task`` chunk by chunk until it completes.

    The same chunk boundaries the round-robin scheduler would hit —
    they were fixed by :func:`build_task` from the job, one per phase
    when there is nothing to enforce — so budget/deadline enforcement
    is unchanged; only the interleaving with *other* queries differs,
    which per-query isolation makes unobservable.
    """
    while True:
        completion = advance_task(task)
        if completion is not None:
            return completion


def _reply_from_completion(completion: Completion) -> QueryReply:
    """Fold one completion into the backend-independent reply shape."""
    task = completion.task
    cost: Optional[QueryCost] = None
    if completion.result is not None:
        cost = completion.result.cost
    elif task.last_checkpoint is not None:
        cost = task.last_checkpoint.ledger.snapshot()
    return QueryReply(
        ticket=task.ticket,
        status=completion.status,
        result=completion.result,
        error=completion.error,
        detail=completion.detail,
        cost=cost,
        chunks=task.chunks,
        tracer=task.tracer,
        warm_runs=task.engine.warm_runs,
        cold_runs=task.engine.cold_runs,
        delta_runs=task.engine.delta_runs,
    )


def _worker_failure(job: QueryJob, error: Exception) -> QueryReply:
    """The ``failed`` reply for a job whose build or drive raised."""
    failure = query_failure(job.query_id, error)
    return QueryReply(
        ticket=QueryTicket(
            job.query_id, job.query, job.delta_req, job.signature
        ),
        status="failed",
        result=None,
        error=failure,
        detail=str(failure),
        cost=None,
        chunks=0,
        tracer=None,
        warm_runs=0,
        cold_runs=0,
        delta_runs=0,
    )


class ExecutionBackend:
    """What the service front-end requires of an execution strategy."""

    #: Human-readable backend name (``"inline"`` / ``"forked"``).
    kind: str = "abstract"

    def submit(self, job: QueryJob) -> None:
        """Accept one admitted job."""
        raise NotImplementedError

    def pump(self) -> List[QueryReply]:
        """One scheduling round; returns the jobs that resolved.

        Guarantees progress: while any job is outstanding, a pump
        either resolves at least one job or advances every running
        one, so driving ``pump`` in a loop always terminates.
        """
        raise NotImplementedError

    @property
    def idle(self) -> bool:
        """Whether no accepted job is unresolved."""
        raise NotImplementedError

    @property
    def backlog(self) -> int:
        """Accepted jobs not yet running."""
        raise NotImplementedError

    @property
    def in_flight(self) -> int:
        """Jobs currently being advanced."""
        raise NotImplementedError

    @property
    def plan_cache(self) -> Optional[PlanCache]:
        """The shared plan cache, when one exists in this process."""
        return None

    def cache_stats(self) -> CacheStats:
        """Aggregated plan-cache counters across the whole backend."""
        raise NotImplementedError

    def rebind(self, simulator: NetworkSimulator) -> None:
        """Serve subsequent jobs from a new snapshot (idle only)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class InlineBackend(ExecutionBackend):
    """Single-process round-robin interleaving (reference semantics)."""

    kind = "inline"

    def __init__(
        self,
        simulator: NetworkSimulator,
        settings: EngineSettings,
        *,
        max_in_flight: int = 4,
    ):
        self._simulator = simulator
        self._settings = settings
        self._scheduler = RoundRobinScheduler(max_in_flight)
        self._cache = PlanCache(
            settings.max_age, settings.decay, settings.delta_reestimation
        )

    def submit(self, job: QueryJob) -> None:
        task = build_task(self._simulator, self._settings, self._cache, job)
        self._scheduler.enqueue(task)

    def pump(self) -> List[QueryReply]:
        return [
            _reply_from_completion(completion)
            for completion in self._scheduler.tick()
        ]

    @property
    def idle(self) -> bool:
        return self._scheduler.idle

    @property
    def backlog(self) -> int:
        return self._scheduler.backlog

    @property
    def in_flight(self) -> int:
        return self._scheduler.in_flight

    @property
    def plan_cache(self) -> Optional[PlanCache]:
        return self._cache

    def cache_stats(self) -> CacheStats:
        return CacheStats(
            hits=self._cache.hits,
            misses=self._cache.misses,
            churn_invalidations=self._cache.churn_invalidations,
            delta_hits=self._cache.delta_hits,
            entries=len(self._cache),
        )

    def rebind(self, simulator: NetworkSimulator) -> None:
        self._simulator = simulator


# ---------------------------------------------------------------------------
# Sharded (forked) backend
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _Rebind:
    """Control message: swap the worker's snapshot (and shm view)."""

    simulator: NetworkSimulator
    manifest: PackManifest


class _ShardWorker:
    """The per-worker job handler (constructed pre-fork, runs post-fork).

    Holds the snapshot (inherited copy-on-write), the engine settings
    and a *private* :class:`PlanCache`.  On the first job after the
    fork it attaches the parent's shared-memory snapshot and adopts
    its flat view, so the worker reads the data columns from genuinely
    shared pages instead of its COW copies.  Walks read the inherited
    topology's CSR arrays, which nothing writes.
    """

    def __init__(
        self,
        simulator: NetworkSimulator,
        settings: EngineSettings,
        manifest: PackManifest,
    ):
        self._simulator = simulator
        self._settings = settings
        self._manifest = manifest
        self._cache = PlanCache(
            settings.max_age, settings.decay, settings.delta_reestimation
        )
        self._view: Optional[SnapshotView] = None
        self._attached = False

    def _attach(self) -> None:
        if self._attached:
            return
        self._attached = True
        self._view = attach_snapshot(self._manifest)
        self._simulator.adopt_flat_dataset(self._view.flat)

    def _rebind(self, control: _Rebind) -> str:
        if self._view is not None:
            self._view.close()
            self._view = None
        self._simulator = control.simulator
        self._manifest = control.manifest
        self._attached = False
        return "rebound"

    def __call__(self, item: Union[QueryJob, _Rebind]) -> object:
        if isinstance(item, _Rebind):
            return self._rebind(item)
        self._attach()
        cache = self._cache
        hits = cache.hits
        misses = cache.misses
        churn = cache.churn_invalidations
        delta = cache.delta_hits
        entries = len(cache)
        try:
            task = build_task(self._simulator, self._settings, cache, item)
            reply = _reply_from_completion(drive_task(task))
        except Exception as error:  # noqa: BLE001 - resolved as a failed reply
            # Raising here would reach the parent with no query id and
            # leave the ticket outstanding forever.
            reply = _worker_failure(item, error)
        trace: Optional[TraceWire] = None
        tracer = reply.tracer
        if tracer is not None:
            # The vt stamps are already baked into the lines; neither
            # the clock nor the tracer crosses the process boundary.
            trace = TraceWire(tracer.digest(), tuple(tracer.lines))
        reply = dataclasses.replace(
            reply,
            tracer=None,
            cache_hits=cache.hits - hits,
            cache_misses=cache.misses - misses,
            cache_churn_invalidations=cache.churn_invalidations - churn,
            cache_delta_hits=cache.delta_hits - delta,
            cache_entries=len(cache) - entries,
        )
        return encode_reply(reply, trace=trace)


@dataclasses.dataclass(frozen=True)
class TransportStats:
    """Measured queue traffic (``measure_transport=True`` only).

    Byte counts re-pickle each shipped payload with the highest
    protocol, so they measure the transport encoding itself, not the
    queue's framing.  ``replies`` counts folded replies (batch
    messages are flattened before the meter sees them).
    """

    job_messages: int
    job_bytes: int
    replies: int
    reply_bytes: int

    @property
    def total_bytes(self) -> int:
        """Job and reply payload bytes combined."""
        return self.job_bytes + self.reply_bytes


class _TransportMeter:
    """Byte accounting for the bench; never on the default hot path."""

    def __init__(self) -> None:
        self.job_messages = 0
        self.job_bytes = 0
        self.replies = 0
        self.reply_bytes = 0

    def record_send(self, pairs: List[Tuple[int, QueryJob]]) -> None:
        self.job_messages += 1
        self.job_bytes += len(
            pickle.dumps(pairs, pickle.HIGHEST_PROTOCOL)
        )

    def record_reply(self, payload: object) -> None:
        self.replies += 1
        self.reply_bytes += len(
            pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        )

    def snapshot(self) -> TransportStats:
        return TransportStats(
            job_messages=self.job_messages,
            job_bytes=self.job_bytes,
            replies=self.replies,
            reply_bytes=self.reply_bytes,
        )


class ForkedBackend(ExecutionBackend):
    """``workers`` forked shard owners over one shared snapshot.

    Jobs route by :func:`shard_for_signature`; each worker drains its
    FIFO to completion per job.  The parent only spawns seeds, routes,
    and folds replies — no query computation happens here.

    Submitted jobs are buffered per worker and flushed as one batch
    message per worker at the next :meth:`pump` (so a burst of
    submissions costs one pickle per worker, not one per job), and
    each worker answers every job of a batch as soon as it ends.

    A traced reply carries its lines and digest; the decoded
    :class:`~repro.service.codec.TraceWire` is the reply's trace.

    Parameters
    ----------
    measure_transport:
        Account queue traffic in :meth:`transport_stats` by
        re-pickling every shipped payload.  Bench-only: doubles
        serialization work, so keep it off in real serving.
    """

    kind = "forked"

    def __init__(
        self,
        simulator: NetworkSimulator,
        settings: EngineSettings,
        workers: int,
        *,
        measure_transport: bool = False,
    ):
        _pool.effective_workers(workers, cap=False, label="QueryService")
        self._settings = settings
        self._workers = workers
        self._simulator = simulator
        self._pack: Optional[SharedArrayPack] = self._export(simulator)
        try:
            self._handler = _ShardWorker(
                simulator, settings, self._pack.manifest
            )
            self._fork_pool = _pool.ForkPool(
                workers, self._handler, name="repro-shard"
            )
        except BaseException:
            # The segment exists the moment _export returns; if the
            # pool can't come up there is no owner left to unlink it
            # later, so retire it here instead of leaking /dev/shm.
            if self._pack is not None:
                self._pack.close()
                self._pack.unlink()
                self._pack = None
            raise
        # Jobs routed but not yet shipped, per worker.
        self._buffered: List[List[Tuple[int, QueryJob]]] = [
            [] for _ in range(workers)
        ]
        # Tickets for every unresolved job, keyed by query id — the
        # slim wire replies carry only the id; the query object never
        # crosses the queue twice.
        self._tickets: Dict[int, QueryTicket] = {}
        # Replies a pump folded before a later payload of the same
        # sweep failed to fold; the next pump delivers them.
        self._ready: List[QueryReply] = []
        self._outstanding = 0
        self._cache_stats = CacheStats(
            hits=0, misses=0, churn_invalidations=0, delta_hits=0, entries=0
        )
        self._transport: Optional[_TransportMeter] = (
            _TransportMeter() if measure_transport else None
        )
        self._closed = False

    @staticmethod
    def _export(simulator: NetworkSimulator) -> SharedArrayPack:
        return export_snapshot(simulator)

    # ------------------------------------------------------------------

    @property
    def workers(self) -> int:
        """Number of shard-owner processes."""
        return self._workers

    def transport_stats(self) -> TransportStats:
        """Measured queue traffic (requires ``measure_transport``)."""
        if self._transport is None:
            raise ConfigurationError(
                "transport accounting is off; construct the backend "
                "with measure_transport=True"
            )
        return self._transport.snapshot()

    def submit(self, job: QueryJob) -> None:
        if self._closed:
            raise ServiceError("the sharded backend is closed")
        if job.deadline_ms is not None:
            # Fail at submit in the parent — not from a worker at
            # drain time — with exactly the errors the inline path's
            # arm_deadline raises: one definition on the simulator.
            self._simulator.validate_deadline(job.deadline_ms)
        worker = shard_for_signature(job.signature, self._workers)
        self._buffered[worker].append((job.query_id, job))
        self._tickets[job.query_id] = QueryTicket(
            query_id=job.query_id,
            query=job.query,
            delta_req=job.delta_req,
            signature=job.signature,
        )
        self._outstanding += 1

    def _flush(self) -> None:
        """Ship every buffered job, one batch message per worker."""
        for worker, pairs in enumerate(self._buffered):
            if not pairs:
                continue
            if self._transport is not None:
                self._transport.record_send(pairs)
            self._fork_pool.send_many(worker, pairs)
            self._buffered[worker] = []

    def _fold(self, payload: object) -> QueryReply:
        if self._transport is not None:
            self._transport.record_reply(payload)
        query_id = reply_query_id(payload)
        ticket = self._tickets.pop(query_id, None)
        if ticket is None:
            raise ServiceError(
                f"worker reply for unknown query {query_id}"
            )
        reply, trace = decode_reply(payload, ticket=ticket)
        if trace is not None:
            reply = dataclasses.replace(reply, tracer=trace)
        self._outstanding -= 1
        stats = self._cache_stats
        self._cache_stats = CacheStats(
            hits=stats.hits + reply.cache_hits,
            misses=stats.misses + reply.cache_misses,
            churn_invalidations=(
                stats.churn_invalidations + reply.cache_churn_invalidations
            ),
            delta_hits=stats.delta_hits + reply.cache_delta_hits,
            entries=stats.entries + reply.cache_entries,
        )
        return reply

    def pump(self) -> List[QueryReply]:
        replies, self._ready = self._ready, []
        if replies or self._outstanding == 0:
            return replies
        self._flush()
        failure: Optional[ServiceError] = None
        # One blocking sweep absorbs every reply already arrived, and
        # always finishes: a payload that fails to fold costs neither
        # the replies folded before it nor the payloads behind it.
        for _, _, payload in self._fork_pool.recv_many():
            try:
                replies.append(self._fold(payload))
            except ServiceError as error:
                failure = failure or error
        if failure is not None:
            self._ready = replies
            raise failure
        return replies

    @property
    def idle(self) -> bool:
        return self._outstanding == 0 and not self._ready

    @property
    def backlog(self) -> int:
        return self._outstanding + len(self._ready)

    @property
    def in_flight(self) -> int:
        # Shipped jobs are indistinguishably queued-or-running from
        # the parent; they are all accounted in backlog.
        return 0

    def cache_stats(self) -> CacheStats:
        return self._cache_stats

    def rebind(self, simulator: NetworkSimulator) -> None:
        if self._closed:
            raise ServiceError("the sharded backend is closed")
        if self._outstanding or self._ready:
            raise ServiceError(
                "cannot rebind while queries are outstanding"
            )
        # Checked up front, before a segment is exported for nothing:
        # a dead worker would never acknowledge, and a send to it
        # raises WorkerPoolError anyway.
        if len(self._fork_pool.alive_workers()) < self._workers:
            raise WorkerPoolError("cannot rebind: a shard worker is dead")
        # Transactional: every parent-side mutation stays staged until
        # the swap cannot fail anymore.  Export first; on any failure
        # through the last acknowledgement, retire the new segment and
        # re-raise with the old simulator, pack and manifests intact.
        # The backend is idle, so the stream holds nothing but acks; an
        # ack that outlives the poll budget stays on it, and the next
        # pump raises ServiceError("unexpected wire payload") for it
        # without losing a reply.
        new_pack = self._export(simulator)
        try:
            control = _Rebind(simulator, new_pack.manifest)
            self._fork_pool.broadcast(0, control)
            for _ in range(self._workers):
                _, _, ack = self._fork_pool.recv()
                if ack != "rebound":
                    raise ServiceError(
                        f"unexpected rebind acknowledgement {ack!r}"
                    )
        except BaseException:
            new_pack.close()
            new_pack.unlink()
            raise
        old_pack = self._pack
        self._simulator = simulator
        self._pack = new_pack
        if old_pack is not None:
            old_pack.close()
            old_pack.unlink()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._buffered = [[] for _ in range(self._workers)]
        self._fork_pool.close()
        if self._pack is not None:
            self._pack.close()
            self._pack.unlink()
            self._pack = None
