"""Fork-based worker-pool machinery shared by every parallel entry point.

Two callers fan work out across processes: the multi-trial experiment
harness (:func:`repro.experiments.runner.run_trials`) and the sharded
serving backend (:class:`repro.service.backend.ForkedBackend`).  Both
go through this module so the operational behaviour — fork
availability probing, the once-per-process ``workers > cores``
warning, crash detection, clean shutdown — cannot drift between them,
and so ``reprolint``'s RL008 fork-surface check can pin the rule that
*only this module* touches :mod:`multiprocessing` directly.

The pool is deliberately fork-only.  With the ``fork`` start method a
worker inherits the parent's address space copy-on-write, so the big
read-only job context (simulator snapshot, engine config, plan-cache
shell) travels to the workers for free — captured by the handler
closure at construction time — and only small per-job messages and
replies cross the queues.  Platforms without ``fork`` (Windows, some
macOS configurations) are reported by :func:`fork_available`; callers
fall back to their serial paths.

Determinism: the pool itself draws no randomness and imposes no
ordering of its own.  Callers that need deterministic results tag
every job and reassemble replies by tag (``run_trials``) or route jobs
so that order-sensitive traffic shares a FIFO (the sharded backend's
signature-owner protocol).
"""

from __future__ import annotations

import collections
import dataclasses
import multiprocessing
import os
import queue
import warnings
from multiprocessing.context import BaseContext
from typing import Any, Callable, Deque, List, Optional, Tuple

from .errors import ConfigurationError, WorkerPoolError
from .network.simulator import NetworkSimulator

__all__ = [
    "ForkPool",
    "effective_workers",
    "fork_available",
    "run_forked_map",
    "shared_fault_serial_reason",
]


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def shared_fault_serial_reason(
    simulator: NetworkSimulator,
) -> Optional[str]:
    """Why executions sharing *this* simulator must run serially.

    Fault-injected simulators thread one failure stream and one fault
    clock through every execution that runs directly against them, so
    running such executions in parallel would change which probes
    fail.  Returns ``None`` when parallel execution is safe.

    This only applies to callers that share the simulator itself
    (``run_trials`` builds every trial engine on the one bundle
    simulator).  The serving layer is exempt by construction: each
    query runs in its own :meth:`~repro.network.simulator.
    NetworkSimulator.session`, which owns a private failure RNG and
    fault clock, so the sharded backend serves faulty snapshots
    without falling back.
    """
    if simulator.reply_loss_rate > 0.0:
        return "reply loss shares the simulator's failure stream"
    if simulator.fault_plan is not None:
        return "the bound fault plan shares the simulator's fault clock"
    return None


# One warning per process when a pool is oversubscribed — bench sweeps
# create pools hundreds of times and the core count is a property of
# the machine, not the call.  Shared by run_trials *and* the sharded
# serving backend so both entry points warn identically, exactly once.
_WORKER_CAP_WARNED = False


def effective_workers(
    requested: int,
    *,
    jobs: Optional[int] = None,
    cap: bool = True,
    label: str = "worker pool",
) -> int:
    """The worker count to actually use, warning on oversubscription.

    With ``cap=True`` (the experiment harness) the pool is clamped to
    ``min(requested, jobs, cores)`` — extra forks beyond the machine
    only add overhead, and results are identical either way.  With
    ``cap=False`` (the sharded serving backend) the requested count is
    honoured — shard ownership is part of the routing protocol, so the
    caller keeps its layout — but the same once-per-process warning
    still fires so an oversubscribed box never *silently* looks
    parallel.
    """
    if requested < 1:
        raise ConfigurationError("workers must be >= 1")
    cores = os.cpu_count() or 1
    granted = requested
    if cap:
        granted = min(granted, cores)
        if jobs is not None:
            granted = min(granted, jobs)
    global _WORKER_CAP_WARNED
    if requested > cores and not _WORKER_CAP_WARNED:
        _WORKER_CAP_WARNED = True
        if granted < requested:
            detail = f"capping the pool at {granted} worker(s)"
        else:
            detail = (
                "the extra workers add scheduling overhead, not "
                "parallelism"
            )
        warnings.warn(
            f"{label}: {requested} workers requested but only {cores} "
            f"CPU core(s) are available; {detail}",
            RuntimeWarning,
            stacklevel=3,
        )
    return granted


@dataclasses.dataclass
class _Raised:
    """A handler exception, shipped back to the parent for re-raising."""

    error: BaseException
    where: str


@dataclasses.dataclass(frozen=True)
class _JobBatch:
    """Several tagged jobs shipped as one inbox message (one pickle)."""

    pairs: Tuple[Tuple[int, Any], ...]


@dataclasses.dataclass(frozen=True)
class _ReplyBatch:
    """One batch's replies, coalesced into one outbox message."""

    pairs: Tuple[Tuple[int, Any], ...]


#: Worker-slot tag on a batched outbox message; the real per-job tags
#: live inside the :class:`_ReplyBatch` and reappear when the parent
#: flattens it, so this value is never visible to callers.
_BATCH_TAG = -1


def _worker_main(
    index: int,
    handler: Callable[[Any], Any],
    inbox: Any,
    outbox: Any,
) -> None:
    """One worker's job loop: FIFO over the inbox until the sentinel.

    Handler exceptions are shipped back as :class:`_Raised` rather
    than killing the worker — the parent re-raises them at ``recv``.
    A :class:`_JobBatch` runs in order and answers with one
    :class:`_ReplyBatch` (per-job failures fill their slot without
    aborting the rest of the batch).
    """
    while True:
        message = inbox.get()
        if message is None:
            return
        if isinstance(message, _JobBatch):
            replies: List[Tuple[int, Any]] = []
            for tag, item in message.pairs:
                try:
                    payload: Any = handler(item)
                except BaseException as error:  # noqa: BLE001 - shipped upstream
                    payload = _Raised(error=error, where=repr(item))
                replies.append((tag, payload))
            outbox.put((index, _BATCH_TAG, _ReplyBatch(tuple(replies))))
            continue
        tag, item = message
        try:
            payload = handler(item)
        except BaseException as error:  # noqa: BLE001 - shipped upstream
            outbox.put((index, tag, _Raised(error=error, where=repr(item))))
        else:
            outbox.put((index, tag, payload))


class ForkPool:
    """``workers`` forked processes running ``handler`` over tagged jobs.

    Each worker owns a FIFO inbox (jobs sent to worker ``w`` execute in
    send order — the property the sharded backend's per-signature
    protocol rests on) and all workers share one reply queue.  The
    handler is captured at construction and travels to the workers via
    fork copy-on-write; per-worker mutable handler state (e.g. a plan
    cache) simply diverges per process after the fork.

    Replies to :meth:`send`/:meth:`send_many` stream back through
    :meth:`recv`/:meth:`recv_many`, one stream for every worker.

    The pool never hangs on a crashed worker: every blocking receive
    polls with a timeout and raises
    :class:`~repro.errors.WorkerPoolError` when a worker died with
    jobs outstanding.
    """

    def __init__(
        self,
        workers: int,
        handler: Callable[[Any], Any],
        *,
        name: str = "repro-pool",
    ):
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if not fork_available():
            raise ConfigurationError(
                "this platform has no fork start method; use the "
                "caller's serial path instead"
            )
        context: BaseContext = multiprocessing.get_context("fork")
        self._outbox = context.Queue()
        self._inboxes = [context.SimpleQueue() for _ in range(workers)]
        self._processes = [
            context.Process(
                target=_worker_main,
                args=(index, handler, self._inboxes[index], self._outbox),
                name=f"{name}-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        for process in self._processes:
            process.start()
        # Replies already pulled off the outbox but not yet handed to a
        # caller: batched messages flatten into here, so recv and
        # recv_many see one uniform stream of (worker, tag, payload).
        self._pending: Deque[Tuple[int, int, Any]] = collections.deque()
        self._closed = False

    # ------------------------------------------------------------------

    @property
    def workers(self) -> int:
        """Number of worker processes."""
        return len(self._processes)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def alive_workers(self) -> List[int]:
        """Indices of workers whose processes are still running."""
        return [
            index
            for index, process in enumerate(self._processes)
            if process.is_alive()
        ]

    def _check_open(self, worker: int = 0) -> None:
        if self._closed:
            raise WorkerPoolError("pool is closed")
        if not 0 <= worker < len(self._processes):
            raise ConfigurationError(f"unknown worker {worker}")

    def send(self, worker: int, tag: int, item: Any) -> None:
        """Enqueue one job on ``worker``'s FIFO inbox."""
        self._check_open(worker)
        self._inboxes[worker].put((tag, item))

    def broadcast(self, tag: int, item: Any) -> None:
        """Enqueue the same job on every worker's inbox."""
        for worker in range(len(self._processes)):
            self.send(worker, tag, item)

    def send_many(
        self, worker: int, pairs: List[Tuple[int, Any]]
    ) -> None:
        """Enqueue several ``(tag, item)`` jobs as ONE inbox message.

        One pickle and one pipe write for the whole batch; the worker
        runs the jobs in order and answers with one coalesced reply
        message, which ``recv``/``recv_many`` flatten back into
        per-job ``(worker, tag, payload)`` replies.
        """
        self._check_open(worker)
        if not pairs:
            return
        self._inboxes[worker].put(_JobBatch(tuple(pairs)))

    def _buffer(self, worker: int, tag: int, payload: Any) -> None:
        if isinstance(payload, _ReplyBatch):
            for sub_tag, sub_payload in payload.pairs:
                self._pending.append((worker, sub_tag, sub_payload))
        else:
            self._pending.append((worker, tag, payload))

    def _pop_pending(self) -> Tuple[int, int, Any]:
        worker, tag, payload = self._pending.popleft()
        if isinstance(payload, _Raised):
            raise payload.error
        return worker, tag, payload

    def _await(self, poll_s: float, max_polls: int) -> None:
        """Buffer arriving messages until one is pending, crash-aware."""
        polls = 0
        while not self._pending:
            try:
                worker, tag, payload = self._outbox.get(timeout=poll_s)
            except queue.Empty:
                dead = [
                    (index, process.exitcode)
                    for index, process in enumerate(self._processes)
                    if not process.is_alive()
                ]
                if dead:
                    raise WorkerPoolError(
                        "worker process(es) died with jobs outstanding: "
                        + ", ".join(
                            f"worker {index} (exit code {code})"
                            for index, code in dead
                        )
                    ) from None
                polls += 1
                if polls >= max_polls:
                    raise WorkerPoolError(
                        f"no reply after {polls} polls of "
                        f"{poll_s:g}s; workers are alive but silent"
                    ) from None
                continue
            self._buffer(worker, tag, payload)

    def _drain_outbox(self) -> None:
        """Pull every already-arrived message into the pending deque."""
        while True:
            try:
                worker, tag, payload = self._outbox.get_nowait()
            except queue.Empty:
                return
            self._buffer(worker, tag, payload)

    def recv(
        self, *, poll_s: float = 0.05, max_polls: int = 6000
    ) -> Tuple[int, int, Any]:
        """The next ``(worker, tag, payload)`` reply, crash-aware.

        Blocks in short polls so a worker that died mid-job surfaces
        as a :class:`~repro.errors.WorkerPoolError` instead of a hang;
        a handler exception shipped back by a live worker is re-raised
        here with its original type.
        """
        self._check_open()
        self._await(poll_s, max_polls)
        return self._pop_pending()

    def recv_many(
        self, *, poll_s: float = 0.05, max_polls: int = 6000
    ) -> List[Tuple[int, int, Any]]:
        """At least one reply, plus everything else already arrived.

        Blocks (crash-aware, like :meth:`recv`) until something is
        available, then drains the outbox without blocking — so one
        call absorbs a whole reply batch, or several, in one sweep.

        A shipped handler exception re-raises with its original type,
        but never swallows replies: the sweep stops *before* the
        failed slot when it already collected something, so the
        exception surfaces on the next call instead.
        """
        self._check_open()
        self._await(poll_s, max_polls)
        self._drain_outbox()
        replies: List[Tuple[int, int, Any]] = []
        while self._pending:
            if replies and isinstance(self._pending[0][2], _Raised):
                break
            replies.append(self._pop_pending())
        return replies

    def close(self, *, join_timeout_s: float = 10.0) -> None:
        """Stop every worker and reap the processes (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._pending.clear()
        for inbox in self._inboxes:
            try:
                inbox.put(None)
            except (OSError, ValueError):  # worker already gone
                pass
        # Drain stray replies so no worker blocks on a full pipe
        # while we join it.
        while True:
            try:
                self._outbox.get_nowait()
            except queue.Empty:
                break
        for process in self._processes:
            process.join(timeout=join_timeout_s)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=join_timeout_s)
        self._outbox.cancel_join_thread()
        self._outbox.close()

    def __enter__(self) -> "ForkPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def run_forked_map(
    handler: Callable[[Any], Any],
    items: List[Any],
    workers: int,
    *,
    name: str = "repro-map",
) -> List[Any]:
    """``[handler(item) for item in items]`` on a fork pool.

    Items are dealt round-robin and replies reassembled by tag, so the
    returned list matches the serial comprehension element for element
    regardless of worker count or completion order.
    """
    results: List[Any] = [None] * len(items)
    with ForkPool(workers, handler, name=name) as pool:
        for tag, item in enumerate(items):
            pool.send(tag % pool.workers, tag, item)
        for _ in items:
            _, tag, payload = pool.recv()
            results[tag] = payload
    return results
