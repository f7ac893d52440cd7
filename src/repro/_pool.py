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
replies cross the pipes.  Platforms without ``fork`` (Windows, some
macOS configurations) are reported by :func:`fork_available`; callers
fall back to their serial paths.

Transport: each worker has a job pipe and a reply pipe of its own and
holds only its ends of them.  A reply leaves its worker when its job
ends, not when its batch does.  The worker's send blocks until the
parent reads, so the parent never blocks writing a job pipe: it writes
what the pipe takes and finishes the rest while it waits for replies.
Neither side runs a thread.

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
import pickle
import selectors
import struct
import warnings
import weakref
from multiprocessing.context import BaseContext
from multiprocessing.process import BaseProcess
from multiprocessing.reduction import ForkingPickler
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    List,
    Optional,
    Set,
    Tuple,
)

from .errors import ConfigurationError, WorkerPoolError
from .network.simulator import NetworkSimulator

if TYPE_CHECKING:  # imported by the first pool built, not by serving
    from multiprocessing.connection import Connection

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

    A fault-injected simulator threads one fault clock through every
    execution that runs directly against it, so running such
    executions in parallel would change which probes fail.  Returns
    ``None`` when parallel execution is safe.

    This only applies to callers that share the simulator itself
    (``run_trials`` builds every trial engine on the one bundle
    simulator).  The serving layer is exempt by construction: each
    query runs in its own :meth:`~repro.network.simulator.
    NetworkSimulator.session`, which owns a private fault clock, so the
    sharded backend serves faulty snapshots without falling back.
    """
    if simulator.fault_plan is not None:
        return "the bound fault plan shares the simulator's fault clock"
    return None


# One warning per process when a pool is oversubscribed — bench sweeps
# create pools hundreds of times and the core count is a property of
# the process, not the call.  Shared by run_trials *and* the sharded
# serving backend so both entry points warn identically, exactly once.
_WORKER_CAP_WARNED = False


def available_cores() -> int:
    """The CPUs this process may run on, not the host's count.

    Under an affinity mask or a cpuset the two differ; the mask is what
    bounds real parallelism.  Platforms without
    :func:`os.sched_getaffinity` fall back to :func:`os.cpu_count`.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    cores = available_cores()
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


@dataclasses.dataclass(frozen=True)
class _JobBatch:
    """Tagged jobs shipped as one job-pipe message (one pickle)."""

    pairs: Tuple[Tuple[int, Any], ...]


#: poll(2) where the platform has it, as multiprocessing.connection
#: picks for its wait().
_Selector = getattr(selectors, "PollSelector", selectors.SelectSelector)

#: The parent-side pipe ends of every live pool.  A worker closes all
#: of them at start, so it holds only its own two ends: a pipe whose
#: far end only its owner holds reports EOF when that owner goes.
_PARENT_ENDS: "weakref.WeakSet[Connection]" = weakref.WeakSet()


#: Length prefix of a job-pipe message.
_FRAME = struct.Struct("!Q")


def _read_exact(fd: int, size: int) -> bytearray:
    data = bytearray()
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            raise EOFError
        data += chunk
    return data


def _worker_main(
    handler: Callable[[Any], Any],
    inbox: Connection,
    outbox: Connection,
    foreign: List[Connection],
) -> None:
    """One worker's job loop: FIFO over its job pipe until a pipe closes.

    Each reply is sent the moment its job ends.  A handler exception is
    shipped back as :class:`_Raised` (the parent re-raises it at
    ``recv``), so a failed job in a batch fills its own slot only.
    """
    for end in foreign:
        end.close()
    jobs = inbox.fileno()
    try:
        while True:
            (size,) = _FRAME.unpack(_read_exact(jobs, _FRAME.size))
            batch: _JobBatch = pickle.loads(_read_exact(jobs, size))
            for tag, item in batch.pairs:
                try:
                    payload: Any = handler(item)
                except BaseException as error:  # noqa: BLE001 - shipped upstream
                    payload = _Raised(error)
                outbox.send((tag, payload))
    except (EOFError, OSError):
        return  # the parent closed its end: shutdown


class ForkPool:
    """``workers`` forked processes running ``handler`` over tagged jobs.

    Jobs sent to worker ``w`` execute in send order (the property the
    sharded backend's per-signature protocol rests on), and each reply
    leaves its worker when its job ends.  The handler travels to the
    workers via fork copy-on-write; per-worker mutable handler state
    (e.g. a plan cache) simply diverges per process after the fork.

    :meth:`recv`/:meth:`recv_many` read one stream over every reply
    pipe, waiting on the pipes and the process sentinels together
    (what :func:`multiprocessing.connection.wait` does, with the
    registration kept for the pool's life).  A dead worker shows up as
    EOF or its sentinel: its finished replies are delivered first,
    then every receive — and any send to it — raises
    :class:`~repro.errors.WorkerPoolError`, as does silence past the
    poll budget.
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
        self._processes: List[BaseProcess] = []
        self._outboxes: List[Connection] = []
        # A live worker's reply pipe and sentinel, each tagged with its
        # index, registered once: a wake-up runs one poll and none of
        # the selector set-up a wait() call repeats.  A dead worker
        # leaves it for _dead.  A job pipe is registered for writing
        # while its backlog holds bytes.
        self._selector = _Selector()
        self._dead: List[int] = []
        # The parent's job-pipe ends, non-blocking: a worker's reply
        # send blocks until the parent reads, so a parent blocked on a
        # full job pipe could wait on a worker that waits on it.  What
        # a write cannot take waits in the worker's backlog.
        self._inboxes: List[Connection] = []
        self._backlogs = [bytearray() for _ in range(workers)]
        self._writing: Set[int] = set()
        for index in range(workers):
            inbox, job_end = context.Pipe(duplex=False)
            reply_end, outbox = context.Pipe(duplex=False)
            os.set_blocking(job_end.fileno(), False)
            _PARENT_ENDS.update((job_end, reply_end))
            process = context.Process(
                target=_worker_main,
                args=(handler, inbox, outbox, list(_PARENT_ENDS)),
                name=f"{name}-{index}",
                daemon=True,
            )
            process.start()
            inbox.close()
            outbox.close()
            self._processes.append(process)
            self._inboxes.append(job_end)
            self._outboxes.append(reply_end)
            self._selector.register(reply_end, selectors.EVENT_READ, index)
            self._selector.register(
                process.sentinel, selectors.EVENT_READ, index
            )
        # Replies read off the pipes but not yet handed to a caller.
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
        """Queue one job on ``worker``'s FIFO job pipe."""
        self.send_many(worker, [(tag, item)])

    def broadcast(self, tag: int, item: Any) -> None:
        """Queue the same job on every worker's job pipe."""
        for worker in range(len(self._processes)):
            self.send(worker, tag, item)

    def send_many(
        self, worker: int, pairs: List[Tuple[int, Any]]
    ) -> None:
        """Queue several ``(tag, item)`` jobs as ONE job-pipe message.

        One pickle and one pipe write for the whole batch; the worker
        runs the jobs in order and sends each reply as its job ends,
        so ``recv``/``recv_many`` see per-job ``(worker, tag,
        payload)`` replies.
        """
        self._check_open(worker)
        if not pairs:
            return
        if worker in self._dead or not self._processes[worker].is_alive():
            raise WorkerPoolError(
                f"cannot send to worker {worker}: its process is dead"
            )
        batch = ForkingPickler.dumps(_JobBatch(tuple(pairs)))
        backlog = self._backlogs[worker]
        backlog += _FRAME.pack(len(batch))
        backlog += batch
        self._push(worker)

    def _push(self, worker: int) -> None:
        """Write what ``worker``'s job pipe takes now, without blocking;
        keep its pipe registered for writing while bytes remain."""
        backlog = self._backlogs[worker]
        inbox = self._inboxes[worker]
        try:
            del backlog[:os.write(inbox.fileno(), backlog)]
        except BlockingIOError:
            pass
        except OSError:
            backlog.clear()  # EPIPE: the worker is gone; recv says so
        if backlog and worker not in self._writing:
            self._selector.register(inbox, selectors.EVENT_WRITE, worker)
            self._writing.add(worker)
        elif not backlog and worker in self._writing:
            self._selector.unregister(inbox)
            self._writing.discard(worker)

    def _pop_pending(self) -> Tuple[int, int, Any]:
        worker, tag, payload = self._pending.popleft()
        if isinstance(payload, _Raised):
            raise payload.error
        return worker, tag, payload

    def _await(self, poll_s: float, max_polls: int) -> None:
        """Read replies until one is pending, crash-aware."""
        polls = 0
        while not self._pending:
            if self._dead:
                for index in self._dead:
                    self._processes[index].join(timeout=1.0)  # exiting
                raise WorkerPoolError(
                    "worker process(es) died with jobs outstanding: "
                    + ", ".join(
                        f"worker {index} "
                        f"(exit code {self._processes[index].exitcode})"
                        for index in self._dead
                    )
                )
            ready = self._selector.select(poll_s)
            if not ready:
                polls += 1
                if polls >= max_polls:
                    raise WorkerPoolError(
                        f"no reply after {polls} polls of "
                        f"{poll_s:g}s; workers are alive but silent"
                    )
                continue
            while ready:  # until every pipe is read empty
                for key, _ in ready:
                    if key.events & selectors.EVENT_WRITE:
                        self._push(key.data)
                    else:
                        self._read(key)
                ready = self._selector.select(0)

    def _read(self, key: selectors.SelectorKey) -> None:
        """Pend the reply ``key``'s pipe holds, or, at EOF or the
        worker's sentinel, everything it holds; then the worker is
        dead."""
        index: int = key.data
        outbox = self._outboxes[index]
        if index in self._dead:
            return
        try:
            if key.fileobj is outbox:
                self._pending.append((index, *outbox.recv()))
                return
            while outbox.poll():  # the process is gone
                self._pending.append((index, *outbox.recv()))
        except (EOFError, OSError):
            pass  # EOF: the worker's end of the pipe closed
        self._selector.unregister(outbox)
        self._selector.unregister(self._processes[index].sentinel)
        self._dead.append(index)

    def recv(
        self, *, poll_s: float = 0.05, max_polls: int = 6000
    ) -> Tuple[int, int, Any]:
        """The next ``(worker, tag, payload)`` reply, crash-aware.

        A worker that died mid-job surfaces as a
        :class:`~repro.errors.WorkerPoolError` once its finished
        replies are delivered, instead of a hang; a handler exception
        shipped back by a live worker is re-raised here with its
        original type.
        """
        self._check_open()
        self._await(poll_s, max_polls)
        return self._pop_pending()

    def recv_many(
        self, *, poll_s: float = 0.05, max_polls: int = 6000
    ) -> List[Tuple[int, int, Any]]:
        """At least one reply, plus everything else already arrived.

        Blocks (crash-aware, like :meth:`recv`) until something is
        available, then reads every ready pipe empty without blocking.

        A shipped handler exception re-raises with its original type,
        but never swallows replies: the sweep stops *before* the
        failed slot when it already collected something, so the
        exception surfaces on the next call instead.
        """
        self._check_open()
        self._await(poll_s, max_polls)
        replies: List[Tuple[int, int, Any]] = []
        while self._pending:
            if replies and isinstance(self._pending[0][2], _Raised):
                break
            replies.append(self._pop_pending())
        return replies

    def close(self, *, join_timeout_s: float = 10.0) -> None:
        """Stop every worker and reap the processes (idempotent).

        A worker blocked writing a reply fails with EPIPE and exits; an
        idle one reads EOF on its job pipe.
        """
        if self._closed:
            return
        self._closed = True
        self._pending.clear()
        self._selector.close()
        for outbox in self._outboxes:
            outbox.close()
        for inbox in self._inboxes:
            inbox.close()
        for process in self._processes:
            process.join(timeout=join_timeout_s)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=join_timeout_s)

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
