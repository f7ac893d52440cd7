"""Exception hierarchy for the ``repro`` package.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


__all__ = [
    "ReproError",
    "ConfigurationError",
    "TopologyError",
    "QueryError",
    "QueryParseError",
    "SamplingError",
    "ProtocolError",
    "PeerUnavailableError",
    "PeerCrashedError",
    "PeerDepartedError",
    "ProbeTimeoutError",
    "StaleReplyError",
    "ChurnError",
    "ServiceError",
    "AdmissionError",
    "BudgetExceededError",
    "DeadlineExceededError",
    "WorkerPoolError",
    "KernelBuildError",
]


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReproError):
    """A parameter or combination of parameters is invalid."""


class TopologyError(ReproError):
    """The network topology is malformed for the requested operation.

    Raised for example when a random walk is started from an isolated
    peer, or when a generator cannot satisfy the requested node/edge
    counts.
    """


class QueryError(ReproError):
    """An aggregation query is malformed or refers to unknown columns."""


class QueryParseError(QueryError):
    """The SQL-ish query text could not be parsed."""


class SamplingError(ReproError):
    """A sampling procedure could not be carried out.

    Raised for example when phase I visited too few peers to
    cross-validate, or when a local database cannot satisfy a
    sub-sample request.
    """


class ProtocolError(ReproError):
    """A message was malformed or sent to an unknown peer."""


class PeerUnavailableError(ProtocolError):
    """A visited peer failed to reply (departure or message loss).

    P2P peers "depart without a priori notification"; engines treat
    this as a lost observation, not a fatal error.
    """


class PeerCrashedError(PeerUnavailableError):
    """The contacted peer is inside a scheduled crash/outage window.

    Unlike a one-off lost reply, the peer stays unreachable for the
    whole window, so retrying the same peer is futile — resilient
    walkers restart from the last good peer instead.
    """


class PeerDepartedError(PeerCrashedError):
    """The contacted peer left the network on the churn timeline.

    Under the discrete-event kernel a departure can happen *mid-flight*
    — the request was sent, but the peer is gone before the reply
    lands.  Like a crash, retrying the same peer is futile, so
    resilient walkers substitute instead of retrying.
    """


class ProbeTimeoutError(PeerUnavailableError):
    """A probe's reply latency exceeded the configured probe timeout.

    The peer is alive but slow (latency spike); a bounded retry with
    backoff is the appropriate recovery.  Under the discrete-event
    kernel the late reply still *delivers* on the virtual clock and is
    traced as a late-delivery event — slow is not lost.
    """


class StaleReplyError(PeerUnavailableError):
    """A reply arrived after the churn epoch moved past its send epoch.

    Raised only when the event-driven simulator runs with
    ``stale_mode="reject"``; engines treat it as a lost observation
    (the sample shrinks), which is the degraded-or-typed-error
    contract for queries racing churn.
    """


class ChurnError(ReproError):
    """A join/leave operation is inconsistent with the current network."""


class ServiceError(ReproError):
    """The query-serving layer could not carry out a request."""


class AdmissionError(ServiceError):
    """The service's bounded admission queue is full (backpressure).

    The submitter should retry later or shed load; admitted queries
    are unaffected.
    """


class BudgetExceededError(ServiceError):
    """A query hit its per-query cost budget and was stopped.

    Budgets are enforced at chunk boundaries, so the recorded cost can
    exceed the ceiling by at most one chunk's worth of work.
    """


class DeadlineExceededError(ServiceError):
    """A query's virtual-time deadline passed before it finished.

    Deadlines are enforced at chunk boundaries on the session's
    virtual clock (they require an event-driven simulator), so like
    budgets the overshoot is bounded by one chunk's worth of work.
    """


class WorkerPoolError(ServiceError):
    """A forked worker pool failed operationally.

    Raised when a worker process dies with jobs outstanding, when the
    pool is used after :meth:`~repro._pool.ForkPool.close`, or when
    workers go silent past the liveness budget.  Distinct from errors
    *computed by* a worker, which are shipped back and re-raised with
    their original type.
    """


class KernelBuildError(ReproError):
    """The compiled walk loop could not be built on first import.

    Raised when the C compiler Python was built with is missing or
    fails, or when the per-user cache directory the library is written
    to is not writable; the message names the compiler command and the
    directory.  There is no interpreted fallback.
    """
