"""Query-execution cost accounting (paper §3.2).

The cost of a P2P query is "a combination of several quantities":
participating peers, bandwidth, messages, latency, local I/O and CPU.
:class:`CostLedger` accumulates all of them as the simulator routes
messages and visits peers; :class:`QueryCost` is the frozen snapshot
experiments report.

The latency model follows the paper's argument: the walk is sequential,
so each hop adds a network delay; each visit adds local processing time
(inversely proportional to the peer's CPU speed); replies travel
directly back to the sink and add transfer time proportional to their
size.  For COUNT/SUM with push-down, replies are tiny and latency is
dominated by hops + visits — which is why the paper treats "number of
peers visited" as the cost, and why we report both.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Set

import numpy as np
from numpy.typing import ArrayLike

from .._util import check_nonnegative
from ..errors import ConfigurationError


__all__ = [
    "CostModel",
    "QueryCost",
    "CostLedger",
]


@dataclasses.dataclass(frozen=True)
class CostModel:
    """Unit costs used to convert events into simulated latency.

    Attributes
    ----------
    hop_latency_ms:
        One-way delay of forwarding a message one hop.
    byte_latency_ms:
        Transfer time per payload byte (inverse bandwidth).
    tuple_processing_ms:
        CPU time to scan one tuple at a reference-speed peer.
    visit_overhead_ms:
        Fixed per-visit overhead (connection setup, query dispatch) —
        the "overheads of visiting peers" that dominate (§3.2).
    """

    hop_latency_ms: float = 50.0
    byte_latency_ms: float = 0.001
    tuple_processing_ms: float = 0.01
    visit_overhead_ms: float = 25.0

    def __post_init__(self) -> None:
        check_nonnegative("hop_latency_ms", self.hop_latency_ms)
        check_nonnegative("byte_latency_ms", self.byte_latency_ms)
        check_nonnegative("tuple_processing_ms", self.tuple_processing_ms)
        check_nonnegative("visit_overhead_ms", self.visit_overhead_ms)


@dataclasses.dataclass(frozen=True)
class QueryCost:
    """Frozen cost snapshot for one query execution.

    ``peers_visited`` counts *visits* (with multiplicity — re-visiting
    a peer costs again); ``distinct_peers`` counts unique peers.
    """

    messages: int = 0
    hops: int = 0
    peers_visited: int = 0
    distinct_peers: int = 0
    tuples_processed: int = 0
    tuples_sampled: int = 0
    bytes_sent: int = 0
    latency_ms: float = 0.0
    timeouts: int = 0

    def __add__(self, other: "QueryCost") -> "QueryCost":
        if not isinstance(other, QueryCost):
            return NotImplemented
        return QueryCost(
            messages=self.messages + other.messages,
            hops=self.hops + other.hops,
            peers_visited=self.peers_visited + other.peers_visited,
            distinct_peers=max(self.distinct_peers, other.distinct_peers),
            tuples_processed=self.tuples_processed + other.tuples_processed,
            tuples_sampled=self.tuples_sampled + other.tuples_sampled,
            bytes_sent=self.bytes_sent + other.bytes_sent,
            latency_ms=self.latency_ms + other.latency_ms,
            timeouts=self.timeouts + other.timeouts,
        )


class CostLedger:
    """Mutable accumulator of query-execution costs.

    One ledger lives for the duration of one query; the simulator
    writes into it and the result object exposes the final
    :class:`QueryCost` snapshot.
    """

    def __init__(self, model: Optional[CostModel] = None):
        self._model = model or CostModel()
        self._messages = 0
        self._hops = 0
        self._visits = 0
        self._distinct: Set[int] = set()
        self._tuples_processed = 0
        self._tuples_sampled = 0
        self._bytes = 0
        self._latency_ms = 0.0
        self._timeouts = 0

    @property
    def model(self) -> CostModel:
        """The unit-cost model in effect."""
        return self._model

    def record_hops(self, hops: int, message_bytes: int = 23) -> None:
        """Account for ``hops`` sequential walker forwards."""
        if hops < 0:
            raise ConfigurationError("hops must be non-negative")
        self._hops += hops
        self._messages += hops
        self._bytes += hops * message_bytes
        self._latency_ms += hops * (
            self._model.hop_latency_ms
            + message_bytes * self._model.byte_latency_ms
        )

    def record_visit(
        self,
        peer: int,
        tuples_processed: int,
        tuples_sampled: int,
        cpu_speed: float = 1.0,
    ) -> None:
        """Account for executing the local query at ``peer``."""
        if tuples_processed < 0 or tuples_sampled < 0:
            raise ConfigurationError("tuple counts must be non-negative")
        if cpu_speed <= 0:
            raise ConfigurationError("cpu_speed must be positive")
        self._visits += 1
        self._distinct.add(int(peer))
        self._tuples_processed += tuples_processed
        self._tuples_sampled += tuples_sampled
        self._latency_ms += (
            self._model.visit_overhead_ms
            + tuples_processed * self._model.tuple_processing_ms / cpu_speed
        )

    def record_visit_replies(
        self,
        peers: ArrayLike,
        tuples_processed: ArrayLike,
        tuples_sampled: ArrayLike,
        reply_bytes: ArrayLike,
        cpu_speeds: Optional[ArrayLike] = None,
        leading_replies: int = 0,
    ) -> None:
        """Bulk-account a sequence of visit + reply pairs.

        Equivalent to alternating :meth:`record_visit` /
        :meth:`record_reply` calls, one pair per entry, in order — the
        latency accumulator is advanced with the same additions in the
        same sequence, so totals are bit-for-bit identical to the
        per-event path.  Used by the simulator's batch visits.  A visit
        that sends ``leading_replies`` replies (a panel's ``k``) is
        charged after them instead: ``k`` :meth:`record_reply` calls,
        then its :meth:`record_visit`.

        A scalar ``reply_bytes`` is every reply's size; passing the
        same array as ``tuples_processed`` and ``tuples_sampled`` reads
        it once.
        """
        peers = np.asarray(peers, dtype=np.int64).reshape(-1)
        same = tuples_sampled is tuples_processed
        tuples_processed = np.asarray(tuples_processed, dtype=np.int64)
        tuples_sampled = (
            tuples_processed if same
            else np.asarray(tuples_sampled, dtype=np.int64)
        )
        reply_bytes = np.asarray(reply_bytes, dtype=np.int64)
        n = peers.size
        if not (
            tuples_processed.shape == (n,)
            and tuples_sampled.shape == (n,)
            and reply_bytes.shape in ((), (n,))
        ):
            raise ConfigurationError(
                "per-visit arrays must align with the peer list"
            )
        if n == 0:
            return
        if tuples_processed.min() < 0 or (
            not same and tuples_sampled.min() < 0
        ):
            raise ConfigurationError("tuple counts must be non-negative")
        if reply_bytes.min() < 0:
            raise ConfigurationError("payload_bytes must be non-negative")
        if cpu_speeds is None:
            cpu_speeds = np.ones(n, dtype=np.float64)
        else:
            cpu_speeds = np.asarray(cpu_speeds, dtype=np.float64)
            if cpu_speeds.shape != (n,):
                raise ConfigurationError(
                    "cpu_speeds must align with the peer list"
                )
            if cpu_speeds.min() <= 0:
                raise ConfigurationError("cpu_speed must be positive")

        # Order-independent integer totals vectorize freely ...
        replies = leading_replies or 1
        self._visits += n
        self._distinct.update(peers.tolist())
        processed = int(tuples_processed.sum())
        self._tuples_processed += processed
        self._tuples_sampled += (
            processed if same else int(tuples_sampled.sum())
        )
        self._messages += n * replies
        self._bytes += replies * (
            int(reply_bytes.sum()) if reply_bytes.ndim else n * int(reply_bytes)
        )
        # ... but float accumulation must replay the per-event order
        # (visit overhead + processing, then reply transfer, per peer —
        # or the leading replies first) to land on the identical
        # rounded value.  ``np.cumsum`` adds strictly left to right, so
        # its last entry is that replay.
        steps = np.empty(n * (replies + 1) + 1, dtype=np.float64)
        steps[0] = self._latency_ms
        per_visit = steps[1:].reshape(n, replies + 1)
        per_visit[:] = (reply_bytes * self._model.byte_latency_ms).reshape(-1, 1)
        per_visit[:, replies if leading_replies else 0] = (
            self._model.visit_overhead_ms
            + tuples_processed * self._model.tuple_processing_ms / cpu_speeds
        )
        self._latency_ms = float(np.cumsum(steps)[-1])

    def record_timeout(self, peer: int, waited_ms: float) -> None:
        """Account for a probe that never completed (crash or timeout).

        The contact attempt counts as a visit (the peer was reached and
        the overheads of contacting it were paid) but no tuples were
        processed and no reply arrived; the sink idled for
        ``waited_ms`` before giving up.
        """
        if waited_ms < 0:
            raise ConfigurationError("waited_ms must be non-negative")
        self._visits += 1
        self._distinct.add(int(peer))
        self._timeouts += 1
        self._latency_ms += waited_ms

    def record_wait(self, wait_ms: float) -> None:
        """Account for sink-side idle time (backoff, latency spikes).

        Pure latency: no messages, visits or bytes are charged.
        """
        if wait_ms < 0:
            raise ConfigurationError("wait_ms must be non-negative")
        self._latency_ms += wait_ms

    def record_reply(self, payload_bytes: int) -> None:
        """Account for a direct reply message back to the sink."""
        if payload_bytes < 0:
            raise ConfigurationError("payload_bytes must be non-negative")
        self._messages += 1
        self._bytes += payload_bytes
        # Replies travel directly (visited peer knows the sink's IP),
        # overlapping with the walk; only transfer time is added.
        self._latency_ms += payload_bytes * self._model.byte_latency_ms

    def record_flood_message(self, message_bytes: int) -> None:
        """Account for one flooding (BFS) message."""
        if message_bytes < 0:
            raise ConfigurationError("message_bytes must be non-negative")
        self._messages += 1
        self._bytes += message_bytes
        # Flooding fans out in parallel; per-message latency is not
        # serialized, so floods charge bandwidth + messages and the
        # caller charges depth-based latency via record_flood_depth.

    def record_flood_depth(self, depth: int) -> None:
        """Charge latency for a flood of the given hop depth."""
        if depth < 0:
            raise ConfigurationError("depth must be non-negative")
        self._latency_ms += depth * self._model.hop_latency_ms

    def snapshot(self) -> QueryCost:
        """The current totals as an immutable :class:`QueryCost`."""
        return QueryCost(
            messages=self._messages,
            hops=self._hops,
            peers_visited=self._visits,
            distinct_peers=len(self._distinct),
            tuples_processed=self._tuples_processed,
            tuples_sampled=self._tuples_sampled,
            bytes_sent=self._bytes,
            latency_ms=self._latency_ms,
            timeouts=self._timeouts,
        )
