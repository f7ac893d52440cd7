"""Reference per-peer visits and collections — the oracle the fate/data
split and the per-kind kernels are compared against
(``tests/test_visit_parity.py``).

This is the product's former faulted aggregate path, moved here
verbatim when ``NetworkSimulator.probe_aggregate`` /
``read_aggregates`` became the only way an aggregate collection runs
under faults: every probe does its own failure gauntlet, its own
sub-sample, its own one-segment ``segment_aggregate``, its own reply
and its own ledger charge, one peer at a time — the scalar
``visit_aggregate`` as it was (:func:`oracle_visit_aggregate`), the
fallback loop of ``visit_aggregate_batch`` around it
(:func:`oracle_visit_aggregate_batch`), and the resilient collector's
retry/substitution loop around it (:class:`OracleCollector`).  Keep it
dumb; it exists to be obviously right, not fast.

It drives the simulator under test through the same private hooks the
product path uses (``_probe_checks`` including the event-driven
override, ``_rng``, the snapshot), so both sides see one fault clock,
one virtual clock and one failure stream — run each side on its own
identically built simulator and compare everything afterwards.

The per-peer visits of the other reply kinds are here too, as they
were before every kind became one kernel over a chunk: the panel visit
(:func:`oracle_visit_multi_aggregate`), the GROUP BY visit with its
per-group loop (:func:`oracle_visit_group_aggregate`), the values visit
(:func:`oracle_visit_values`), and the loop around any of them that the
values batch fallback and the GROUP BY and batch engines ran
(:func:`oracle_visit_batch`).

One quirk is kept on purpose: the sampling method is only checked
inside ``database.sample``, *after* the gauntlet, as it was.  The
product now rejects a bad method up front; parity is claimed for valid
arguments only.

:func:`oracle_segment_aggregate` is the visit's local aggregation as
it was before it became one stacked reduction: three 1-D
``segment_sums`` and a four-tuple.
"""

import numpy as np

from repro._util import ensure_rng
from repro.data.segments import segment_aggregate, segment_sums
from repro.errors import (
    ConfigurationError,
    PeerCrashedError,
    PeerUnavailableError,
    ProbeTimeoutError,
)
from repro.network.protocol import AggregateReply, GroupReply, TupleReply
from repro.network.simulator import _emit_probe
from repro.obs.events import BatchFallbackEvent, RetryEvent, SubstituteEvent
from repro.obs.tracer import active_tracer
from repro.query.model import AggregateOp


def oracle_segment_aggregate(query, columns, starts, counts):
    """The former ``segment_aggregate``: ``(local_count, local_sum,
    column_sum, contribution_variance)``, one reduction each."""
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    num_segments = starts.shape[0]
    column = np.asarray(columns[query.column])
    if column.size == 0 or num_segments == 0:
        zeros = np.zeros(num_segments, dtype=np.float64)
        return zeros, zeros.copy(), zeros.copy(), zeros.copy()

    mask = query.predicate.mask(columns)
    mask_f = mask.astype(np.float64)
    column_f = column.astype(np.float64, copy=False)
    masked_values = column_f * mask_f

    local_count = segment_sums(mask_f, starts, counts)
    local_sum = segment_sums(masked_values, starts, counts)
    column_sum = segment_sums(column_f, starts, counts)

    contributions = mask_f if query.agg is AggregateOp.COUNT else masked_values
    if query.agg is AggregateOp.COUNT:
        contribution_sums = local_count
    else:
        contribution_sums = local_sum
    nonempty = counts > 0
    means = np.zeros(num_segments, dtype=np.float64)
    np.divide(contribution_sums, counts, out=means, where=nonempty)
    deviations = contributions - np.repeat(means, counts)
    squared = segment_sums(deviations * deviations, starts, counts)
    contribution_variance = np.zeros(num_segments, dtype=np.float64)
    np.divide(squared, counts, out=contribution_variance, where=nonempty)

    return local_count, local_sum, column_sum, contribution_variance


def _open_visit(
    simulator, peer_id, kind, ledger, tuples_per_peer, sampling_method, seed
):
    if tuples_per_peer < 0:
        raise ConfigurationError("tuples_per_peer must be >= 0")
    database = simulator.database(peer_id)
    simulator._probe_checks(peer_id, kind, ledger)
    total = database.num_tuples
    rng = simulator._rng if seed is None else ensure_rng(seed)
    if tuples_per_peer and total > tuples_per_peer:
        columns = database.sample(
            tuples_per_peer, method=sampling_method, seed=rng
        )
        return columns, total, tuples_per_peer
    return database.scan(), total, total


def oracle_visit_aggregate(
    simulator,
    peer_id,
    query,
    sink,
    ledger,
    tuples_per_peer=0,
    sampling_method="uniform",
    seed=None,
):
    """The former ``NetworkSimulator.visit_aggregate``."""
    if not query.agg.supports_pushdown:
        raise ConfigurationError(
            f"{query.agg.value} cannot be pushed down; use visit_values"
        )
    columns, total, processed = _open_visit(
        simulator, peer_id, "aggregate", ledger,
        tuples_per_peer, sampling_method, seed,
    )

    counts, sums, column_sums, variances = segment_aggregate(
        query,
        columns,
        starts=np.zeros(1, dtype=np.int64),
        counts=np.asarray([processed], dtype=np.int64),
    )
    local_count = float(counts[0])
    local_sum = float(sums[0])
    column_sum = float(column_sums[0])
    contribution_variance = float(variances[0])

    scale = (total / processed) if processed else 0.0
    scaled_count = local_count * scale
    scaled_sum = local_sum * scale
    if query.agg is AggregateOp.COUNT:
        value = scaled_count
    else:  # SUM and AVG replies carry the scaled sum as primary
        value = scaled_sum

    reply = AggregateReply(
        source=peer_id,
        destination=sink,
        aggregate_value=value,
        matching_count=scaled_count,
        column_total=column_sum * scale,
        contribution_variance=contribution_variance,
        degree=simulator.topology.degree(peer_id),
        local_tuples=total,
        processed_tuples=processed,
    )
    ledger.record_visit(
        peer_id,
        tuples_processed=processed,
        tuples_sampled=min(processed, tuples_per_peer or processed),
        cpu_speed=simulator._snapshot.peers[peer_id].capabilities.cpu_speed,
    )
    ledger.record_reply(reply.size_bytes())
    _emit_probe(peer_id, "aggregate", "ok", replies=1, messages=1, visits=1)
    return reply


def oracle_visit_aggregate_batch(
    simulator,
    peer_ids,
    query,
    sink,
    ledger,
    tuples_per_peer=0,
    sampling_method="uniform",
    seed=None,
):
    """The former faulted branch of ``visit_aggregate_batch``."""
    if not query.agg.supports_pushdown:
        raise ConfigurationError(
            f"{query.agg.value} cannot be pushed down; use visit_values"
        )
    if tuples_per_peer < 0:
        raise ConfigurationError("tuples_per_peer must be >= 0")
    peers = simulator._validate_batch_peers(peer_ids)
    if peers.size == 0:
        return []
    assert _faulted(simulator), "the oracle is the faulted path"
    tracer = active_tracer()
    if tracer is not None:
        tracer.emit(
            BatchFallbackEvent, "aggregate", int(peers.size),
            _fallback_reason(simulator),
        )
    replies = []
    for peer_id in peers:
        try:
            replies.append(
                oracle_visit_aggregate(
                    simulator,
                    int(peer_id),
                    query,
                    sink=sink,
                    ledger=ledger,
                    tuples_per_peer=tuples_per_peer,
                    sampling_method=sampling_method,
                    seed=seed,
                )
            )
        except PeerUnavailableError:
            continue  # lost reply: the sample just shrinks
    return replies


def _faulted(simulator):
    """Whether a batch visit resolves its probes one by one."""
    return simulator.faults_active or simulator._time is not None


def _fallback_reason(simulator):
    return "faults-active" if simulator.faults_active else "virtual-time"


def _local_reply(simulator, peer_id, query, sink, columns, total, processed):
    """The former ``NetworkSimulator._local_reply``: one peer's
    aggregate reply over its processed rows, scaled to its total."""
    counts, sums, column_sums, variances = segment_aggregate(
        query,
        columns,
        starts=np.zeros(1, dtype=np.int64),
        counts=np.asarray([processed], dtype=np.int64),
    )
    scale = (total / processed) if processed else 0.0
    scaled_count = float(counts[0]) * scale
    return AggregateReply(
        source=peer_id,
        destination=sink,
        aggregate_value=(
            scaled_count
            if query.agg is AggregateOp.COUNT
            else float(sums[0]) * scale
        ),
        matching_count=scaled_count,
        column_total=float(column_sums[0]) * scale,
        contribution_variance=float(variances[0]),
        degree=simulator.topology.degree(peer_id),
        local_tuples=total,
        processed_tuples=processed,
    )


def _cpu_speed(simulator, peer_id):
    return simulator._snapshot.peers[peer_id].capabilities.cpu_speed


def oracle_visit_multi_aggregate(
    simulator,
    peer_id,
    queries,
    sink,
    ledger,
    tuples_per_peer=0,
    sampling_method="uniform",
    seed=None,
):
    """The former ``NetworkSimulator.visit_multi_aggregate``: every
    query on one sub-sample, its ``k`` replies charged before the
    visit."""
    if not queries:
        raise ConfigurationError("queries must be non-empty")
    for query in queries:
        if not query.agg.supports_pushdown:
            raise ConfigurationError(
                f"{query.agg.value} cannot be pushed down"
            )
    columns, total, processed = _open_visit(
        simulator, peer_id, "multi", ledger,
        tuples_per_peer, sampling_method, seed,
    )
    replies = [
        _local_reply(simulator, peer_id, query, sink, columns, total, processed)
        for query in queries
    ]
    for reply in replies:
        ledger.record_reply(reply.size_bytes())
    ledger.record_visit(
        peer_id,
        tuples_processed=processed,
        tuples_sampled=min(processed, tuples_per_peer or processed),
        cpu_speed=_cpu_speed(simulator, peer_id),
    )
    _emit_probe(
        peer_id, "multi", "ok",
        replies=len(replies), messages=len(replies), visits=1,
    )
    return replies


def oracle_visit_group_aggregate(
    simulator,
    peer_id,
    query,
    sink,
    ledger,
    tuples_per_peer=0,
    sampling_method="uniform",
    seed=None,
):
    """The former ``NetworkSimulator.visit_group_aggregate``: a loop
    over the groups of one peer's processed matching rows."""
    if query.group_by is None:
        raise ConfigurationError("query has no GROUP BY column")
    if not query.agg.supports_pushdown:
        raise ConfigurationError(
            f"GROUP BY is not supported for {query.agg.value}"
        )
    columns, total, processed = _open_visit(
        simulator, peer_id, "group", ledger,
        tuples_per_peer, sampling_method, seed,
    )
    entries = []
    if processed:
        mask = query.predicate.mask(columns)
        groups = np.asarray(columns[query.group_by])[mask]
        values = np.asarray(columns[query.column])[mask]
        scale = total / processed
        for group in np.unique(groups):
            in_group = groups == group
            entries.append(
                (
                    float(group),
                    float(np.count_nonzero(in_group)) * scale,
                    float(values[in_group].sum()) * scale,
                )
            )
    reply = GroupReply(
        source=peer_id,
        destination=sink,
        entries=tuple(entries),
        degree=simulator.topology.degree(peer_id),
        local_tuples=total,
        processed_tuples=processed,
    )
    ledger.record_visit(
        peer_id,
        tuples_processed=processed,
        tuples_sampled=min(processed, tuples_per_peer or processed),
        cpu_speed=_cpu_speed(simulator, peer_id),
    )
    ledger.record_reply(reply.size_bytes())
    _emit_probe(peer_id, "group", "ok", replies=1, messages=1, visits=1)
    return reply


def oracle_visit_values(
    simulator,
    peer_id,
    query,
    sink,
    ledger,
    tuples_per_peer=0,
    ship="median",
    sampling_method="uniform",
    seed=None,
):
    """The former ``NetworkSimulator.visit_values``: the local quantile
    of one peer's matching values, or the values themselves."""
    if ship not in ("median", "sample"):
        raise ConfigurationError(f"unknown ship mode {ship!r}")
    columns, total, processed = _open_visit(
        simulator, peer_id, "values", ledger,
        tuples_per_peer, sampling_method, seed,
    )
    column = np.asarray(columns[query.column])
    values = column[query.predicate.mask(columns)] if column.size else column
    if ship == "median" and values.size:
        values = [float(np.quantile(values, query.quantile_fraction))]
    reply = TupleReply(
        source=peer_id,
        destination=sink,
        values=tuple(float(value) for value in values),
        degree=simulator.topology.degree(peer_id),
        local_tuples=total,
        processed_tuples=processed,
    )
    ledger.record_visit(
        peer_id,
        tuples_processed=processed,
        tuples_sampled=processed,
        cpu_speed=_cpu_speed(simulator, peer_id),
    )
    ledger.record_reply(reply.size_bytes())
    _emit_probe(peer_id, "values", "ok", replies=1, messages=1, visits=1)
    return reply


def oracle_visit_batch(simulator, visit, kind, peer_ids, *args, **kwargs):
    """The per-peer loop around one of the visits above — the former
    faulted branch of ``visit_values_batch`` and the GROUP BY and batch
    engines' chunk loops: ``visit(simulator, peer, *args, **kwargs)``
    per peer, a lost reply skipped.  Under faults or virtual time it
    opens with the ``batch-fallback`` event the product emits."""
    peers = simulator._validate_batch_peers(peer_ids)
    tracer = active_tracer()
    if tracer is not None and peers.size and _faulted(simulator):
        tracer.emit(
            BatchFallbackEvent, kind, int(peers.size),
            _fallback_reason(simulator),
        )
    replies = []
    for peer_id in peers.tolist():
        try:
            replies.append(visit(simulator, peer_id, *args, **kwargs))
        except PeerUnavailableError:
            continue  # lost reply: the sample just shrinks
    return replies


class OracleCollector:
    """The former ``ResilientCollector._attempt`` / ``_collect`` /
    ``collect_aggregate``: retry, backoff and substitution around one
    :func:`oracle_visit_aggregate` per probe — or around any visit
    above (:meth:`collect_with`)."""

    def __init__(self, walker, simulator, policy):
        self._walker = walker
        self._simulator = simulator
        self._policy = policy

    def _attempt(self, peer, ledger, visit, counters):
        policy = self._policy
        for attempt in range(policy.max_attempts):
            if attempt > 0:
                wait = policy.backoff_ms(attempt - 1)
                ledger.record_wait(wait)
                counters["backoff_wait_ms"] += wait
                counters["retries"] += 1
                tracer = active_tracer()
                if tracer is not None:
                    tracer.emit(RetryEvent, peer, attempt, wait)
            counters["attempts"] += 1
            try:
                return "ok", visit(peer)
            except PeerCrashedError:
                counters["crashes"] += 1
                return "crashed", None
            except ProbeTimeoutError:
                counters["timeouts"] += 1
            except PeerUnavailableError:
                counters["losses"] += 1
        return "exhausted", None

    def collect_aggregate(
        self,
        sink,
        query,
        count,
        ledger,
        probe_bytes,
        tuples_per_peer=0,
        sampling_method="uniform",
        seed=None,
    ):
        """``(replies, stats)`` with ``stats`` a plain dict keyed like
        ``CollectionStats``'s fields."""

        def visit(peer):
            return oracle_visit_aggregate(
                self._simulator,
                peer,
                query,
                sink=sink,
                ledger=ledger,
                tuples_per_peer=tuples_per_peer,
                sampling_method=sampling_method,
                seed=seed,
            )

        return self.collect_with(sink, count, ledger, probe_bytes, visit)

    def collect_with(self, sink, count, ledger, probe_bytes, visit):
        """The collection loop around ``visit(peer)``, one reply (or a
        panel's list of them) per probe that gets through."""
        walk = self._walker.sample_peers(sink, count)
        self._simulator.walk_hops(
            walk.hops, ledger, message_bytes=probe_bytes
        )
        policy = self._policy
        jump = self._walker.config.effective_jump
        substitutions_left = (
            count if policy.max_substitutions is None
            else policy.max_substitutions
        )
        counters = {
            "attempts": 0,
            "retries": 0,
            "losses": 0,
            "timeouts": 0,
            "crashes": 0,
            "substitutions": 0,
            "backoff_wait_ms": 0.0,
        }
        walk_hops = walk.hops
        last_good = sink
        replies = []
        for target in walk.peers:
            peer = int(target)
            while True:
                outcome, reply = self._attempt(peer, ledger, visit, counters)
                if outcome == "ok" and reply is not None:
                    replies.append(reply)
                    last_good = peer
                    break
                if outcome == "crashed" and substitutions_left > 0:
                    substitutions_left -= 1
                    counters["substitutions"] += 1
                    failed = peer
                    peer = self._walker.endpoint_after(last_good, jump)
                    self._simulator.walk_hops(
                        jump, ledger, message_bytes=probe_bytes
                    )
                    walk_hops += jump
                    tracer = active_tracer()
                    if tracer is not None:
                        tracer.emit(SubstituteEvent, failed, peer, jump)
                    continue
                break  # exhausted retries or substitution budget: drop
        stats = {
            "requested": count,
            "received": len(replies),
            "attempts": int(counters["attempts"]),
            "retries": int(counters["retries"]),
            "losses": int(counters["losses"]),
            "timeouts": int(counters["timeouts"]),
            "crashes": int(counters["crashes"]),
            "substitutions": int(counters["substitutions"]),
            "backoff_wait_ms": counters["backoff_wait_ms"],
            "walk_hops": walk_hops,
        }
        return replies, stats
