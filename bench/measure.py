"""Run one workload: set-up samples, timed rounds, the traced round,
the correctness gate — everything that happens inside one process.

Numbers are labelled **host** (wall time or memory of this program)
or **sim** (what the modelled network would pay; repeats exactly for a
seed).  A round is a fresh service serving the workload's whole stream
once; every timing metric is computed per round and reported as the
median across rounds.  End-to-end host times are speed-normalised (see
``calibrate.py``); per-layer times are raw.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import resource
import signal
import statistics
import struct
import time
import warnings
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.data.flat import FlatDataset
from repro.query.exact import evaluate_exact
from repro.query.model import AggregationQuery
from repro.service import QueryOutcome, QueryService, ServiceStats
from repro.service.backend import (
    ForkedBackend,
    TransportStats,
    shard_for_signature,
)

from . import probes
from .calibrate import Calibrator
from .spans import LayerTotals, SpanRecorder, recording
from .stats import percentile
from .workloads import (
    DELTA_REQ,
    WORKLOADS,
    Fixture,
    Workload,
    build_fixture,
    make_service,
    make_simulator,
    parse_stream,
    query_stream,
)

__all__ = ["run_workload"]

#: The gate on the paper's accuracy promise: the share of queries
#: whose normalized error is within the requested accuracy.  Across
#: seeds 1..20 at the commit that added the benchmark the share ran
#: from 0.8975 (dash_2k_inline) to 0.975, so 0.85 trips on a broken
#: estimator and not on the choice of seed.
MIN_WITHIN_DELTA = 0.85

#: Set-up is sampled at least ``MIN_SETUPS`` times, then for as long as
#: ``SETUP_BUDGET_S`` lasts (one sample is 30-80 ms at 2k peers — far
#: too short alone — and ~0.4 s at 22k).
MIN_SETUPS = 5
MAX_SETUPS = 15
SETUP_BUDGET_S = 2.0

#: Span-name prefixes whose work happens inside worker processes on a
#: sharded workload; their numbers come from the inline replay there.
_COMPUTE_LAYERS = (
    "backend.build_task", "backend.advance",
    "network.", "walker.", "faults.", "core.", "sim.", "obs.", "data.",
)


# ---------------------------------------------------------------------------
# Serving one round
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Stream:
    """What every round of one run serves: fixed for the process."""

    workload: Workload
    fixture: Fixture
    warm_up: Sequence[AggregationQuery]
    measured: Sequence[AggregationQuery]
    calibrator: Calibrator


@dataclasses.dataclass
class Round:
    """What one round of serving produced."""

    #: Time spent serving (calibration slices excluded).
    wall_s: float
    #: How fast the machine ran during this round (1.0 = nominal).
    machine_speed: float
    latencies_s: List[float]
    outcomes: List[QueryOutcome]
    stats: ServiceStats
    warm_stats: ServiceStats
    transport: Optional[TransportStats] = None

    @property
    def queries(self) -> int:
        return len(self.outcomes)

    @property
    def normalised_wall_s(self) -> float:
        """What ``wall_s`` would have been at nominal machine speed."""
        return self.wall_s * self.machine_speed


def serve(
    workload: Workload,
    service: QueryService,
    queries: Sequence[AggregationQuery],
    calibrator: Optional[Calibrator] = None,
) -> Tuple[float, List[float], List[QueryOutcome]]:
    """Closed loop: ``workload.clients`` callers submit together, then
    all wait until every reply of the burst is in.

    Lock-step bursts keep the submission order — and with it every
    per-query seed and result — independent of worker timing.
    Returns ``(wall, per-query latencies, outcomes by query id)``; a
    query's latency runs from its ``submit()`` to the ``tick()`` that
    returns it.  Calibration slices run between bursts and are not
    part of the wall time.
    """
    clock = time.perf_counter
    submitted_at: Dict[int, float] = {}
    latencies: List[float] = []
    outcomes: List[QueryOutcome] = []
    wall = 0.0
    for first in range(0, len(queries), workload.clients):
        begin = clock()
        for query in queries[first:first + workload.clients]:
            now = clock()
            ticket = service.submit(
                query, DELTA_REQ, deadline_ms=workload.deadline_ms
            )
            submitted_at[ticket.query_id] = now
        while not service.idle:
            resolved = service.tick()
            now = clock()
            for outcome in resolved:
                latencies.append(now - submitted_at.pop(outcome.ticket.query_id))
                outcomes.append(outcome)
        burst = clock() - begin
        wall += burst
        if calibrator is not None:
            calibrator.run_for(burst)
    outcomes.sort(key=lambda outcome: outcome.ticket.query_id)
    return wall, latencies, outcomes


def _shm_entries() -> Set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _child_pids() -> Set[int]:
    """Live (or unreaped) direct children of this process."""
    me = os.getpid()
    children: Set[int] = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stream:
                stat = stream.read()
        except OSError:
            continue  # exited while we were looking
        # Fields after the parenthesized command name: state, ppid, ...
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == me:
            children.add(int(entry))
    return children


def reap_children() -> List[int]:
    """Stop every process this one still has and wait until each has
    ended; returns the pids that had to be killed.

    The one child a clean run still has is ``multiprocessing``'s
    resource tracker, which the first shared-memory segment spawns and
    which otherwise outlives this process by a moment, unreaped.
    Closing its pipe is how it is told to finish; ``_stop`` does that
    and waits for it.  Anything else still alive here is a leak: it is
    killed and waited for, and the caller reports it.
    """
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    stragglers = sorted(_child_pids())
    for pid in stragglers:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # already a zombie of ours; the wait below reaps it
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass  # reaped by whoever started it
    return stragglers


def run_round(
    stream: Stream,
    violations: List[str],
    *,
    recorder: Optional[SpanRecorder] = None,
    inline: bool = False,
    capture_traces: Optional[bool] = None,
    measure_transport: bool = False,
) -> Round:
    """Build a fresh simulator and service, warm up, serve the
    measured stream, close.  Appends to ``violations`` when the round
    leaves a ``/dev/shm`` entry or a child process behind."""
    workload = stream.workload
    shm_before = _shm_entries()
    children_before = _child_pids()
    simulator = make_simulator(workload, stream.fixture)
    # Built outside the recording block: workers must fork from an
    # unwrapped parent, and construction is set-up, not serving.
    service = make_service(
        workload,
        simulator,
        inline=inline,
        capture_traces=capture_traces,
        measure_transport=measure_transport,
    )
    calibrator = stream.calibrator
    try:
        serve(workload, service, stream.warm_up)
        warm_stats = service.stats()
        with recording(recorder):
            calibrator.reset()
            wall, latencies, outcomes = serve(
                workload, service, stream.measured, calibrator
            )
            stats = service.stats()
            backend = service.backend
            transport = (
                backend.transport_stats()
                if measure_transport and isinstance(backend, ForkedBackend)
                else None
            )
            service.close()  # inside the block: ``service.close`` is a span
    finally:
        service.close()  # idempotent; reaps workers if serving raised
    leaked = _shm_entries() - shm_before
    if leaked:
        violations.append(f"/dev/shm entries left behind: {sorted(leaked)}")
    orphans = _child_pids() - children_before
    if orphans:
        violations.append(f"child processes left behind: {sorted(orphans)}")
    return Round(
        wall_s=wall,
        machine_speed=calibrator.machine_speed,
        latencies_s=latencies,
        outcomes=outcomes,
        stats=stats,
        warm_stats=warm_stats,
        transport=transport,
    )


def digest_of(outcomes: Sequence[QueryOutcome]) -> str:
    """sha256 over ``(query_id, status, estimate bits, QueryCost)``."""
    sha = hashlib.sha256()
    for outcome in outcomes:
        estimate = (
            outcome.result.estimate if outcome.result is not None else 0.0
        )
        cost = (
            dataclasses.astuple(outcome.cost)
            if outcome.cost is not None
            else ()
        )
        sha.update(struct.pack("<q", outcome.ticket.query_id))
        sha.update(outcome.status.encode())
        sha.update(struct.pack("<d", estimate))
        sha.update(repr(cost).encode())
    return sha.hexdigest()


# ---------------------------------------------------------------------------
# Metrics of a round
# ---------------------------------------------------------------------------


def host_metrics(round_: Round) -> Dict[str, float]:
    """The per-round timing metrics (host, speed-normalised), the
    raw throughput they came from, and the failure count."""
    speed = round_.machine_speed
    latencies_ms = [latency * speed * 1e3 for latency in round_.latencies_s]
    return {
        "failed": sum(not outcome.ok for outcome in round_.outcomes),
        "machine_speed": speed,
        "raw_throughput_qps": round_.queries / round_.wall_s,
        "throughput_qps": round_.queries / round_.normalised_wall_s,
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p90_ms": percentile(latencies_ms, 90),
        "latency_p99_ms": percentile(latencies_ms, 99),
    }


class Truth:
    """Exact answers, one flat numpy pass per distinct signature."""

    def __init__(self, fixture: Fixture):
        self._flat = FlatDataset.from_databases(fixture.databases)
        self._answers: Dict[str, float] = {}

    def of(self, outcome: QueryOutcome) -> float:
        signature = outcome.ticket.signature
        if signature not in self._answers:
            self._answers[signature] = evaluate_exact(
                outcome.ticket.query, self._flat
            )
        return self._answers[signature]


def sim_metrics(
    outcomes: Sequence[QueryOutcome], truth: Truth
) -> Dict[str, float]:
    """The paper's own axes (sim): cost in peers visited, and error
    against the exact answer on the ``delta_req`` scale.  An
    unanswered query counts as missing the accuracy target."""
    answered = [outcome for outcome in outcomes if outcome.ok]
    if not answered:
        raise RuntimeError("no query was answered; nothing to measure")
    errors = [
        outcome.result.normalized_error(truth.of(outcome))
        for outcome in answered
        if outcome.result is not None
    ]
    visits = [
        outcome.cost.peers_visited
        for outcome in outcomes
        if outcome.cost is not None
    ]
    within = sum(error <= DELTA_REQ for error in errors)
    return {
        "answered_share": len(answered) / len(outcomes),
        "visits_per_query": statistics.fmean(visits),
        "norm_error_p90": percentile(errors, 90),
        "within_delta_share": within / len(outcomes),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child
    (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def measure_setup(stream: Stream) -> Dict[str, float]:
    """From in-memory topology and databases to the first answer:
    simulator, columnar view, service (fork, shm export and attach
    when sharded), one query.  ``setup_s`` is speed-normalised by
    slices run right after; the two parts are raw."""
    workload, fixture = stream.workload, stream.fixture
    query = stream.warm_up[0]
    started = time.perf_counter()
    simulator = make_simulator(workload, fixture)
    built = time.perf_counter()
    if not simulator.faults_active:
        # What the service's own priming would do; done here so the
        # columnar build is timed on its own.
        simulator.flat_dataset
    flattened = time.perf_counter()
    with make_service(workload, simulator) as service:
        ticket = service.submit(
            query, DELTA_REQ, deadline_ms=workload.deadline_ms
        )
        service.await_result(ticket)
    elapsed = time.perf_counter() - started
    stream.calibrator.reset()
    stream.calibrator.run_for(elapsed)
    return {
        "setup_s": elapsed * stream.calibrator.machine_speed,
        "simulator_init_s": built - started,
        "flat_build_s": flattened - built,
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced round
# ---------------------------------------------------------------------------


def _per_query_ms(layer: LayerTotals, queries: int) -> float:
    return layer.self_s / queries * 1e3


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def span_metrics(
    layers: Dict[str, LayerTotals], queries: int, wall_s: float
) -> Dict[str, float]:
    """Every per-layer metric that is read off the span totals."""
    empty = LayerTotals()

    def layer(name: str) -> LayerTotals:
        return layers.get(name, empty)

    session = layer("network.session")
    batch = layer("network.visit_batch")
    scalar = layer("network.visit_scalar")
    take = layer("walker.take")
    collect = layer("faults.collect")
    deliver = layer("sim.await_delivery")
    emit = layer("obs.emit")
    aggregate = layer("data.segment_aggregate")
    close = layer("service.close")
    covered = sum(entry.self_s for entry in layers.values()) - close.total_s
    hops = take.counts.get("hops", 0.0)
    return {
        "service.submit_self_ms": _per_query_ms(layer("service.submit"), queries),
        "service.tick_self_ms": _per_query_ms(layer("service.tick"), queries),
        "service.ticks_per_query": layer("service.tick").calls / queries,
        "service.close_ms": close.total_s * 1e3,
        "backend.build_task_self_ms": _per_query_ms(layer("backend.build_task"), queries),
        "backend.advance_self_ms": _per_query_ms(layer("backend.advance"), queries),
        "backend.submit_self_ms": _per_query_ms(layer("backend.submit"), queries),
        "backend.pump_wait_ms": layer("pool.recv_many").total_s / queries * 1e3,
        "backend.reply_messages_per_query": layer("pool.recv_many").calls / queries,
        "network.session_self_ms": _per_query_ms(session, queries),
        "network.session_share": session.self_s / wall_s,
        "network.visit_batch_self_ms": _per_query_ms(batch, queries),
        "network.visit_batch_calls_per_query": batch.calls / queries,
        "network.peers_per_visit_call": _ratio(batch.counts.get("peers", 0.0), batch.calls),
        "network.visit_scalar_self_ms": _per_query_ms(scalar, queries),
        "network.visit_scalar_calls_per_query": scalar.calls / queries,
        "walker.take_self_ms": _per_query_ms(take, queries),
        "walker.hops_per_query": hops / queries,
        "walker.selected_per_hop": _ratio(take.counts.get("selected", 0.0), hops),
        "walker.hops_per_sec": _ratio(hops, take.total_s),
        "faults.retries_per_query": collect.counts.get("retries", 0.0) / queries,
        "faults.failed_probes_per_query": collect.counts.get("failed_probes", 0.0) / queries,
        "faults.collect_self_ms": _per_query_ms(collect, queries),
        "core.final_estimate_self_ms": _per_query_ms(layer("core.final_estimate"), queries),
        "core.crossval_self_ms": _per_query_ms(layer("core.crossval"), queries),
        "sim.await_delivery_self_ms": _per_query_ms(deliver, queries),
        "sim.events_per_query": deliver.calls / queries,
        "sim.host_us_per_event": _ratio(deliver.total_s, deliver.calls) * 1e6,
        "obs.emit_self_ms": _per_query_ms(emit, queries),
        "obs.events_per_query": emit.calls / queries,
        "data.segment_aggregate_self_ms": _per_query_ms(aggregate, queries),
        "data.rows_scanned_per_query": aggregate.counts.get("rows", 0.0) / queries,
        "bench.span_coverage": covered / wall_s,
    }


def outcome_metrics(round_: Round) -> Dict[str, float]:
    """Per-layer numbers carried by the replies and service counters
    (sim: they repeat exactly for a seed)."""
    results = [
        outcome.result
        for outcome in round_.outcomes
        if outcome.result is not None
    ]
    stats, warm = round_.stats, round_.warm_stats
    warm_runs = stats.warm_runs - warm.warm_runs
    cold_runs = stats.cold_runs - warm.cold_runs
    hits = stats.cache_hits - warm.cache_hits
    misses = stats.cache_misses - warm.cache_misses
    return {
        "service.warm_ratio": _ratio(warm_runs, warm_runs + cold_runs),
        "core.plan_cache_hit_ratio": _ratio(hits, hits + misses),
        "core.phase2_peers_per_query": statistics.fmean(
            result.phase_two.peers_visited if result.phase_two else 0
            for result in results
        ),
        "faults.degraded_share": statistics.fmean(
            float(result.degraded) for result in results
        ),
        "sim.virtual_ms_per_query": statistics.fmean(
            result.timing.duration_ms if result.timing else 0.0
            for result in results
        ),
    }


def shard_imbalance(workload: Workload, signatures: Sequence[str]) -> float:
    """Max over mean jobs per shard (1.0 = even, and when inline)."""
    if workload.workers is None:
        return 1.0
    jobs = [0] * workload.workers
    for signature in signatures:
        jobs[shard_for_signature(signature, workload.workers)] += 1
    return max(jobs) / (len(signatures) / workload.workers)


# ---------------------------------------------------------------------------
# One workload, start to finish
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class TracedRound:
    """A traced round reduced to what the layer metrics need (the
    spans themselves are dropped once summed)."""

    round_: Round
    totals: Dict[str, LayerTotals]


def run_workload(name: str, seed: int, **options: Any) -> Dict[str, Any]:
    """:func:`measure_workload`, after which — on every path out — no
    process this one started is left: a run that leaves one behind
    could serve the next run."""
    try:
        record = measure_workload(name, seed, **options)
    except BaseException:
        reap_children()
        raise
    leaked = reap_children()
    if leaked:
        record["violations"].append(
            f"processes still running at the end, killed: {leaked}"
        )
    return record


def measure_workload(
    name: str,
    seed: int,
    *,
    seconds: float = 0.0,
    rounds: Optional[int] = None,
    trace: bool = False,
    scale: float = 1.0,
    spans_dir: Optional[Path] = None,
) -> Dict[str, Any]:
    """Measure ``name`` under ``seed``.

    Serves rounds until ``seconds`` have passed (or exactly ``rounds``
    of them).  With ``trace`` every untraced round is followed by a
    traced one — alternating, because a process's later rounds run a
    few percent slower than its first, which would otherwise read as
    tracing overhead — and the layer probes run at the end.  Returns a
    JSON-ready record: per-round end-to-end metrics, sim metrics, the
    result digest, per-layer metrics and every correctness-gate
    violation.
    """
    workload = WORKLOADS[name]
    violations: List[str] = []
    fixture = build_fixture(workload.fixture)
    warm_sql, measured_sql = query_stream(workload, seed, scale)
    stream = Stream(
        workload, fixture, parse_stream(warm_sql), parse_stream(measured_sql),
        Calibrator(),
    )

    with warnings.catch_warnings():
        # workers + driver may exceed the cores here; the environment
        # stamp reports oversubscription once instead of every fork.
        warnings.simplefilter("ignore", RuntimeWarning)
        # A smoke run (scale < 1) samples set-up twice and moves on.
        minimum, budget = (
            (MIN_SETUPS, SETUP_BUDGET_S) if scale >= 1.0 else (2, 0.0)
        )
        setups: List[Dict[str, float]] = []
        setup_started = time.perf_counter()
        while len(setups) < minimum or (
            len(setups) < MAX_SETUPS
            and time.perf_counter() - setup_started < budget
        ):
            setups.append(measure_setup(stream))

        per_round: List[Dict[str, float]] = []
        traced_rounds: List[TracedRound] = []
        reference: Optional[Round] = None
        digest = ""
        loop_started = time.perf_counter()
        while True:
            round_ = run_round(stream, violations)
            per_round.append(host_metrics(round_))
            if reference is None:
                reference, digest = round_, digest_of(round_.outcomes)
            elif digest_of(round_.outcomes) != digest:
                violations.append(
                    f"round {len(per_round)}'s results differ from round 1's"
                )
            if trace:
                recorder = SpanRecorder()
                traced = run_round(stream, violations, recorder=recorder)
                if digest_of(traced.outcomes) != digest:
                    violations.append("tracing perturbed the results")
                if spans_dir is not None and not traced_rounds:
                    recorder.write_jsonl(spans_dir / f"{name}.spans.jsonl")
                traced_rounds.append(TracedRound(traced, recorder.totals()))
            if rounds is not None:
                if len(per_round) >= rounds:
                    break
            elif time.perf_counter() - loop_started >= seconds:
                break

        sim = sim_metrics(reference.outcomes, Truth(fixture))
        failed = sum(round_["failed"] for round_ in per_round)
        if failed:
            violations.append(f"{failed} queries failed")
        if sim["within_delta_share"] < MIN_WITHIN_DELTA:
            violations.append(
                f"within_delta_share {sim['within_delta_share']:.3f} "
                f"< {MIN_WITHIN_DELTA}"
            )

        record: Dict[str, Any] = {
            "workload": name,
            "seed": seed,
            "queries_per_round": reference.queries,
            "digest": digest,
            "rounds": per_round,
            "sim": sim,
            "setup_s": [sample["setup_s"] for sample in setups],
            "peak_rss_mb": peak_rss_mb(),
        }
        if trace:
            record["layers"] = layer_metrics(
                stream, violations, traced_rounds, reference=reference,
                digest=digest, per_round=per_round, setups=setups,
                spans_dir=spans_dir,
            )
    record["violations"] = violations
    return record


def layer_metrics(
    stream: Stream,
    violations: List[str],
    traced_rounds: Sequence[TracedRound],
    *,
    reference: Round,
    digest: str,
    per_round: Sequence[Dict[str, float]],
    setups: Sequence[Dict[str, float]],
    spans_dir: Optional[Path],
) -> Dict[str, float]:
    """Every per-layer metric: span totals of the traced round with
    the median wall time (so shares, coverage and overhead describe
    one and the same round), reply counters, and the probes."""
    workload = stream.workload
    by_wall = sorted(
        traced_rounds, key=lambda entry: entry.round_.normalised_wall_s
    )
    middle = by_wall[len(by_wall) // 2]
    traced, totals = middle.round_, middle.totals
    queries = traced.queries
    layers = span_metrics(totals, queries, traced.wall_s)
    layers.update(outcome_metrics(traced))

    speedup = 1.0
    transport = None
    if workload.workers is not None:
        # The transport meter re-pickles every payload, so it gets a
        # round of its own instead of inflating a timed one.
        transport = run_round(
            stream, violations, measure_transport=True
        ).transport
        # Worker-side time cannot be seen from the parent: replay the
        # same stream on the serial reference path, traced, and take
        # the compute layers' numbers from there.
        replay_recorder = SpanRecorder()
        replay = run_round(
            stream, violations, recorder=replay_recorder, inline=True
        )
        if digest_of(replay.outcomes) != digest:
            violations.append("serial != sharded (inline replay differs)")
        replayed = span_metrics(
            replay_recorder.totals(), queries, replay.wall_s
        )
        layers.update(
            (key, value)
            for key, value in replayed.items()
            if key.startswith(_COMPUTE_LAYERS)
        )
        speedup = replay.normalised_wall_s / traced.normalised_wall_s
        if spans_dir is not None:
            replay_recorder.write_jsonl(
                spans_dir / f"{workload.name}.replay.spans.jsonl"
            )

    # Walls are compared speed-normalised, like every end-to-end time.
    untraced_wall = statistics.median(
        queries / round_["throughput_qps"] for round_ in per_round
    )
    capture_overhead = 1.0
    if workload.chaos:
        bare = run_round(stream, violations, capture_traces=False)
        if digest_of(bare.outcomes) != digest:
            violations.append("trace capture perturbed the results")
        capture_overhead = untraced_wall / bare.normalised_wall_s
    layers.update({
        "service.latency_p99_ms": statistics.median(
            round_["latency_p99_ms"] for round_ in per_round
        ),
        "backend.job_messages_per_query": (
            transport.job_messages / queries if transport else 0.0
        ),
        "backend.transport_bytes_per_query": (
            transport.total_bytes / queries if transport else 0.0
        ),
        "backend.shard_imbalance": shard_imbalance(
            workload, [outcome.ticket.signature for outcome in traced.outcomes]
        ),
        "backend.speedup_vs_inline": speedup,
        "obs.capture_overhead_ratio": capture_overhead,
        "network.simulator_init_ms": statistics.median(
            sample["simulator_init_s"] for sample in setups
        ) * 1e3,
        "network.flat_build_ms": statistics.median(
            sample["flat_build_s"] for sample in setups
        ) * 1e3,
        "data.fixture_build_s": stream.fixture.build_s,
        "bench.span_overhead_ratio": traced.normalised_wall_s / untraced_wall,
        "bench.machine_speed": statistics.median(
            round_["machine_speed"] for round_ in per_round
        ),
        "bench.raw_throughput_qps": statistics.median(
            round_["raw_throughput_qps"] for round_ in per_round
        ),
    })
    shm_before = _shm_entries()
    layers.update(probes.codec_probe(reference.outcomes))
    layers.update(probes.shm_probe(make_simulator(workload, stream.fixture)))
    layers.update(probes.pool_probe(workload.workers or 2))
    if _shm_entries() != shm_before:
        violations.append("a probe left a /dev/shm entry behind")
    return layers
