"""The four serving workloads: fixtures, services and query streams.

A query stream is a pure function of ``(workload, seed, scale)``; the
program under test only ever sees the generated ``AggregationQuery``
objects.  *Panel* queries are eight fixed signatures a dashboard
refreshes in order — warm through the plan cache once the warm-up has
served each — and *ad-hoc* queries are one-off range aggregates with
seeded bounds, all distinct within a stream, so they are always cold.

The panel's positions in a stream do not depend on the seed: only the
ad-hoc queries do.  The service spawns each query's RNG streams in
submission order, so the panel share of a stream then computes exactly
the same thing under every seed, which keeps the simulated-cost
metrics (visits, error) steady across seeds instead of re-rolling
every query's walk.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.two_phase import TwoPhaseConfig
from repro.data.generator import DatasetConfig, generate_dataset
from repro.data.localdb import LocalDatabase
from repro.network.faults import CrashWindow, FaultPlan, LatencySpike
from repro.network.generators import gnutella_2001_like, power_law_topology
from repro.network.simulator import NetworkSimulator
from repro.network.topology import Topology
from repro.network.walker import RetryPolicy
from repro.query.model import AggregationQuery
from repro.query.parser import parse_query
from repro.service import EngineSettings, ForkedBackend, QueryService
from repro.sim.event_driven import EventDrivenSimulator
from repro.sim.latency import ConstantLatency, ExponentialLatency, LatencyModel

__all__ = [
    "DELTA_REQ",
    "PANEL_SQL",
    "WORKLOADS",
    "Fixture",
    "Workload",
    "build_fixture",
    "make_service",
    "make_simulator",
    "parse_stream",
    "query_stream",
]

#: Requested accuracy of every query (normalized error scale).
DELTA_REQ = 0.1

#: Every service in the benchmark is seeded the same; the workload
#: seed varies the *queries*, not the program's own randomness.
SERVICE_SEED = 99

#: Peer visits per scheduling step (the service's default).
CHUNK_PEERS = 8

#: Virtual-time deadline armed on the timed workload: generous enough
#: that it never trips, so the deadline check runs without failures.
CHAOS_DEADLINE_MS = 60_000.0

PANEL_SQL: Tuple[str, ...] = (
    "SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30",
    "SELECT SUM(A) FROM T WHERE A BETWEEN 1 AND 50",
    "SELECT AVG(A) FROM T",
    "SELECT SUM(A) FROM T",
    "SELECT COUNT(A) FROM T WHERE A BETWEEN 20 AND 60",
    "SELECT AVG(A) FROM T WHERE A BETWEEN 10 AND 90",
    "SELECT COUNT(A) FROM T",
    "SELECT SUM(A) FROM T WHERE A BETWEEN 40 AND 100",
)

# No AVG: at this commit an ad-hoc AVG over a narrow range fails about
# once in 300 (a phase II of two peers that hold no matching tuple
# raises SamplingError), and a workload must not contain operations
# that fail.  AVG is covered by the panel's two wide-range signatures.
_ADHOC_AGGS = ("COUNT", "SUM")
_ADHOC_LOWS = range(1, 60)
_ADHOC_WIDTHS = range(10, 40)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One traffic mix.  All are closed-loop: callers wait for their
    reply before sending the next request (or burst)."""

    name: str
    why: str
    #: ``"2k"`` (power-law, 2,000 peers / 200k tuples) or ``"22k"``
    #: (Gnutella-2001-like, 22,556 peers / 2M tuples).
    fixture: str
    queries_per_round: int
    #: Every ``adhoc_every``-th query is ad-hoc, the rest panel
    #: (1 = all ad-hoc, 2 = half, 5 = one in five).
    adhoc_every: int
    #: Callers submitting in lock-step bursts (1 = one caller).
    clients: int
    #: ``None`` serves inline; ``N`` through the forked backend.
    workers: Optional[int] = None
    max_in_flight: int = 1
    #: Event-driven simulator under a fault plan, retries, per-query
    #: tracers and an armed deadline.
    chaos: bool = False

    @property
    def deadline_ms(self) -> Optional[float]:
        return CHAOS_DEADLINE_MS if self.chaos else None


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="dash_2k_inline",
            why=(
                "2k peers, inline, 1 caller, 80% warm panel / 20% cold "
                "ad-hoc: fixed per-query costs (submit, session, ticks) "
                "dominate; p50 is the warm path, p90 the cold one"
            ),
            fixture="2k",
            queries_per_round=400,
            adhoc_every=5,
            clients=1,
        ),
        Workload(
            name="dash_22k_inline",
            why=(
                "same mix on 22,556 peers / 2M tuples: the size axis, "
                "where anything O(num_peers) per query dominates"
            ),
            fixture="22k",
            queries_per_round=100,
            adhoc_every=5,
            clients=1,
        ),
        Workload(
            name="adhoc_2k_forked2",
            why=(
                "2k peers, 2 forked workers, 32 callers in lock-step "
                "bursts, 100% distinct cold queries: the parent only "
                "routes, ships and decodes, so pool/codec/shm carry it"
            ),
            fixture="2k",
            queries_per_round=640,
            adhoc_every=1,
            clients=32,
            workers=2,
        ),
        Workload(
            name="chaos_2k_timed",
            why=(
                "2k peers as an event-driven simulator under loss, "
                "crashes, spikes and retries, 8 in flight, traced: the "
                "scalar visit path, resilient collector and event kernel "
                "the clean workloads bypass"
            ),
            fixture="2k",
            queries_per_round=192,
            adhoc_every=2,
            clients=32,
            max_in_flight=8,
            chaos=True,
        ),
    )
}


# ---------------------------------------------------------------------------
# Query streams
# ---------------------------------------------------------------------------


def _adhoc_sql(seed: int, count: int) -> List[str]:
    """``count`` distinct one-off range aggregates, seeded."""
    space = len(_ADHOC_AGGS) * len(_ADHOC_LOWS) * len(_ADHOC_WIDTHS)
    if count > space:
        raise ValueError(f"at most {space} distinct ad-hoc queries")
    picks = np.random.default_rng(seed).permutation(space)[:count]
    queries = []
    for pick in picks:
        pick, width = divmod(int(pick), len(_ADHOC_WIDTHS))
        agg, low = divmod(pick, len(_ADHOC_LOWS))
        lo = _ADHOC_LOWS[low]
        queries.append(
            f"SELECT {_ADHOC_AGGS[agg]}(A) FROM T "
            f"WHERE A BETWEEN {lo} AND {lo + _ADHOC_WIDTHS[width]}"
        )
    return queries


def query_stream(
    workload: Workload, seed: int, scale: float = 1.0
) -> Tuple[List[str], List[str]]:
    """``(warm_up, measured)`` SQL for one round of ``workload``.

    The warm-up serves every panel signature once (so the measured
    panel traffic is warm) or, for an all-ad-hoc workload, one burst
    (so workers have attached the snapshot before timing starts).
    ``scale`` shrinks the measured count for smoke runs.
    """
    total = max(workload.clients, round(workload.queries_per_round * scale))
    every = workload.adhoc_every
    panel_only = every > 1
    num_adhoc = total // every
    warm_adhoc = 0 if panel_only else workload.clients
    adhoc = _adhoc_sql(seed, num_adhoc + warm_adhoc)
    warm_up = list(PANEL_SQL) if panel_only else adhoc[num_adhoc:]
    measured: List[str] = []
    fresh = iter(adhoc)
    panel_at = 0
    for position in range(total):
        if position % every == every - 1:
            measured.append(next(fresh))
        else:
            measured.append(PANEL_SQL[panel_at % len(PANEL_SQL)])
            panel_at += 1
    return warm_up, measured


def parse_stream(sql: Sequence[str]) -> List[AggregationQuery]:
    """The objects the service is handed."""
    return [parse_query(text) for text in sql]


# ---------------------------------------------------------------------------
# Fixtures, simulators, services
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Fixture:
    """In-memory topology and per-peer databases, built once per
    process; simulators and services are built from it repeatedly."""

    kind: str
    topology: Topology
    databases: Sequence[LocalDatabase]
    build_s: float


def build_fixture(kind: str) -> Fixture:
    """The ``"2k"`` or ``"22k"`` network, always from the same seeds."""
    started = time.perf_counter()
    if kind == "2k":
        topology = power_law_topology(2000, 10_000, seed=1)
        tuples = 200_000
    elif kind == "22k":
        topology = gnutella_2001_like(seed=1)
        tuples = 2_000_000
    else:
        raise ValueError(f"unknown fixture {kind!r}")
    dataset = generate_dataset(
        topology, DatasetConfig(num_tuples=tuples), seed=1
    )
    return Fixture(
        kind=kind,
        topology=topology,
        databases=dataset.databases,
        build_s=time.perf_counter() - started,
    )


def make_simulator(workload: Workload, fixture: Fixture) -> NetworkSimulator:
    """The snapshot ``workload`` serves against."""
    if not workload.chaos:
        return NetworkSimulator(fixture.topology, fixture.databases, seed=1)
    plan = FaultPlan(
        seed=5,
        crashes=tuple(
            CrashWindow(peer_id=peer, start=0, stop=10**9)
            for peer in range(0, fixture.topology.num_peers, 17)
        ),
        reply_loss=0.1,
        latency_spike=LatencySpike(rate=0.05, extra_ms=400.0),
        probe_timeout_ms=250.0,
    )
    latency = LatencyModel(
        seed=3,
        request=ExponentialLatency(20.0),
        reply=ExponentialLatency(20.0),
        hop=ConstantLatency(1.0),
    )
    return EventDrivenSimulator(
        fixture.topology,
        fixture.databases,
        seed=1,
        fault_plan=plan,
        latency=latency,
        probe_timeout_ms=250.0,
    )


def engine_config(workload: Workload) -> TwoPhaseConfig:
    """The engine configuration ``workload`` serves with."""
    return TwoPhaseConfig(
        max_phase_two_peers=400,
        retry_policy=RetryPolicy(max_attempts=3) if workload.chaos else None,
    )


def make_service(
    workload: Workload,
    simulator: NetworkSimulator,
    *,
    inline: bool = False,
    capture_traces: Optional[bool] = None,
    measure_transport: bool = False,
) -> QueryService:
    """A fresh service for one round.

    ``inline`` serves a sharded workload's stream on the serial
    reference path instead (the serial==sharded replay);
    ``capture_traces`` overrides the workload's own setting (the
    capture-overhead probe); ``measure_transport`` has a sharded
    service meter its queue traffic
    (``service.backend.transport_stats()``; bench-only, it re-pickles
    every payload).
    """
    if capture_traces is None:
        capture_traces = workload.chaos
    config = engine_config(workload)
    workers = None if inline else workload.workers
    backend = None
    if workers is not None and measure_transport:
        # The knobs QueryService would pass; its max_age/decay defaults.
        settings = EngineSettings(
            config=config,
            chunk_peers=CHUNK_PEERS,
            max_age=25,
            decay=0.7,
            delta_reestimation=False,
        )
        backend = ForkedBackend(
            simulator, settings, workers, measure_transport=True
        )
        workers = None
    return QueryService(
        simulator,
        config,
        seed=SERVICE_SEED,
        max_in_flight=workload.max_in_flight,
        max_queue=max(64, workload.clients),
        chunk_peers=CHUNK_PEERS,
        capture_traces=capture_traces,
        workers=workers,
        backend=backend,
    )
