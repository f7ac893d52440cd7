"""Fate per probe + one read per collection ⇔ the per-peer loop.

Under faults and virtual time an aggregate collection decides, charges
and traces every probe on its own (``NetworkSimulator.probe_visit``)
and reads the rows of all survivors afterwards in one vectorised pass
(``read_visits``); every other reply kind runs through the same driver
and kernels (``TestKindParity``).  The contract is that nothing can
tell: against the former per-peer loops, kept verbatim in
``tests/visit_oracle.py``, a collection must leave *everything*
identical — replies (floats
bitwise), ``CostLedger.snapshot()``, ``CollectionStats``, the trace
(digest and event count), the fault clock, the virtual clock, the
kernel's message counter, and the state of every RNG it may touch
(visit stream, simulator stream, walker).

Scenarios are hypothesis-drawn over fault plan × latency model × churn
timeline × retry policy × budget × sampling method × seed kind; each
side runs on its own identically built simulator.  CI runs this file
twice (the ``sim`` job) and in the ``chaos`` job, derandomized.
"""

import dataclasses
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.two_phase import PlanCache, TwoPhaseConfig, TwoPhaseEngine
from repro.data.generator import DatasetConfig, generate_dataset
from repro.data.localdb import LocalDatabase
from repro.errors import PeerUnavailableError, ProtocolError
from repro.network.churn import ChurnConfig
from repro.network.faults import (
    CrashWindow,
    FaultPlan,
    LatencySpike,
    RegionalOutage,
)
from repro.network.generators import power_law_topology
from repro.network.live import LiveNetwork
from repro.network.protocol import AggregateSample, PanelSample
from repro.network.simulator import NetworkSimulator
from repro.network.topology import Topology
from repro.network.visits import GroupVisits, PanelVisits, ValueVisits
from repro.network.walker import (
    CollectionStats,
    RandomWalkConfig,
    RandomWalker,
    ResilientCollector,
    RetryPolicy,
)
from repro.obs.tracer import Tracer, tracing
from repro.query.model import AggregateOp, AggregationQuery, Comparison
from repro.query.parser import parse_query
from repro.sim.event_driven import EventDrivenSimulator
from repro.sim.latency import (
    ConstantLatency,
    ExponentialLatency,
    LatencyModel,
    UniformLatency,
)
from repro.sim.timeline import ChurnTimeline

from . import visit_oracle

pytestmark = pytest.mark.chaos

NUM_PEERS = 200
TOPOLOGY = power_law_topology(NUM_PEERS, 800, seed=7)
DATASET = generate_dataset(
    TOPOLOGY,
    DatasetConfig(num_tuples=10_000, cluster_level=0.25, skew=0.2),
    seed=7,
)
SINK = 0
PROBE_BYTES = 64
PROBE_TIMEOUT_MS = 250.0


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Scenario:
    fault_plan: Optional[FaultPlan]
    latency: Optional[LatencyModel]
    timeline: Optional[ChurnTimeline]
    probe_timeout_ms: Optional[float]
    stale_mode: str
    event_driven: bool
    policy: RetryPolicy
    tuples_per_peer: int
    sampling_method: str
    seed_kind: str
    agg: AggregateOp
    count: int
    jump: int
    simulator_seed: int
    walker_seed: int
    visit_seed: int

    @property
    def timed(self) -> bool:
        return (
            self.latency is not None
            or self.timeline is not None
            or self.probe_timeout_ms is not None
        )

    def simulator(self):
        if not (self.timed or self.event_driven):
            return NetworkSimulator(
                TOPOLOGY,
                DATASET.databases,
                seed=self.simulator_seed,
                fault_plan=self.fault_plan,
            )
        return EventDrivenSimulator(
            TOPOLOGY,
            DATASET.databases,
            seed=self.simulator_seed,
            fault_plan=self.fault_plan,
            latency=self.latency,
            timeline=self.timeline,
            probe_timeout_ms=self.probe_timeout_ms,
            stale_mode=self.stale_mode,
        )

    def query(self):
        return AggregationQuery(
            agg=self.agg, column="A", predicate=Comparison("A", "<", 30)
        )

    def visit_seed_for(self, simulator):
        """``(seed argument, the generator whose state to compare)``."""
        if self.seed_kind == "none":
            return None, simulator._rng
        if self.seed_kind == "int":
            return self.visit_seed, None
        generator = np.random.default_rng(self.visit_seed)
        return generator, generator


crash_windows = st.builds(
    lambda peer, start, length: CrashWindow(peer, start, start + length),
    st.integers(0, NUM_PEERS - 1),
    st.integers(0, 60),
    st.integers(1, 200),
)
outages = st.builds(
    lambda center, radius, start, length: RegionalOutage(
        center, radius, start, start + length
    ),
    st.integers(0, NUM_PEERS - 1),
    st.integers(0, 2),
    st.integers(0, 40),
    st.integers(1, 120),
)
# One spike below the probe timeout (slow but answered) and one above
# it (times out; in timed mode the reply lands late).
spikes = st.one_of(
    st.none(),
    st.builds(
        LatencySpike,
        rate=st.sampled_from([0.1, 0.3]),
        extra_ms=st.sampled_from([50.0, 400.0]),
    ),
)
fault_plans = st.one_of(
    st.none(),
    st.builds(
        FaultPlan,
        seed=st.integers(0, 2**32),
        crashes=st.lists(crash_windows, max_size=12).map(tuple),
        outages=st.lists(outages, max_size=2).map(tuple),
        reply_loss=st.sampled_from([0.0, 0.1, 0.3]),
        latency_spike=spikes,
        probe_timeout_ms=st.sampled_from([None, PROBE_TIMEOUT_MS]),
    ),
)
distributions = st.one_of(
    st.just(ConstantLatency(0.0)),
    st.just(ConstantLatency(0.1)),
    st.just(UniformLatency(5.0, 120.0)),
    st.just(ExponentialLatency(40.0)),
)
latencies = st.one_of(
    st.none(),
    st.builds(
        LatencyModel,
        seed=st.integers(0, 2**32),
        request=distributions,
        reply=distributions,
        hop=distributions,
    ),
)
timelines = st.one_of(
    st.none(),
    st.builds(
        ChurnTimeline.sampled,
        seed=st.integers(0, 2**32),
        num_peers=st.just(NUM_PEERS),
        horizon_ms=st.just(20_000.0),
        departure_rate_per_s=st.sampled_from([0.0, 0.05, 0.3]),
        epoch_every_ms=st.sampled_from([None, 700.0]),
    ),
)
policies = st.builds(
    RetryPolicy,
    max_attempts=st.integers(1, 3),
    backoff_base_ms=st.sampled_from([0.0, 50.0]),
    backoff_factor=st.sampled_from([1.0, 2.0]),
    max_substitutions=st.sampled_from([None, 0, 2]),
)
scenarios = st.builds(
    Scenario,
    fault_plan=fault_plans,
    latency=latencies,
    timeline=timelines,
    probe_timeout_ms=st.sampled_from([None, PROBE_TIMEOUT_MS]),
    stale_mode=st.sampled_from(["accept", "reject"]),
    event_driven=st.booleans(),
    policy=policies,
    # Unlimited, below most partitions (≈50 rows), above every one.
    tuples_per_peer=st.sampled_from([0, 10, 10_000]),
    sampling_method=st.sampled_from(["uniform", "block"]),
    seed_kind=st.sampled_from(["none", "int", "generator"]),
    agg=st.sampled_from(
        [AggregateOp.COUNT, AggregateOp.SUM, AggregateOp.AVG]
    ),
    count=st.integers(1, 50),
    jump=st.sampled_from([1, 4]),  # jump 1 re-selects neighbours often
    simulator_seed=st.integers(0, 2**32),
    walker_seed=st.integers(0, 2**32),
    visit_seed=st.integers(0, 2**32),
)


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def _reply_bits(reply):
    return (
        reply.source,
        reply.destination,
        float(reply.aggregate_value).hex(),
        float(reply.matching_count).hex(),
        float(reply.column_total).hex(),
        float(reply.contribution_variance).hex(),
        reply.degree,
        reply.local_tuples,
        reply.processed_tuples,
    )


def _generator_state(generator):
    return None if generator is None else generator.bit_generator.state


def _world_state(simulator, ledger, tracer, visit_generator, walker=None):
    """Everything observable a collection leaves behind."""
    state = {
        "ledger": ledger.snapshot(),
        "trace": (tracer.digest(), tracer.num_events),
        "fault_clock": (
            simulator.fault_state.clock
            if simulator.fault_state is not None
            else None
        ),
        "visit_rng": _generator_state(visit_generator),
        "simulator_rng": _generator_state(simulator._rng),
        "walker_rng": (
            _generator_state(walker._rng) if walker is not None else None
        ),
    }
    if isinstance(simulator, EventDrivenSimulator):
        kernel = simulator.kernel
        state["virtual"] = (
            float(kernel.now_ms).hex(),
            kernel.messages,
            kernel.pending_events,
            kernel.epoch,
            kernel.stale_replies,
            sorted(kernel.departed_peers()),
        )
    return state


def _tracer_for(simulator):
    clock = simulator.virtual_clock
    return Tracer(time_source=clock.read if clock is not None else None)


def _stage(scenario, simulator=None):
    """One side's fresh world: ``(simulator, seed argument, generator
    to compare afterwards, ledger, tracer)``."""
    simulator = simulator if simulator is not None else scenario.simulator()
    seed, visit_generator = scenario.visit_seed_for(simulator)
    return (
        simulator,
        seed,
        visit_generator,
        simulator.new_ledger(),
        _tracer_for(simulator),
    )


def _collect(scenario, oracle, topology=TOPOLOGY, simulator=None, sink=SINK):
    simulator, seed, visit_generator, ledger, tracer = _stage(
        scenario, simulator
    )
    walker = RandomWalker(
        topology,
        RandomWalkConfig(jump=scenario.jump),
        seed=scenario.walker_seed,
    )
    collector_class = (
        visit_oracle.OracleCollector if oracle else ResilientCollector
    )
    collector = collector_class(walker, simulator, scenario.policy)
    with tracing(tracer):
        replies, stats = collector.collect_aggregate(
            sink,
            scenario.query(),
            scenario.count,
            ledger,
            probe_bytes=PROBE_BYTES,
            tuples_per_peer=scenario.tuples_per_peer,
            sampling_method=scenario.sampling_method,
            seed=seed,
        )
    if isinstance(stats, CollectionStats):
        stats = dataclasses.asdict(stats)
    stats["backoff_wait_ms"] = float(stats["backoff_wait_ms"]).hex()
    return (
        [_reply_bits(reply) for reply in replies],
        stats,
        _world_state(simulator, ledger, tracer, visit_generator, walker),
    )


def _visit_batch(scenario, oracle, peers):
    simulator, seed, visit_generator, ledger, tracer = _stage(scenario)
    kwargs = dict(
        sink=SINK,
        ledger=ledger,
        tuples_per_peer=scenario.tuples_per_peer,
        sampling_method=scenario.sampling_method,
        seed=seed,
    )
    with tracing(tracer):
        if oracle:
            replies = visit_oracle.oracle_visit_aggregate_batch(
                simulator, peers, scenario.query(), **kwargs
            )
        else:
            replies = simulator.visit_aggregate_batch(
                peers, scenario.query(), **kwargs
            )
    return (
        [_reply_bits(reply) for reply in replies],
        _world_state(simulator, ledger, tracer, visit_generator),
    )


def _visit_scalars(scenario, oracle, peers):
    """One scalar visit per peer, failures recorded by type."""
    simulator, seed, visit_generator, ledger, tracer = _stage(scenario)
    outcomes = []
    with tracing(tracer):
        for peer in peers:
            try:
                if oracle:
                    reply = visit_oracle.oracle_visit_aggregate(
                        simulator, int(peer), scenario.query(), SINK, ledger,
                        scenario.tuples_per_peer, scenario.sampling_method,
                        seed,
                    )
                else:
                    reply = simulator.visit_aggregate(
                        int(peer), scenario.query(), SINK, ledger,
                        scenario.tuples_per_peer, scenario.sampling_method,
                        seed,
                    )
            except PeerUnavailableError as error:
                outcomes.append((type(error).__name__, str(error)))
            else:
                outcomes.append(_reply_bits(reply))
    return outcomes, _world_state(simulator, ledger, tracer, visit_generator)


def _peers_with_repeats(scenario):
    rng = np.random.default_rng(scenario.walker_seed)
    peers = rng.integers(NUM_PEERS, size=scenario.count)
    return np.concatenate([peers, peers[: max(1, scenario.count // 3)]])


# ---------------------------------------------------------------------------
# Collection-level parity
# ---------------------------------------------------------------------------


class TestCollectionParity:
    @given(scenario=scenarios)
    @settings(max_examples=120, deadline=None)
    def test_resilient_collection_equals_the_per_peer_loop(self, scenario):
        assert _collect(scenario, oracle=False) == _collect(
            scenario, oracle=True
        )

    @given(scenario=scenarios)
    @settings(max_examples=80, deadline=None)
    def test_faulted_batch_visit_equals_the_per_peer_loop(self, scenario):
        peers = _peers_with_repeats(scenario)
        if not visit_oracle._faulted(scenario.simulator()):
            # Nothing armed: the clean vectorised path, whose oracle is
            # the scalar loop (tests/test_batch_equivalence.py).
            batch, world = _visit_batch(scenario, False, peers)
            scalars, scalar_world = _visit_scalars(scenario, True, peers)
            assert batch == scalars
            del world["trace"], scalar_world["trace"]  # batch vs probe events
            assert world == scalar_world
            return
        assert _visit_batch(scenario, False, peers) == _visit_batch(
            scenario, True, peers
        )

    @given(scenario=scenarios)
    @settings(max_examples=80, deadline=None)
    def test_scalar_visit_equals_its_former_self(self, scenario):
        """``visit_aggregate`` is fate + a read of one; same replies,
        same exception types and messages, same everything."""
        peers = _peers_with_repeats(scenario)
        assert _visit_scalars(scenario, False, peers) == _visit_scalars(
            scenario, True, peers
        )


# ---------------------------------------------------------------------------
# Every reply kind: one kernel per chunk ⇔ the former per-peer visits
# ---------------------------------------------------------------------------

MEDIAN_BELOW_30 = AggregationQuery(
    agg=AggregateOp.MEDIAN, column="A", predicate=Comparison("A", "<", 30)
)
SUM_BY_VALUE = parse_query("SELECT SUM(A) FROM T WHERE A < 40 GROUP BY A")
PANEL = [
    parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30"),
    parse_query("SELECT SUM(A) FROM T"),
    parse_query("SELECT AVG(A) FROM T WHERE A > 50"),
]

#: kind → (the product's visits over a scenario's arguments, the
#: oracle's per-peer visit over the same).
KINDS = {
    "values-median": (
        lambda sim, t, method, seed: ValueVisits(
            sim, MEDIAN_BELOW_30, SINK, t, method, seed
        ),
        lambda sim, peer, ledger, t, method, seed: (
            visit_oracle.oracle_visit_values(
                sim, peer, MEDIAN_BELOW_30, SINK, ledger, t, method, seed,
            )
        ),
    ),
    "group": (
        lambda sim, t, method, seed: GroupVisits(
            sim, SUM_BY_VALUE, SINK, t, method, seed
        ),
        lambda sim, peer, ledger, t, method, seed: (
            visit_oracle.oracle_visit_group_aggregate(
                sim, peer, SUM_BY_VALUE, SINK, ledger, t, method, seed
            )
        ),
    ),
    "multi": (
        lambda sim, t, method, seed: PanelVisits(
            sim, PANEL, SINK, t, method, seed
        ),
        lambda sim, peer, ledger, t, method, seed: (
            visit_oracle.oracle_visit_multi_aggregate(
                sim, peer, PANEL, SINK, ledger, t, method, seed
            )
        ),
    ),
}


def _oracle_bits(reply):
    """One reply of the oracle's — a panel's list of them — as bits."""
    if isinstance(reply, list):
        return tuple(_reply_bits(member) for member in reply)
    shipped = getattr(reply, "entries", None) or getattr(reply, "values", ())
    return (
        reply.source, reply.degree, reply.local_tuples,
        reply.processed_tuples,
        tuple(float(value).hex() for value in np.ravel(shipped)),
    )


def _sample_bits(sample):
    """The product's sample, a reply (or a panel's replies) per row."""
    if isinstance(sample, PanelSample):
        return [
            tuple(_reply_bits(reply) for reply in replies)
            for replies in zip(*(list(member) for member in sample.samples))
        ]
    return [
        (
            int(row["source"]), int(row["degree"]), int(row["local_tuples"]),
            int(row["processed_tuples"]),
            tuple(
                float(value).hex()
                for value in np.ravel(sample.values[start:start + shipped])
            ),
        )
        for row, start, shipped in zip(
            sample.replies.rows, sample.offsets.tolist(),
            sample["shipped"].tolist(),
        )
    ]


def _kind_batch(scenario, kind, oracle, peers):
    simulator, seed, visit_generator, ledger, tracer = _stage(scenario)
    visits, oracle_visit = KINDS[kind]
    arguments = (scenario.tuples_per_peer, scenario.sampling_method, seed)
    with tracing(tracer):
        if oracle:
            bits = [
                _oracle_bits(reply)
                for reply in visit_oracle.oracle_visit_batch(
                    simulator, oracle_visit, visits(simulator, *arguments).kind,
                    peers, ledger, *arguments,
                )
            ]
        else:
            bits = _sample_bits(
                visits(simulator, *arguments).visit(peers, ledger)
            )
    world = _world_state(simulator, ledger, tracer, visit_generator)
    if not visit_oracle._faulted(simulator):
        # One batch-visit event against a probe event per peer: only
        # what they charge can be compared.
        world["trace"] = tracer.cost_total
    return bits, world


def _kind_collect(scenario, kind, oracle):
    simulator, seed, visit_generator, ledger, tracer = _stage(scenario)
    visits, oracle_visit = KINDS[kind]
    arguments = (scenario.tuples_per_peer, scenario.sampling_method, seed)
    walker = RandomWalker(
        TOPOLOGY, RandomWalkConfig(jump=scenario.jump),
        seed=scenario.walker_seed,
    )
    with tracing(tracer):
        if oracle:
            replies, stats = visit_oracle.OracleCollector(
                walker, simulator, scenario.policy
            ).collect_with(
                SINK, scenario.count, ledger, PROBE_BYTES,
                lambda peer: oracle_visit(simulator, peer, ledger, *arguments),
            )
            bits = [_oracle_bits(reply) for reply in replies]
        else:
            sample, stats = ResilientCollector(
                walker, simulator, scenario.policy
            ).collect(
                visits(simulator, *arguments), scenario.count, ledger,
                PROBE_BYTES,
            )
            bits = _sample_bits(sample)
            stats = dataclasses.asdict(stats)
    stats["backoff_wait_ms"] = float(stats["backoff_wait_ms"]).hex()
    return (
        bits, stats,
        _world_state(simulator, ledger, tracer, visit_generator, walker),
    )


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestKindParity:
    """A batch visit and a resilient collection of every reply kind
    leave what the per-peer visits they replaced left: replies (floats
    bitwise), ledger, stats, fault and virtual clocks, every RNG — and,
    under faults, the trace."""

    @given(scenario=scenarios)
    @settings(max_examples=25, deadline=None)
    def test_batch_visit_equals_the_per_peer_loop(self, kind, scenario):
        peers = _peers_with_repeats(scenario)
        assert _kind_batch(scenario, kind, False, peers) == _kind_batch(
            scenario, kind, True, peers
        )

    @given(scenario=scenarios)
    @settings(max_examples=25, deadline=None)
    def test_resilient_collection_equals_the_per_peer_loop(
        self, kind, scenario
    ):
        assert _kind_collect(scenario, kind, False) == _kind_collect(
            scenario, kind, True
        )

    @pytest.mark.parametrize("corner", ["bench-chaos", "loss-only"])
    def test_named_corner(self, kind, corner):
        scenario = Scenario(**{**_BASE, **CORNERS[corner]})
        peers = _peers_with_repeats(scenario)
        assert _kind_batch(scenario, kind, False, peers) == _kind_batch(
            scenario, kind, True, peers
        )
        assert _kind_collect(scenario, kind, False) == _kind_collect(
            scenario, kind, True
        )


#: Named corners the drawn scenarios may or may not hit in a given run.
_BASE = dict(
    fault_plan=None,
    latency=None,
    timeline=None,
    probe_timeout_ms=None,
    stale_mode="accept",
    event_driven=False,
    policy=RetryPolicy(),
    tuples_per_peer=10,
    sampling_method="uniform",
    seed_kind="generator",
    agg=AggregateOp.SUM,
    count=40,
    jump=4,
    simulator_seed=11,
    walker_seed=12,
    visit_seed=13,
)
_CHAOS_PLAN = FaultPlan(
    seed=5,
    crashes=tuple(
        CrashWindow(peer_id=peer, start=0, stop=10**9)
        for peer in range(0, NUM_PEERS, 17)
    ),
    reply_loss=0.1,
    latency_spike=LatencySpike(rate=0.05, extra_ms=400.0),
    probe_timeout_ms=PROBE_TIMEOUT_MS,
)
_CHAOS_LATENCY = LatencyModel(
    seed=3,
    request=ExponentialLatency(20.0),
    reply=ExponentialLatency(20.0),
    hop=ConstantLatency(1.0),
)
CORNERS = {
    "loss-only": dict(
        fault_plan=FaultPlan(seed=6, reply_loss=0.3), seed_kind="none"
    ),
    "one-attempt-no-substitutes": dict(
        fault_plan=_CHAOS_PLAN,
        policy=RetryPolicy(max_attempts=1, max_substitutions=0),
    ),
    "blanket-outage": dict(
        fault_plan=FaultPlan(
            seed=1, outages=(RegionalOutage(0, 50, 0, 10**9),)
        ),
        policy=RetryPolicy(max_substitutions=3),
    ),
    "spike-below-timeout": dict(
        fault_plan=FaultPlan(
            seed=2,
            latency_spike=LatencySpike(rate=0.5, extra_ms=50.0),
            probe_timeout_ms=PROBE_TIMEOUT_MS,
        ),
    ),
    "spike-above-timeout-timed": dict(
        fault_plan=FaultPlan(
            seed=2,
            latency_spike=LatencySpike(rate=0.5, extra_ms=400.0),
            probe_timeout_ms=PROBE_TIMEOUT_MS,
        ),
        latency=_CHAOS_LATENCY,
    ),
    "bench-chaos": dict(
        fault_plan=_CHAOS_PLAN,
        latency=_CHAOS_LATENCY,
        probe_timeout_ms=PROBE_TIMEOUT_MS,
        policy=RetryPolicy(max_attempts=3),
        agg=AggregateOp.COUNT,
    ),
    "departures-and-stale-rejects": dict(
        latency=LatencyModel(
            seed=4,
            request=UniformLatency(5.0, 120.0),
            reply=UniformLatency(5.0, 120.0),
            hop=ExponentialLatency(2.0),
        ),
        timeline=ChurnTimeline.sampled(
            9, NUM_PEERS, 20_000.0,
            departure_rate_per_s=0.3, epoch_every_ms=700.0,
        ),
        stale_mode="reject",
        probe_timeout_ms=PROBE_TIMEOUT_MS,
        sampling_method="block",
    ),
    "clean-passthrough-event-driven": dict(event_driven=True),
    "budget-above-every-partition": dict(
        fault_plan=_CHAOS_PLAN, tuples_per_peer=10_000, seed_kind="none"
    ),
    "unlimited-budget-block": dict(
        fault_plan=_CHAOS_PLAN, tuples_per_peer=0, sampling_method="block"
    ),
}


@pytest.mark.parametrize("corner", sorted(CORNERS))
def test_named_corner(corner):
    scenario = Scenario(**{**_BASE, **CORNERS[corner]})
    product = _collect(scenario, oracle=False)
    assert product == _collect(scenario, oracle=True)
    peers = _peers_with_repeats(scenario)
    if visit_oracle._faulted(scenario.simulator()):
        assert _visit_batch(scenario, False, peers) == _visit_batch(
            scenario, True, peers
        )
    assert _visit_scalars(scenario, False, peers) == _visit_scalars(
        scenario, True, peers
    )


def test_corners_exercise_what_they_name():
    """The corner table is only worth its names if retries, crashes,
    substitutions and timeouts actually happen in it."""
    _, stats, _ = _collect(
        Scenario(**{**_BASE, **CORNERS["bench-chaos"]}), oracle=False
    )
    assert stats["retries"] and stats["crashes"] and stats["substitutions"]
    assert stats["losses"] and stats["timeouts"]
    _, stats, _ = _collect(
        Scenario(**{**_BASE, **CORNERS["blanket-outage"]}), oracle=False
    )
    assert stats["received"] == 0 and stats["substitutions"] == 3


def test_walk_that_selects_the_same_peer_twice():
    """Five peers, a dozen selections: every survivor list repeats
    peers, and the shared visit stream must still be consumed visit by
    visit in survival order."""
    topology = Topology(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    rng = np.random.default_rng(3)
    databases = [
        LocalDatabase({"A": rng.integers(1, 101, size)}, block_size=4)
        for size in (40, 3, 25, 0, 12)
    ]
    plan = FaultPlan(
        seed=8,
        crashes=(CrashWindow(peer_id=4, start=0, stop=10**9),),
        reply_loss=0.25,
    )
    for seed_kind in ("none", "int", "generator"):
        scenario = Scenario(
            **{**_BASE, "count": 12, "jump": 1, "seed_kind": seed_kind}
        )

        def simulator():
            return NetworkSimulator(
                topology, databases, seed=5, fault_plan=plan
            )

        product = _collect(
            scenario, False, topology=topology, simulator=simulator()
        )
        oracle = _collect(
            scenario, True, topology=topology, simulator=simulator()
        )
        assert product == oracle
        sources = [reply[0] for reply in product[0]]
        assert len(sources) > len(set(sources))


# ---------------------------------------------------------------------------
# Engine-level parity: cold, warm and delta runs under the chaos plan
# ---------------------------------------------------------------------------

SUM_RANGE = parse_query("SELECT SUM(A) FROM T WHERE A BETWEEN 5 AND 70")


def _oracle_collect_aggregate(
    self, sink, query, count, ledger, probe_bytes, **kwargs
):
    replies, stats = visit_oracle.OracleCollector(
        self._walker, self._simulator, self._policy
    ).collect_aggregate(sink, query, count, ledger, probe_bytes, **kwargs)
    return AggregateSample.from_replies(replies, sink), CollectionStats(**stats)


def _oracle_visit_aggregate_batch(self, peer_ids, query, sink, ledger, **kw):
    return AggregateSample.from_replies(
        visit_oracle.oracle_visit_aggregate_batch(
            self, peer_ids, query, sink, ledger, **kw
        ),
        sink,
    )


def _chaos_epochs():
    """Two churn epochs of one 200-peer live network, each served by an
    event-driven simulator under the benchmark's chaos plan."""
    live = LiveNetwork(
        TOPOLOGY,
        DATASET.databases,
        churn_config=ChurnConfig(join_rate=0.5, leave_rate=0.5),
        seed=5,
    )

    def epoch(seed):
        frozen = live.snapshot(seed=seed)
        return EventDrivenSimulator(
            frozen.topology,
            frozen.databases(),
            seed=seed,
            fault_plan=_CHAOS_PLAN,
            fault_strict_peers=False,
            peer_labels=frozen.peer_labels,
            latency=_CHAOS_LATENCY,
            probe_timeout_ms=PROBE_TIMEOUT_MS,
        )

    first = epoch(11)
    live.step(20)
    return first, epoch(13)


def _engine_fingerprints(retry_policy):
    first, second = _chaos_epochs()
    engine = TwoPhaseEngine(
        first,
        TwoPhaseConfig(phase_one_peers=25, retry_policy=retry_policy),
        seed=7,
        cache=PlanCache(delta_reestimation=True),
    )
    fingerprints = []

    def run(simulator):
        tracer = _tracer_for(simulator)
        with tracing(tracer):
            result = engine.execute(SUM_RANGE, 0.15, sink=0)
        fingerprints.append(
            (
                float(result.estimate).hex(),
                result.cost,
                result.degraded,
                tracer.digest(),
                tracer.num_events,
            )
        )

    run(first)  # cold
    run(first)  # warm
    engine.rebind(second)
    run(second)  # delta
    assert (engine.cold_runs, engine.warm_runs, engine.delta_runs) == (
        1, 1, 1,
    )
    return fingerprints


@pytest.mark.parametrize(
    "retry_policy",
    [RetryPolicy(max_attempts=3), None],
    ids=["resilient-collector", "faulted-batch-visits"],
)
def test_hybrid_engine_cold_warm_delta_under_chaos(monkeypatch, retry_policy):
    product = _engine_fingerprints(retry_policy)
    monkeypatch.setattr(
        ResilientCollector, "collect_aggregate", _oracle_collect_aggregate
    )
    monkeypatch.setattr(
        NetworkSimulator,
        "visit_aggregate_batch",
        _oracle_visit_aggregate_batch,
    )
    assert product == _engine_fingerprints(retry_policy)


# ---------------------------------------------------------------------------
# The compiled visit pass at the simulator
# ---------------------------------------------------------------------------


class TestCompiledVisitPass:
    """The visit's row selection and reduction are one compiled pass per
    chunk, over buffers of the calling thread.  A chunk that outgrows
    every buffer reads what the per-peer loop reads, and a peer outside
    the network is refused before the pass runs."""

    QUERY = parse_query("SELECT SUM(A) FROM T WHERE A BETWEEN 10 AND 60")

    @pytest.mark.parametrize("tuples_per_peer", [0, 100])
    def test_every_peer_of_a_2000_peer_network_in_one_chunk(
        self, tuples_per_peer
    ):
        import threading

        topology = power_law_topology(2000, 8000, seed=3)
        dataset = generate_dataset(
            topology, DatasetConfig(num_tuples=400_000), seed=3
        )
        peers = np.arange(2000, dtype=np.int64)

        def simulator():
            return NetworkSimulator(topology, dataset.databases, seed=1)

        outcome = {}

        def visit():  # a new thread: every buffer starts at its initial size
            try:
                outcome["sample"] = simulator().visit_aggregate_batch(
                    peers, self.QUERY, SINK, simulator().new_ledger(),
                    tuples_per_peer=tuples_per_peer,
                    seed=np.random.default_rng(5),
                )
            except BaseException as error:
                outcome["error"] = error

        thread = threading.Thread(target=visit)
        thread.start()
        thread.join()
        assert "error" not in outcome, outcome.get("error")
        oracle = simulator()
        rng = np.random.default_rng(5)
        replies = [
            visit_oracle.oracle_visit_aggregate(
                oracle, peer, self.QUERY, SINK, oracle.new_ledger(),
                tuples_per_peer=tuples_per_peer, seed=rng,
            )
            for peer in peers.tolist()
        ]
        expected = AggregateSample.from_replies(replies, SINK)
        assert outcome["sample"].rows.tobytes() == expected.rows.tobytes()
        assert (
            outcome["sample"]["processed_tuples"]
            < outcome["sample"]["local_tuples"]
        ).any() == bool(tuples_per_peer)

    def test_an_unknown_peer_raises_before_the_compiled_pass(
        self, monkeypatch
    ):
        from repro.data import segments

        passes = []
        plan = segments._plan
        monkeypatch.setattr(
            segments, "_plan", lambda select: passes.append(1) or plan(select)
        )
        simulator = NetworkSimulator(TOPOLOGY, DATASET.databases, seed=1)
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        for peers in ([0, NUM_PEERS], [-1, 3]):
            ledger = simulator.new_ledger()
            with pytest.raises(ProtocolError, match="unknown peer"):
                simulator.visit_aggregate_batch(
                    peers, self.QUERY, SINK, ledger, tuples_per_peer=5,
                    seed=rng,
                )
            with pytest.raises(ProtocolError, match="unknown peer"):
                simulator.read_aggregates(
                    peers, self.QUERY, SINK, tuples_per_peer=5, seed=rng
                )
            assert ledger.snapshot() == simulator.new_ledger().snapshot()
        assert passes == []
        assert rng.bit_generator.state == state
        simulator.visit_aggregate_batch(
            [0, 3], self.QUERY, SINK, simulator.new_ledger(),
            tuples_per_peer=5, seed=rng,
        )
        assert passes == [1]
