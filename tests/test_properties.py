"""Property-based tests (hypothesis) on core data structures and
estimator invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._util import weighted_median
from repro.core.crossval import cross_validate
from repro.data.generator import DatasetConfig, generate_dataset
from repro.errors import PeerUnavailableError
from repro.metrics.cost import CostLedger
from repro.network.faults import (
    CrashWindow,
    FaultPlan,
    LatencySpike,
    RegionalOutage,
)
from repro.network.generators import power_law_topology
from repro.network.simulator import NetworkSimulator
from repro.network.walker import (
    RandomWalker,
    ResilientCollector,
    RetryPolicy,
)
from repro.core.estimators import (
    clustering_badness,
    horvitz_thompson,
)
from repro.data.generator import arrange_cluster_level
from repro.data.localdb import LocalDatabase
from repro.data.zipf import zipf_probabilities, zipf_sample
from repro.network.topology import Topology
from repro.obs.tracer import Tracer, tracing
from repro.query.model import (
    AggregateOp,
    AggregationQuery,
    And,
    Between,
    Comparison,
    Not,
    Or,
)
from repro.query.exact import evaluate_on_columns
from repro.query.parser import parse_query

from .row_reference import Row, sample_of

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

values_arrays = st.lists(
    st.integers(min_value=1, max_value=100), min_size=1, max_size=200
).map(lambda xs: np.asarray(xs, dtype=np.int64))


@st.composite
def populations(draw):
    """(values, probabilities) for an HT population."""
    n = draw(st.integers(min_value=2, max_value=30))
    values = draw(
        st.lists(
            st.floats(min_value=0, max_value=1000, allow_nan=False),
            min_size=n, max_size=n,
        )
    )
    weights = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=10, allow_nan=False),
            min_size=n, max_size=n,
        )
    )
    weights = np.asarray(weights)
    return np.asarray(values), weights / weights.sum()


@st.composite
def simple_graphs(draw):
    """A connected simple graph as (num_nodes, edge list)."""
    n = draw(st.integers(min_value=2, max_value=20))
    # Random spanning tree guarantees connectivity.
    edges = set()
    for node in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=node - 1))
        edges.add((parent, node))
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return n, sorted(edges)


# ---------------------------------------------------------------------------
# Topology invariants
# ---------------------------------------------------------------------------

@given(simple_graphs())
@settings(max_examples=50, deadline=None)
def test_topology_handshake_lemma(graph):
    n, edges = graph
    topology = Topology(n, edges)
    assert int(topology.degrees.sum()) == 2 * topology.num_edges


@given(simple_graphs())
@settings(max_examples=50, deadline=None)
def test_topology_stationary_distribution_sums_to_one(graph):
    n, edges = graph
    topology = Topology(n, edges)
    assert topology.stationary_distribution().sum() == pytest.approx(1.0)


@given(simple_graphs())
@settings(max_examples=50, deadline=None)
def test_topology_bfs_covers_connected_graph(graph):
    n, edges = graph
    topology = Topology(n, edges)
    assert sorted(topology.bfs_order(0)) == list(range(n))


@given(simple_graphs())
@settings(max_examples=30, deadline=None)
def test_topology_networkx_round_trip(graph):
    n, edges = graph
    topology = Topology(n, edges)
    back = Topology.from_networkx(topology.to_networkx())
    assert sorted(back.edges()) == sorted(topology.edges())


# ---------------------------------------------------------------------------
# Zipf invariants
# ---------------------------------------------------------------------------

@given(
    st.integers(min_value=1, max_value=500),
    st.floats(min_value=0, max_value=3, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_zipf_probabilities_are_a_distribution(num_values, skew):
    probabilities = zipf_probabilities(num_values, skew)
    assert probabilities.sum() == pytest.approx(1.0)
    assert np.all(probabilities > 0)
    assert np.all(np.diff(probabilities) <= 1e-15)


@given(
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=1, max_value=100),
    st.floats(min_value=0, max_value=2.5, allow_nan=False),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=30, deadline=None)
def test_zipf_sample_stays_in_domain(n, num_values, skew, seed):
    sample = zipf_sample(n, num_values=num_values, skew=skew, seed=seed)
    assert sample.size == n
    if n:
        assert sample.min() >= 1
        assert sample.max() <= num_values


# ---------------------------------------------------------------------------
# Cluster-level arrangement invariants
# ---------------------------------------------------------------------------

@given(
    values_arrays,
    st.floats(min_value=0, max_value=1, allow_nan=False),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=50, deadline=None)
def test_arrange_preserves_multiset(values, cluster_level, seed):
    rng = np.random.default_rng(seed)
    arranged = arrange_cluster_level(values.copy(), cluster_level, rng)
    np.testing.assert_array_equal(np.sort(arranged), np.sort(values))


# ---------------------------------------------------------------------------
# Weighted median invariants
# ---------------------------------------------------------------------------

@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            st.floats(min_value=0.001, max_value=100, allow_nan=False),
        ),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=100, deadline=None)
def test_weighted_median_is_input_value_with_balanced_mass(pairs):
    values = np.asarray([p[0] for p in pairs])
    weights = np.asarray([p[1] for p in pairs])
    median = weighted_median(values, weights)
    assert median in values
    total = weights.sum()
    below = weights[values < median].sum()
    above = weights[values > median].sum()
    # No more than half the mass can sit strictly on either side.
    assert below <= total / 2 + 1e-9
    assert above <= total / 2 + 1e-9


# ---------------------------------------------------------------------------
# Estimator invariants
# ---------------------------------------------------------------------------

@given(populations())
@settings(max_examples=50, deadline=None)
def test_badness_nonnegative_and_variance_law(population):
    values, probabilities = population
    badness = clustering_badness(values, probabilities)
    assert badness >= -1e-6


@given(populations(), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=50, deadline=None)
def test_ht_estimate_bounded_by_extreme_ratios(population, seed):
    values, probabilities = population
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(values), size=10, p=probabilities)
    observations = [
        Row(
            source=int(i),
            aggregate_value=float(values[i]),
            probability=float(probabilities[i]),
        )
        for i in picks
    ]
    estimate = horvitz_thompson(sample_of(observations))
    ratios = [o.aggregate_value / o.probability for o in observations]
    assert min(ratios) - 1e-9 <= estimate <= max(ratios) + 1e-9


@given(
    st.lists(
        st.floats(min_value=0, max_value=1000, allow_nan=False),
        min_size=4, max_size=40,
    ),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=50, deadline=None)
def test_cross_validation_error_nonnegative(ratio_values, seed):
    observations = [
        Row(source=i, aggregate_value=v, probability=0.5)
        for i, v in enumerate(ratio_values)
    ]
    cv = cross_validate(sample_of(observations), rounds=3, seed=seed)
    assert cv.mean_squared_error >= 0
    assert all(e >= 0 for e in cv.errors)


# ---------------------------------------------------------------------------
# Query invariants
# ---------------------------------------------------------------------------

predicates = st.deferred(
    lambda: st.one_of(
        st.builds(
            Between,
            column=st.just("A"),
            low=st.integers(min_value=1, max_value=50),
            high=st.integers(min_value=50, max_value=100),
        ),
        st.builds(
            Comparison,
            column=st.just("A"),
            op=st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
            value=st.integers(min_value=1, max_value=100),
        ),
        st.builds(And, predicates, predicates),
        st.builds(Or, predicates, predicates),
        st.builds(Not, predicates),
    )
)


@given(values_arrays, predicates)
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_count_never_exceeds_rows_and_not_complements(values, predicate):
    columns = {"A": values}
    count_query = AggregationQuery(
        agg=AggregateOp.COUNT, column="A", predicate=predicate
    )
    count = evaluate_on_columns(count_query, columns)
    assert 0 <= count <= values.size
    complement = AggregationQuery(
        agg=AggregateOp.COUNT, column="A", predicate=Not(predicate)
    )
    assert count + evaluate_on_columns(complement, columns) == values.size


@given(values_arrays, predicates)
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_predicate_sql_round_trips_through_parser(values, predicate):
    query = AggregationQuery(
        agg=AggregateOp.COUNT, column="A", predicate=predicate
    )
    reparsed = parse_query(query.to_sql())
    columns = {"A": values}
    np.testing.assert_array_equal(
        reparsed.predicate.mask(columns), predicate.mask(columns)
    )


# ---------------------------------------------------------------------------
# Local database invariants
# ---------------------------------------------------------------------------

@given(
    values_arrays,
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=50, deadline=None)
def test_block_sample_size_and_membership(values, block_size, t, seed):
    database = LocalDatabase({"A": values}, block_size=block_size)
    indices = database.block_sample_indices(t, seed=seed)
    assert indices.size == min(t, values.size)
    if indices.size:
        assert indices.min() >= 0
        assert indices.max() < values.size
        assert len(set(indices.tolist())) == indices.size


@given(
    values_arrays,
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=50, deadline=None)
def test_uniform_sample_without_replacement(values, t, seed):
    database = LocalDatabase({"A": values})
    indices = database.uniform_sample_indices(t, seed=seed)
    assert indices.size == min(t, values.size)
    assert len(set(indices.tolist())) == indices.size


# ---------------------------------------------------------------------------
# Hájek estimator invariants
# ---------------------------------------------------------------------------

@given(populations(), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=50, deadline=None)
def test_hajek_bounded_by_scaled_extremes(population, seed):
    """y_H = M * weighted mean of y(s), so it lies within M times the
    extreme per-peer values of the sample."""
    from repro.core.estimators import hajek_estimate

    values, probabilities = population
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(values), size=10, p=probabilities)
    observations = [
        Row(
            source=int(i),
            aggregate_value=float(values[i]),
            probability=float(probabilities[i]),
        )
        for i in picks
    ]
    num_peers = len(values)
    estimate = hajek_estimate(sample_of(observations), num_peers)
    sampled_values = [o.aggregate_value for o in observations]
    assert (
        num_peers * min(sampled_values) - 1e-6
        <= estimate
        <= num_peers * max(sampled_values) + 1e-6
    )


@given(populations(), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=50, deadline=None)
def test_hajek_scale_invariant_in_weights(population, seed):
    """Multiplying every probability by a constant (un-normalizing)
    leaves the Hájek estimate unchanged — the property biased sampling
    relies on."""
    from repro.core.estimators import hajek_estimate

    values, probabilities = population
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(values), size=8, p=probabilities)
    base = [
        Row(
            source=int(i),
            aggregate_value=float(values[i]),
            probability=float(probabilities[i]),
        )
        for i in picks
    ]
    scaled = [
        o._replace(probability=min(1.0, o.probability * 0.5))
        for o in base
    ]
    m = len(values)
    assert hajek_estimate(sample_of(base), m) == pytest.approx(
        hajek_estimate(sample_of(scaled), m)
    )


# ---------------------------------------------------------------------------
# Fault-plan invariants
# ---------------------------------------------------------------------------

#: Small shared network for the fault properties: hypothesis cannot use
#: pytest fixtures, so this is built once at import time (deterministic).
_FAULT_PEERS = 40
_FAULT_TOPOLOGY = power_law_topology(_FAULT_PEERS, 120, seed=3)
_FAULT_DATASET = generate_dataset(
    _FAULT_TOPOLOGY,
    DatasetConfig(num_tuples=1_000, cluster_level=0.25, skew=0.2),
    seed=3,
)
_FAULT_QUERY = parse_query("SELECT COUNT(A) FROM T")

#: QueryCost fields that must never decrease across probes.
_MONOTONE_FIELDS = (
    "messages",
    "hops",
    "peers_visited",
    "distinct_peers",
    "tuples_processed",
    "tuples_sampled",
    "bytes_sent",
    "latency_ms",
    "timeouts",
)


@st.composite
def fault_plans(draw):
    """Arbitrary (but always valid) fault plans over the shared net."""
    crashes = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        start = draw(st.integers(min_value=0, max_value=40))
        crashes.append(
            CrashWindow(
                peer_id=draw(
                    st.integers(min_value=0, max_value=_FAULT_PEERS - 1)
                ),
                start=start,
                stop=start + draw(st.integers(min_value=1, max_value=80)),
            )
        )
    outages = []
    if draw(st.booleans()):
        start = draw(st.integers(min_value=0, max_value=40))
        outages.append(
            RegionalOutage(
                center=draw(
                    st.integers(min_value=0, max_value=_FAULT_PEERS - 1)
                ),
                radius=draw(st.integers(min_value=0, max_value=2)),
                start=start,
                stop=start + draw(st.integers(min_value=1, max_value=80)),
            )
        )
    spike = None
    if draw(st.booleans()):
        spike = LatencySpike(
            rate=draw(
                st.floats(min_value=0.0, max_value=0.9, allow_nan=False)
            ),
            extra_ms=draw(st.sampled_from([50.0, 400.0, 5_000.0])),
        )
    return FaultPlan(
        seed=draw(st.integers(min_value=0, max_value=2**31)),
        crashes=tuple(crashes),
        outages=tuple(outages),
        reply_loss=draw(
            st.floats(min_value=0.0, max_value=0.6, allow_nan=False)
        ),
        latency_spike=spike,
        probe_timeout_ms=draw(
            st.one_of(st.none(), st.sampled_from([100.0, 1_000.0]))
        ),
    )


def _fault_simulator(plan):
    return NetworkSimulator(
        _FAULT_TOPOLOGY, _FAULT_DATASET.databases, seed=5, fault_plan=plan
    )


_probe_sequences = st.lists(
    st.integers(min_value=0, max_value=_FAULT_PEERS - 1),
    min_size=1,
    max_size=12,
)


@pytest.mark.chaos
@given(fault_plans(), _probe_sequences, st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_fault_ledger_nonnegative_and_monotone(plan, peers, seed):
    """No fault outcome may ever decrease a ledger total or drive one
    negative — timed-out probes are *charged*, not refunded."""
    simulator = _fault_simulator(plan)
    ledger = CostLedger()
    previous = ledger.snapshot()
    for peer in peers:
        try:
            simulator.visit_aggregate(
                peer, _FAULT_QUERY, sink=0, ledger=ledger, seed=seed
            )
        except PeerUnavailableError:
            pass  # the failure itself must still have been charged
        current = ledger.snapshot()
        for field in _MONOTONE_FIELDS:
            assert getattr(current, field) >= getattr(previous, field)
            assert getattr(current, field) >= 0
        previous = current


@pytest.mark.chaos
@given(fault_plans(), _probe_sequences, st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_batch_scalar_bit_parity_under_any_fault_plan(plan, peers, seed):
    """The RL005 contract extended to faults: the batch visit path and
    the scalar loop yield bit-identical replies *and* ledgers for any
    plan (including the null plan, which takes the vectorized path)."""
    batch_simulator = _fault_simulator(plan)
    batch_ledger = CostLedger()
    batch_replies = batch_simulator.visit_aggregate_batch(
        peers,
        _FAULT_QUERY,
        sink=0,
        ledger=batch_ledger,
        tuples_per_peer=8,
        seed=seed,
    )

    scalar_simulator = _fault_simulator(plan)
    scalar_ledger = CostLedger()
    scalar_replies = []
    for peer in peers:
        try:
            scalar_replies.append(
                scalar_simulator.visit_aggregate(
                    peer,
                    _FAULT_QUERY,
                    sink=0,
                    ledger=scalar_ledger,
                    tuples_per_peer=8,
                    seed=seed,
                )
            )
        except PeerUnavailableError:
            continue

    assert list(batch_replies) == scalar_replies
    assert batch_ledger.snapshot() == scalar_ledger.snapshot()


@pytest.mark.chaos
@given(fault_plans(), _probe_sequences, st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_fault_replay_is_bit_identical(plan, peers, seed):
    """Two fresh simulators over the same plan and seeds replay the
    exact same failures: same replies, same ledger, same decisions."""

    def run():
        simulator = _fault_simulator(plan)
        ledger = CostLedger()
        replies = []
        errors = []
        for peer in peers:
            try:
                replies.append(
                    simulator.visit_aggregate(
                        peer,
                        _FAULT_QUERY,
                        sink=0,
                        ledger=ledger,
                        seed=seed,
                    )
                )
            except PeerUnavailableError as exc:
                errors.append(type(exc).__name__)
        return replies, errors, ledger.snapshot()

    assert run() == run()


@pytest.mark.chaos
@given(fault_plans(), st.integers(min_value=0, max_value=200))
@settings(max_examples=50, deadline=None)
def test_fault_decisions_are_pure_functions_of_coordinates(plan, step):
    """A probe decision depends only on (plan, step, peer, kind) —
    querying it through two independent states, in different orders,
    gives identical decisions (the no-shared-RNG-stream contract)."""
    first = plan.bind(_FAULT_TOPOLOGY, clock_start=step)
    second = plan.bind(_FAULT_TOPOLOGY, clock_start=step)
    forward = [
        first.probe(peer, "aggregate") for peer in range(_FAULT_PEERS)
    ]
    second_forward = [
        second.probe(peer, "aggregate") for peer in range(_FAULT_PEERS)
    ]
    assert forward == second_forward


# ---------------------------------------------------------------------------
# Observability invariants
# ---------------------------------------------------------------------------


def _traced_collection(plan, count, seed):
    """One traced resilient collection over the shared fault network."""
    simulator = _fault_simulator(plan)
    collector = ResilientCollector(
        RandomWalker(simulator.topology, seed=seed),
        simulator,
        RetryPolicy(max_attempts=3),
    )
    ledger = simulator.new_ledger()
    tracer = Tracer()
    with tracing(tracer):
        replies, stats = collector.collect_aggregate(
            0, _FAULT_QUERY, count, ledger, probe_bytes=64
        )
    return tracer, replies, stats, ledger.snapshot()


@pytest.mark.chaos
@given(
    fault_plans(),
    st.integers(min_value=1, max_value=15),
    st.integers(0, 2**31),
)
@settings(max_examples=20, deadline=None)
def test_every_retry_is_bracketed_by_probes(plan, count, seed):
    """A retry event always sits between a failed probe of a peer and
    the next probe of that same peer — retries are never orphaned and
    never follow a success or a crash (crashes substitute instead)."""
    tracer, _, _, _ = _traced_collection(plan, count, seed)
    events = [e for e in tracer.events if e.kind in ("probe", "retry")]
    for index, event in enumerate(events):
        if event.kind != "retry":
            continue
        before = events[index - 1]
        assert before.kind == "probe"
        assert before.outcome in ("lost", "timeout")
        assert before.peer == event.peer
        after = events[index + 1]
        assert after.kind == "probe"
        assert after.peer == event.peer


@pytest.mark.chaos
@given(
    fault_plans(),
    st.integers(min_value=1, max_value=15),
    st.integers(0, 2**31),
)
@settings(max_examples=20, deadline=None)
def test_trace_cost_reconciles_with_ledger_under_faults(plan, count, seed):
    """Summing every event's charge reproduces the ledger's countable
    totals for arbitrary fault plans — no probe outcome, retry path or
    substitution leaks an uncharged (or double-charged) message."""
    tracer, _, _, cost = _traced_collection(plan, count, seed)
    total = tracer.cost_total
    assert total.messages == cost.messages
    assert total.hops == cost.hops
    assert total.visits == cost.peers_visited
    assert total.timeouts == cost.timeouts


@pytest.mark.chaos
@given(
    fault_plans(),
    st.integers(min_value=1, max_value=15),
    st.integers(0, 2**31),
)
@settings(max_examples=15, deadline=None)
def test_disabled_tracer_runs_are_bit_identical(plan, count, seed):
    """Tracing must be a pure observer: the same collection run with
    and without an active tracer returns identical replies, stats and
    ledger totals (no RNG draws, no control-flow changes)."""

    def run(traced):
        simulator = _fault_simulator(plan)
        collector = ResilientCollector(
            RandomWalker(simulator.topology, seed=seed),
            simulator,
            RetryPolicy(max_attempts=3),
        )
        ledger = simulator.new_ledger()
        if traced:
            with tracing(Tracer()):
                replies, stats = collector.collect_aggregate(
                    0, _FAULT_QUERY, count, ledger, probe_bytes=64
                )
        else:
            replies, stats = collector.collect_aggregate(
                0, _FAULT_QUERY, count, ledger, probe_bytes=64
            )
        return list(replies), stats, ledger.snapshot()

    assert run(False) == run(True)
