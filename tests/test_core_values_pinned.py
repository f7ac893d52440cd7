"""The values engine, pinned by value.

MEDIAN/QUANTILE (:class:`MedianEngine`) answers from shipped values,
not from one pushed-down aggregate.  Every answer, cost, phase report and
the position of every stream they draw from is recorded below as a
literal, for two networks over the 200-peer fixture: clean, and the
chaos fault plan (crashes, loss, latency spikes, probe timeouts) with
a retry policy.  A change to how values are visited, carried or
estimated from must reproduce them with ``==``.

The literals were recorded before the values replies became one
columnar sample; the only entries changed since are the faulted MEDIAN
runs' ``peers_visited`` (marked), which used to report the peers
requested and now count the replies that arrived, as the COUNT/SUM/AVG
engine's phase reports do.  The simulator's separate failure stream
(a uniform reply-loss coin, now a fault plan's ``reply_loss``) is gone,
and with it its cells and its element of every ``streams`` tuple.
"""

import pytest

from repro.core.median import MedianConfig, MedianEngine
from repro.core.result import PhaseReport
from repro.metrics.cost import QueryCost
from repro.network.faults import CrashWindow, FaultPlan, LatencySpike
from repro.network.simulator import NetworkSimulator
from repro.network.walker import RetryPolicy
from repro.query.model import AggregateOp, AggregationQuery, Between

#: The fault plan of the serving benchmark's chaos workload.
CHAOS_PLAN = FaultPlan(
    seed=5,
    crashes=tuple(
        CrashWindow(peer_id=peer, start=0, stop=10**9)
        for peer in range(0, 200, 17)
    ),
    reply_loss=0.1,
    latency_spike=LatencySpike(rate=0.05, extra_ms=400.0),
    probe_timeout_ms=250.0,
)

NETWORKS = {
    "clean": {},
    "chaos": {"fault_plan": CHAOS_PLAN},
}

MEDIAN_QUERIES = {
    "median": (
        AggregationQuery(agg=AggregateOp.MEDIAN, column="A"),
        {},
        0.1,
    ),
    "quantile": (
        AggregationQuery(
            agg=AggregateOp.QUANTILE,
            column="A",
            quantile=0.25,
            predicate=Between(column="A", low=10, high=80),
        ),
        {"tuples_per_peer": 10, "pool_phases": False, "max_phase_two_peers": 30},
        0.05,
    ),
}


def _network(small_topology, small_dataset, name):
    return NetworkSimulator(
        small_topology, small_dataset.databases, seed=7, **NETWORKS[name]
    )


def _streams(engine, network):
    """The next double of every stream the run could have moved."""
    return (
        float(engine._rng.random()),
        float(engine._visit_rng.random()),
        float(network._rng.random()),
        None if network.fault_state is None else network.fault_state.clock,
    )


def observe_median(small_topology, small_dataset, network_name, query_name):
    query, config, delta_req = MEDIAN_QUERIES[query_name]
    if network_name == "chaos":
        config = dict(config, retry_policy=RetryPolicy(max_attempts=3))
    network = _network(small_topology, small_dataset, network_name)
    engine = MedianEngine(network, MedianConfig(**config), seed=4)
    result = engine.execute(query, delta_req=delta_req, sink=0)
    return {
        "estimate": result.estimate,
        "rank_error_estimate": result.rank_error_estimate,
        "phase_one": result.phase_one,
        "phase_two": result.phase_two,
        "cost": result.cost,
        "requested_sample_size": result.requested_sample_size,
        "effective_sample_size": result.effective_sample_size,
        "degraded": result.degraded,
        "streams": _streams(engine, network),
    }


PINNED_MEDIAN = {
    ("chaos", "median"): {
        "estimate": 47.0,
        "rank_error_estimate": 0.19821193830236447,
        "phase_one": PhaseReport(peers_visited=40, tuples_sampled=1000, hops=430, estimate=52.0),
        "phase_two": PhaseReport(peers_visited=78, tuples_sampled=1950, hops=840, estimate=46.0),  # was 79: requested
        "cost": QueryCost(messages=1388, hops=1270, peers_visited=146, distinct_peers=79, tuples_processed=2950, tuples_sampled=2950, bytes_sent=76194, latency_ms=71334.10862414265, timeouts=13),
        "requested_sample_size": 119,
        "effective_sample_size": 118,
        "degraded": True,
        "streams": (0.23207460919294987, 0.057935208178940156, 0.625095466604667, 146),
    },
    ("chaos", "quantile"): {
        "estimate": 26.0,
        "rank_error_estimate": 0.15910921512955598,
        "phase_one": PhaseReport(peers_visited=40, tuples_sampled=400, hops=430, estimate=29.0),
        "phase_two": PhaseReport(peers_visited=30, tuples_sampled=300, hops=310, estimate=26.0),
        "cost": QueryCost(messages=810, hops=740, peers_visited=80, distinct_peers=55, tuples_processed=700, tuples_sampled=700, bytes_sent=69586, latency_ms=40277.43862435812, timeouts=4),
        "requested_sample_size": 70,
        "effective_sample_size": 70,
        "degraded": False,
        "streams": (0.6339147279598937, 0.24580307289984615, 0.625095466604667, 80),
    },
    ("clean", "median"): {
        "estimate": 44.0,
        "rank_error_estimate": 0.17773520355048347,
        "phase_one": PhaseReport(peers_visited=40, tuples_sampled=1000, hops=400, estimate=47.0),
        "phase_two": PhaseReport(peers_visited=64, tuples_sampled=1600, hops=640, estimate=42.0),
        "cost": QueryCost(messages=1144, hops=1040, peers_visited=104, distinct_peers=70, tuples_processed=2600, tuples_sampled=2600, bytes_sent=62712, latency_ms=54690.59147129507, timeouts=0),
        "requested_sample_size": 104,
        "effective_sample_size": 104,
        "degraded": False,
        "streams": (0.23207460919294987, 0.587571218631953, 0.625095466604667, None),
    },
    ("clean", "quantile"): {
        "estimate": 25.0,
        "rank_error_estimate": 0.1802555821824847,
        "phase_one": PhaseReport(peers_visited=40, tuples_sampled=400, hops=400, estimate=29.0),
        "phase_two": PhaseReport(peers_visited=30, tuples_sampled=300, hops=300, estimate=25.0),
        "cost": QueryCost(messages=770, hops=700, peers_visited=70, distinct_peers=54, tuples_processed=700, tuples_sampled=700, bytes_sent=65994, latency_ms=36823.84427724061, timeouts=0),
        "requested_sample_size": 70,
        "effective_sample_size": 70,
        "degraded": False,
        "streams": (0.6339147279598937, 0.24580307289984615, 0.625095466604667, None),
    },
}


@pytest.mark.parametrize("network_name", sorted(NETWORKS))
@pytest.mark.parametrize("query_name", sorted(MEDIAN_QUERIES))
def test_median_pinned(small_topology, small_dataset, network_name, query_name):
    observed = observe_median(
        small_topology, small_dataset, network_name, query_name
    )
    assert observed == PINNED_MEDIAN[network_name, query_name]


@pytest.mark.parametrize("case", sorted(PINNED_MEDIAN))
def test_median_phase_reports_count_arrivals(case):
    pinned = PINNED_MEDIAN[case]
    reports = [pinned["phase_one"], pinned["phase_two"]]
    arrived = sum(r.peers_visited for r in reports if r is not None)
    assert arrived == pinned["effective_sample_size"]
