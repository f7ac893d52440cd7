"""The values engines, pinned by value.

MEDIAN/QUANTILE (:class:`MedianEngine`) and histogram / distinct-value
estimation (:class:`StatisticsEngine`) answer from shipped values, not
from one pushed-down aggregate.  Every answer, cost, phase report and
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
from repro.core.statistics import StatisticsConfig, StatisticsEngine
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

#: Every partition of the fixture holds 50 rows, so only a budget
#: below 50 sub-samples (and draws from the visit stream).
STATISTICS_CALLS = {
    "histogram_fixed": (
        {"tuples_per_peer": 20},
        lambda engine: engine.histogram(
            "A", num_buckets=5, value_range=(1, 100), sink=0
        ),
    ),
    "histogram_auto": (
        {},
        lambda engine: engine.histogram(
            "A",
            num_buckets=7,
            predicate=Between(column="A", low=20, high=70),
            delta_req=0.05,
            sink=0,
        ),
    ),
    "distinct": (
        {"tuples_per_peer": 20},
        lambda engine: engine.distinct_values("A", sink=0),
    ),
    "distinct_selective": (
        {},
        lambda engine: engine.distinct_values(
            "A", predicate=Between(column="A", low=1, high=30), sink=0
        ),
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


def observe_statistics(small_topology, small_dataset, network_name, call_name):
    config, call = STATISTICS_CALLS[call_name]
    network = _network(small_topology, small_dataset, network_name)
    engine = StatisticsEngine(network, StatisticsConfig(**config), seed=5)
    result = call(engine)
    if call_name.startswith("histogram"):
        observed = {
            "edges": result.edges.tolist(),
            "counts": result.counts.tolist(),
            "total_estimate": result.total_estimate,
            "phase_two": result.phase_two,
        }
    else:
        observed = {
            "observed": result.observed,
            "chao1": result.chao1,
            "singletons": result.singletons,
            "doubletons": result.doubletons,
        }
    observed.update(
        phase_one=result.phase_one,
        cost=result.cost,
        streams=_streams(engine, network),
    )
    return observed


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

PINNED_STATISTICS = {
    ("chaos", "distinct"): {
        "observed": 85,
        "chao1": 101.66666666666667,
        "singletons": 20,
        "doubletons": 12,
        "phase_one": PhaseReport(peers_visited=35, tuples_sampled=700, hops=400, estimate=None),
        "cost": QueryCost(messages=435, hops=400, peers_visited=40, distinct_peers=34, tuples_processed=700, tuples_sampled=700, bytes_sent=24825, latency_ms=21932.140342761344, timeouts=4),
        "streams": (0.8050029237453802, 0.1008961008005318, 0.625095466604667, 40),
    },
    ("chaos", "distinct_selective"): {
        "observed": 30,
        "chao1": 30.0,
        "singletons": 0,
        "doubletons": 1,
        "phase_one": PhaseReport(peers_visited=35, tuples_sampled=1750, hops=400, estimate=None),
        "cost": QueryCost(messages=435, hops=400, peers_visited=40, distinct_peers=34, tuples_processed=1750, tuples_sampled=1750, bytes_sent=26593, latency_ms=21944.88135690339, timeouts=4),
        "streams": (0.8050029237453802, 0.2531538239071238, 0.625095466604667, 40),
    },
    ("chaos", "histogram_auto"): {
        "edges": [20.0, 27.142857143, 34.285714286, 41.428571429, 48.571428572, 55.714285715, 62.857142858, 70.000000001],
        "counts": [936.9712394952247, 753.2944558459351, 720.2008081557301, 537.4057206045114, 689.8986680212558, 659.9695669893899, 528.2381543601008],
        "total_estimate": 4825.978613472147,
        "phase_two": PhaseReport(peers_visited=562, tuples_sampled=28100, hops=6680, estimate=None),
        "phase_one": PhaseReport(peers_visited=35, tuples_sampled=1750, hops=400, estimate=None),
        "cost": QueryCost(messages=7677, hops=7080, peers_visited=708, distinct_peers=183, tuples_processed=29850, tuples_sampled=29850, bytes_sent=452047, latency_ms=386652.7987196003, timeouts=63),
        "streams": (0.34167518411834064, 0.2531538239071238, 0.625095466604667, 708),
    },
    ("chaos", "histogram_fixed"): {
        "edges": [1.0, 20.8000000002, 40.6000000004, 60.4000000006, 80.2000000008, 100.000000001],
        "counts": [2527.659037638143, 2827.188912151115, 1060.6695744090518, 2410.5394112682598, 1173.9430645334255],
        "total_estimate": 9999.999999999996,
        "phase_two": PhaseReport(peers_visited=63, tuples_sampled=1260, hops=760, estimate=None),
        "phase_one": PhaseReport(peers_visited=35, tuples_sampled=700, hops=400, estimate=None),
        "cost": QueryCost(messages=1258, hops=1160, peers_visited=116, distinct_peers=81, tuples_processed=1960, tuples_sampled=1960, bytes_sent=71310, latency_ms=63917.448092098835, timeouts=13),
        "streams": (0.34167518411834064, 0.7124405768984996, 0.625095466604667, 116),
    },
    ("clean", "distinct"): {
        "observed": 90,
        "chao1": 106.2,
        "singletons": 18,
        "doubletons": 10,
        "phase_one": PhaseReport(peers_visited=40, tuples_sampled=800, hops=400, estimate=None),
        "cost": QueryCost(messages=440, hops=400, peers_visited=40, distinct_peers=34, tuples_processed=800, tuples_sampled=800, bytes_sent=25800, latency_ms=21034.23164097492, timeouts=0),
        "streams": (0.8050029237453802, 0.37846227236229657, 0.625095466604667, None),
    },
    ("clean", "distinct_selective"): {
        "observed": 30,
        "chao1": 30.0,
        "singletons": 0,
        "doubletons": 1,
        "phase_one": PhaseReport(peers_visited=40, tuples_sampled=2000, hops=400, estimate=None),
        "cost": QueryCost(messages=440, hops=400, peers_visited=40, distinct_peers=34, tuples_processed=2000, tuples_sampled=2000, bytes_sent=28096, latency_ms=21049.175102437322, timeouts=0),
        "streams": (0.8050029237453802, 0.2531538239071238, 0.625095466604667, None),
    },
    ("clean", "histogram_auto"): {
        "edges": [20.0, 27.142857143, 34.285714286, 41.428571429, 48.571428572, 55.714285715, 62.857142858, 70.000000001],
        "counts": [935.6405912485176, 758.2710242062584, 718.8986075768819, 493.17826952087245, 660.8764440575001, 658.966643047616, 531.6863435718172],
        "total_estimate": 4757.517923229464,
        "phase_two": PhaseReport(peers_visited=796, tuples_sampled=39800, hops=7960, estimate=None),
        "phase_one": PhaseReport(peers_visited=40, tuples_sampled=2000, hops=400, estimate=None),
        "cost": QueryCost(messages=9196, hops=8360, peers_visited=836, distinct_peers=188, tuples_processed=41800, tuples_sampled=41800, bytes_sent=559444, latency_ms=439903.51662736794, timeouts=0),
        "streams": (0.3495038076728312, 0.2531538239071238, 0.625095466604667, None),
    },
    ("clean", "histogram_fixed"): {
        "edges": [1.0, 20.8000000002, 40.6000000004, 60.4000000006, 80.2000000008, 100.000000001],
        "counts": [2707.0676562460812, 2289.9143223999877, 1279.137228618564, 2310.282798514942, 1413.5979942204176],
        "total_estimate": 9999.999999999993,
        "phase_two": PhaseReport(peers_visited=95, tuples_sampled=1900, hops=950, estimate=None),
        "phase_one": PhaseReport(peers_visited=40, tuples_sampled=800, hops=400, estimate=None),
        "cost": QueryCost(messages=1485, hops=1350, peers_visited=135, distinct_peers=90, tuples_processed=2700, tuples_sampled=2700, bytes_sent=87075, latency_ms=70990.97497699544, timeouts=0),
        "streams": (0.3495038076728312, 0.3579530855334151, 0.625095466604667, None),
    },
}


@pytest.mark.parametrize("network_name", sorted(NETWORKS))
@pytest.mark.parametrize("query_name", sorted(MEDIAN_QUERIES))
def test_median_pinned(small_topology, small_dataset, network_name, query_name):
    observed = observe_median(
        small_topology, small_dataset, network_name, query_name
    )
    assert observed == PINNED_MEDIAN[network_name, query_name]


@pytest.mark.parametrize("network_name", sorted(NETWORKS))
@pytest.mark.parametrize("call_name", sorted(STATISTICS_CALLS))
def test_statistics_pinned(small_topology, small_dataset, network_name, call_name):
    observed = observe_statistics(
        small_topology, small_dataset, network_name, call_name
    )
    assert observed == PINNED_STATISTICS[network_name, call_name]


@pytest.mark.parametrize("case", sorted(PINNED_MEDIAN))
def test_median_phase_reports_count_arrivals(case):
    pinned = PINNED_MEDIAN[case]
    reports = [pinned["phase_one"], pinned["phase_two"]]
    arrived = sum(r.peers_visited for r in reports if r is not None)
    assert arrived == pinned["effective_sample_size"]
