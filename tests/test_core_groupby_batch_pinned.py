"""The GROUP BY and batch engines, pinned by value.

:class:`GroupByEngine` (COUNT/SUM/AVG per group) and
:class:`BatchEngine` (a panel of COUNT/SUM/AVG queries from shared
walks) answer from per-peer group and multi visits.  Every answer,
phase report, cost and the position of every stream they draw from is
recorded below as a literal, over the 200-peer fixture carrying a
six-group column: clean, and under the chaos fault plan.  A change to how
these engines walk, visit, cross-validate or estimate must reproduce
them with ``==``.

The literals were recorded before the two engines ran the shared
two-phase loop.  Two kinds of entries changed since, each marked:
GROUP BY AVG sizes phase II from the count vector, as COUNT does
(``# AVG sizing``: it used to cross-validate the normalized per-group
averages), and a batch's phase reports carry the hops the phase walked
(``# hops``: they used to record 0).  Every other value is the one
recorded.  The chaos rows were recorded later, before GROUP BY and
batch visits became segment passes over a chunk, and are unchanged
since; ``chaos-retry`` (a batch under the chaos plan with a
``RetryPolicy``) was recorded after, because before it the batch
engine ignored its retry policy.  The simulator's separate failure
stream (a uniform reply-loss coin, now a fault plan's ``reply_loss``)
is gone, and with it its cells and its element of every ``streams``
tuple.
"""

import pytest

from repro.core.batch import BatchEngine
from repro.core.confidence import ConfidenceInterval
from repro.core.groupby import GroupByConfig, GroupByEngine
from repro.core.result import PhaseReport
from repro.core.two_phase import TwoPhaseConfig
from repro.data.generator import DatasetConfig, generate_dataset
from repro.metrics.cost import QueryCost
from repro.network.simulator import NetworkSimulator
from repro.network.walker import RetryPolicy
from repro.query.parser import parse_query
from .test_core_values_pinned import CHAOS_PLAN

NETWORKS = {
    "clean": {},
    "chaos": {"fault_plan": CHAOS_PLAN},
}

GROUP_QUERIES = {
    "count": parse_query("SELECT COUNT(A) FROM T GROUP BY G"),
    "sum": parse_query(
        "SELECT SUM(A) FROM T WHERE A BETWEEN 1 AND 50 GROUP BY G"
    ),
    "avg": parse_query("SELECT AVG(A) FROM T GROUP BY G"),
}

PANEL = [
    parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30"),
    parse_query("SELECT SUM(A) FROM T"),
    parse_query("SELECT AVG(A) FROM T WHERE A > 50"),
]


@pytest.fixture(scope="module")
def grouped_dataset(small_topology):
    return generate_dataset(
        small_topology,
        DatasetConfig(
            num_tuples=20_000,
            cluster_level=0.25,
            group_column="G",
            num_groups=6,
        ),
        seed=31,
    )


def _network(small_topology, grouped_dataset, name):
    return NetworkSimulator(
        small_topology, grouped_dataset.databases, seed=31, **NETWORKS[name]
    )


def _streams(engine, network):
    """The next double of every stream the run could have moved."""
    return (
        float(engine._rng.random()),
        float(engine._walker._rng.random()),
        float(engine._visit_rng.random()),
        float(network._rng.random()),
    )


def _with_fault_clock(observed, network):
    """``observed`` plus the fault clock, for a network with a plan."""
    if network.fault_state is not None:
        observed["fault_clock"] = network.fault_state.clock
    return observed


def observe_groupby(small_topology, grouped_dataset, network_name, query_name):
    network = _network(small_topology, grouped_dataset, network_name)
    engine = GroupByEngine(network, GroupByConfig(), seed=3)
    result = engine.execute(GROUP_QUERIES[query_name], delta_req=0.05, sink=0)
    return _with_fault_clock({
        "groups": result.groups,
        "phase_one": result.phase_one,
        "phase_two": result.phase_two,
        "cost": result.cost,
        "streams": _streams(engine, network),
    }, network)


def observe_batch(small_topology, grouped_dataset, network_name):
    config = TwoPhaseConfig()
    if network_name == "chaos-retry":
        network_name = "chaos"
        config = TwoPhaseConfig(retry_policy=RetryPolicy(max_attempts=3))
    network = _network(small_topology, grouped_dataset, network_name)
    engine = BatchEngine(network, config, seed=3)
    results = engine.execute(PANEL, delta_req=0.05, sink=0)
    return _with_fault_clock({
        "answers": [
            (
                result.estimate,
                result.scale,
                result.confidence_interval,
                result.requested_sample_size,
                result.effective_sample_size,
                result.degraded,
            )
            for result in results
        ],
        "phase_one": [result.phase_one for result in results],
        "phase_two": [result.phase_two for result in results],
        "cost": results[0].cost,
        "streams": _streams(engine, network),
    }, network)


PINNED_GROUPBY = {
    ('clean', 'avg'): {
        'groups': {1.0: 46.61212850651214, 2.0: 45.41051230874327, 3.0: 46.824430252899155, 4.0: 45.74118715199969, 5.0: 42.63542726334504, 6.0: 43.557679851355864},  # AVG sizing
        'phase_one': PhaseReport(peers_visited=40, tuples_sampled=1000, hops=400, estimate=None),
        'phase_two': PhaseReport(peers_visited=27, tuples_sampled=675, hops=270, estimate=None),  # AVG sizing
        'cost': QueryCost(messages=737, hops=670, peers_visited=67, distinct_peers=53, tuples_processed=1675, tuples_sampled=1675, bytes_sent=54633, latency_ms=35247.832193798946, timeouts=0),  # AVG sizing
        'streams': (0.6653466801817194, 0.5697658418582517, 0.9164755624377187, 0.9031718109148604),  # AVG sizing
    },
    ('clean', 'count'): {
        'groups': {1.0: 5382.176359622356, 2.0: 3719.1738263322045, 3.0: 3299.9786501657654, 4.0: 2856.0650682760743, 5.0: 2403.264975574701, 6.0: 2339.3411200289024},
        'phase_one': PhaseReport(peers_visited=40, tuples_sampled=1000, hops=400, estimate=None),
        'phase_two': PhaseReport(peers_visited=27, tuples_sampled=675, hops=270, estimate=None),
        'cost': QueryCost(messages=737, hops=670, peers_visited=67, distinct_peers=53, tuples_processed=1675, tuples_sampled=1675, bytes_sent=55973, latency_ms=35249.17219379894, timeouts=0),
        'streams': (0.6653466801817194, 0.5697658418582517, 0.9164755624377187, 0.9031718109148604),
    },
    ('clean', 'sum'): {
        'groups': {1.0: 63056.901735383624, 2.0: 48834.77134687568, 3.0: 43135.462983392325, 4.0: 35412.8218770435, 5.0: 30395.522440950834, 6.0: 27055.820523933948},
        'phase_one': PhaseReport(peers_visited=40, tuples_sampled=1000, hops=400, estimate=None),
        'phase_two': PhaseReport(peers_visited=77, tuples_sampled=1925, hops=770, estimate=None),
        'cost': QueryCost(messages=1287, hops=1170, peers_visited=117, distinct_peers=84, tuples_processed=2925, tuples_sampled=2925, bytes_sent=120897, latency_ms=61577.33296297757, timeouts=0),
        'streams': (0.6653466801817194, 0.1468492346527872, 0.3937917025111275, 0.9031718109148604),
    },
    ('chaos', 'avg'): {
        'groups': {1.0: 48.69863064609671, 2.0: 47.404161365225306, 3.0: 47.250634509851245, 4.0: 46.72042497592075, 5.0: 50.29296944821327, 6.0: 50.24185267214426},
        'phase_one': PhaseReport(peers_visited=29, tuples_sampled=725, hops=400, estimate=None),
        'phase_two': PhaseReport(peers_visited=30, tuples_sampled=750, hops=380, estimate=None),
        'cost': QueryCost(messages=839, hops=780, peers_visited=78, distinct_peers=62, tuples_processed=1475, tuples_sampled=1475, bytes_sent=60313, latency_ms=43951.877961995786, timeouts=13),
        'streams': (0.6691274961459358, 0.6169459597482094, 0.14053804489292343, 0.9031718109148604),
        'fault_clock': 78,
    },
    ('chaos', 'count'): {
        'groups': {1.0: 5266.909634324529, 2.0: 3957.574058112976, 3.0: 3000.3028728338018, 4.0: 2850.042703968266, 5.0: 2615.847187973301, 6.0: 2309.3235427871255},
        'phase_one': PhaseReport(peers_visited=29, tuples_sampled=725, hops=400, estimate=None),
        'phase_two': PhaseReport(peers_visited=30, tuples_sampled=750, hops=380, estimate=None),
        'cost': QueryCost(messages=839, hops=780, peers_visited=78, distinct_peers=62, tuples_processed=1475, tuples_sampled=1475, bytes_sent=61873, latency_ms=43953.4379619958, timeouts=13),
        'streams': (0.6691274961459358, 0.6169459597482094, 0.14053804489292343, 0.9031718109148604),
        'fault_clock': 78,
    },
    ('chaos', 'sum'): {
        'groups': {1.0: 70094.21905863693, 2.0: 54090.11736656372, 3.0: 41472.50563812625, 4.0: 38837.90743063784, 5.0: 29095.5348186153, 6.0: 28255.900110801118},
        'phase_one': PhaseReport(peers_visited=29, tuples_sampled=725, hops=400, estimate=None),
        'phase_two': PhaseReport(peers_visited=94, tuples_sampled=2350, hops=1230, estimate=None),
        'cost': QueryCost(messages=1753, hops=1630, peers_visited=163, distinct_peers=105, tuples_processed=3075, tuples_sampled=3075, bytes_sent=162983, latency_ms=92071.79004690578, timeouts=28),
        'streams': (0.6691274961459358, 0.8542446720350182, 0.1302533379496742, 0.9031718109148604),
        'fault_clock': 163,
    },
}

PINNED_BATCH = {
    'clean': {
        'answers': [(6941.318031749629, 20000.000000000004, ConfidenceInterval(estimate=6941.318031749629, half_width=976.4197866458056, confidence=0.95), 268, 268, False), (941814.0361927568, 973699.1968423609, ConfidenceInterval(estimate=941814.0361927568, half_width=65268.655848393886, confidence=0.95), 268, 268, False), (76.52940845653555, 973699.1968423609, ConfidenceInterval(estimate=76.52940845653555, half_width=10.01410507796759, confidence=0.95), 268, 268, False)],
        'phase_one': [PhaseReport(peers_visited=40, tuples_sampled=1000, hops=400, estimate=None), PhaseReport(peers_visited=40, tuples_sampled=1000, hops=400, estimate=None), PhaseReport(peers_visited=40, tuples_sampled=1000, hops=400, estimate=None)],  # hops
        'phase_two': [PhaseReport(peers_visited=228, tuples_sampled=5700, hops=2280, estimate=None), PhaseReport(peers_visited=228, tuples_sampled=5700, hops=2280, estimate=None), PhaseReport(peers_visited=228, tuples_sampled=5700, hops=2280, estimate=None)],  # hops
        'cost': QueryCost(messages=3484, hops=2680, peers_visited=268, distinct_peers=138, tuples_processed=6700, tuples_sampled=6700, bytes_sent=421028, latency_ms=141191.12931440547, timeouts=0),
        'streams': (0.08564916714362436, 0.7619134069306668, 0.09202350983742213, 0.9031718109148604),
    },
    'chaos': {
        'answers': [(7367.60649580848, 20000.0, ConfidenceInterval(estimate=7367.60649580848, half_width=746.2229027144239, confidence=0.95), 588, 470, True), (901456.123476638, 947467.7326469477, ConfidenceInterval(estimate=901456.123476638, half_width=46450.46395503077, confidence=0.95), 588, 470, True), (74.96574226249996, 947467.7326469477, ConfidenceInterval(estimate=74.96574226249996, half_width=7.381179714218086, confidence=0.95), 588, 470, True)],
        'phase_one': [PhaseReport(peers_visited=33, tuples_sampled=825, hops=400, estimate=None), PhaseReport(peers_visited=33, tuples_sampled=825, hops=400, estimate=None), PhaseReport(peers_visited=33, tuples_sampled=825, hops=400, estimate=None)],
        'phase_two': [PhaseReport(peers_visited=437, tuples_sampled=10925, hops=5480, estimate=None), PhaseReport(peers_visited=437, tuples_sampled=10925, hops=5480, estimate=None), PhaseReport(peers_visited=437, tuples_sampled=10925, hops=5480, estimate=None)],
        'cost': QueryCost(messages=7290, hops=5880, peers_visited=588, distinct_peers=178, tuples_processed=11750, tuples_sampled=11750, bytes_sent=900030, latency_ms=326150.23803133407, timeouts=73),
        'streams': (0.08564916714362436, 0.09452842796741778, 0.10268097778388774, 0.9031718109148604),
        'fault_clock': 588,
    },
    # Recorded after the change: the batch engine used to ignore its
    # retry policy, so this run had no earlier value to keep.
    'chaos-retry': {
        'answers': [(6454.909002608867, 19999.999999999996, ConfidenceInterval(estimate=6454.909002608867, half_width=1036.2858364019648, confidence=0.95), 220, 220, False), (964012.0260719688, 1002021.3756359018, ConfidenceInterval(estimate=964012.0260719688, half_width=69899.02522649983, confidence=0.95), 220, 220, False), (76.3758436486719, 1002021.3756359018, ConfidenceInterval(estimate=76.3758436486719, half_width=10.698017956991215, confidence=0.95), 220, 220, False)],
        'phase_one': [PhaseReport(peers_visited=40, tuples_sampled=1000, hops=440, estimate=None), PhaseReport(peers_visited=40, tuples_sampled=1000, hops=440, estimate=None), PhaseReport(peers_visited=40, tuples_sampled=1000, hops=440, estimate=None)],
        'phase_two': [PhaseReport(peers_visited=180, tuples_sampled=4500, hops=1980, estimate=None), PhaseReport(peers_visited=180, tuples_sampled=4500, hops=1980, estimate=None), PhaseReport(peers_visited=180, tuples_sampled=4500, hops=1980, estimate=None)],
        'cost': QueryCost(messages=3080, hops=2420, peers_visited=281, distinct_peers=130, tuples_processed=5500, tuples_sampled=5500, bytes_sent=375760, latency_ms=138808.8340700771, timeouts=36),
        'streams': (0.08564916714362436, 0.6953896399711392, 0.601139672087238, 0.9031718109148604),
        'fault_clock': 281,
    },
}


@pytest.mark.parametrize("network_name", sorted(NETWORKS))
@pytest.mark.parametrize("query_name", sorted(GROUP_QUERIES))
def test_groupby_pinned(small_topology, grouped_dataset, network_name, query_name):
    observed = observe_groupby(
        small_topology, grouped_dataset, network_name, query_name
    )
    assert observed == PINNED_GROUPBY[network_name, query_name]


@pytest.mark.parametrize("network_name", sorted([*NETWORKS, "chaos-retry"]))
def test_batch_pinned(small_topology, grouped_dataset, network_name):
    observed = observe_batch(small_topology, grouped_dataset, network_name)
    assert observed == PINNED_BATCH[network_name]
