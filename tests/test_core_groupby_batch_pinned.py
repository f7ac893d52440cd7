"""The GROUP BY and batch engines, pinned by value.

:class:`GroupByEngine` (COUNT/SUM/AVG per group) and
:class:`BatchEngine` (a panel of COUNT/SUM/AVG queries from shared
walks) answer from per-peer group and multi visits.  Every answer,
phase report, cost and the position of every stream they draw from is
recorded below as a literal, over the 200-peer fixture carrying a
six-group column: clean, and with 20% reply loss.  A change to how
these engines walk, visit, cross-validate or estimate must reproduce
them with ``==``.

The literals were recorded before the two engines ran the shared
two-phase loop.  Two kinds of entries changed since, each marked:
GROUP BY AVG sizes phase II from the count vector, as COUNT does
(``# AVG sizing``: it used to cross-validate the normalized per-group
averages), and a batch's phase reports carry the hops the phase walked
(``# hops``: they used to record 0).  Every other value is the one
recorded.
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
from repro.query.parser import parse_query

NETWORKS = {
    "clean": {},
    "loss": {"reply_loss_rate": 0.2},
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
        float(network._failure_rng.random()),
    )


def observe_groupby(small_topology, grouped_dataset, network_name, query_name):
    network = _network(small_topology, grouped_dataset, network_name)
    engine = GroupByEngine(network, GroupByConfig(), seed=3)
    result = engine.execute(GROUP_QUERIES[query_name], delta_req=0.05, sink=0)
    return {
        "groups": result.groups,
        "phase_one": result.phase_one,
        "phase_two": result.phase_two,
        "cost": result.cost,
        "streams": _streams(engine, network),
    }


def observe_batch(small_topology, grouped_dataset, network_name):
    network = _network(small_topology, grouped_dataset, network_name)
    engine = BatchEngine(network, TwoPhaseConfig(), seed=3)
    results = engine.execute(PANEL, delta_req=0.05, sink=0)
    return {
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
    }


PINNED_GROUPBY = {
    ('clean', 'avg'): {
        'groups': {1.0: 46.61212850651214, 2.0: 45.41051230874327, 3.0: 46.824430252899155, 4.0: 45.74118715199969, 5.0: 42.63542726334504, 6.0: 43.557679851355864},  # AVG sizing
        'phase_one': PhaseReport(peers_visited=40, tuples_sampled=1000, hops=400, estimate=None),
        'phase_two': PhaseReport(peers_visited=27, tuples_sampled=675, hops=270, estimate=None),  # AVG sizing
        'cost': QueryCost(messages=737, hops=670, peers_visited=67, distinct_peers=53, tuples_processed=1675, tuples_sampled=1675, bytes_sent=54633, latency_ms=35247.832193798946, timeouts=0),  # AVG sizing
        'streams': (0.6653466801817194, 0.5697658418582517, 0.9164755624377187, 0.9031718109148604, 0.33116939425886016),  # AVG sizing
    },
    ('clean', 'count'): {
        'groups': {1.0: 5382.176359622356, 2.0: 3719.1738263322045, 3.0: 3299.9786501657654, 4.0: 2856.0650682760743, 5.0: 2403.264975574701, 6.0: 2339.3411200289024},
        'phase_one': PhaseReport(peers_visited=40, tuples_sampled=1000, hops=400, estimate=None),
        'phase_two': PhaseReport(peers_visited=27, tuples_sampled=675, hops=270, estimate=None),
        'cost': QueryCost(messages=737, hops=670, peers_visited=67, distinct_peers=53, tuples_processed=1675, tuples_sampled=1675, bytes_sent=55973, latency_ms=35249.17219379894, timeouts=0),
        'streams': (0.6653466801817194, 0.5697658418582517, 0.9164755624377187, 0.9031718109148604, 0.33116939425886016),
    },
    ('clean', 'sum'): {
        'groups': {1.0: 63056.901735383624, 2.0: 48834.77134687568, 3.0: 43135.462983392325, 4.0: 35412.8218770435, 5.0: 30395.522440950834, 6.0: 27055.820523933948},
        'phase_one': PhaseReport(peers_visited=40, tuples_sampled=1000, hops=400, estimate=None),
        'phase_two': PhaseReport(peers_visited=77, tuples_sampled=1925, hops=770, estimate=None),
        'cost': QueryCost(messages=1287, hops=1170, peers_visited=117, distinct_peers=84, tuples_processed=2925, tuples_sampled=2925, bytes_sent=120897, latency_ms=61577.33296297757, timeouts=0),
        'streams': (0.6653466801817194, 0.1468492346527872, 0.3937917025111275, 0.9031718109148604, 0.33116939425886016),
    },
    ('loss', 'avg'): {
        'groups': {1.0: 44.59393890934075, 2.0: 44.650297610000635, 3.0: 43.55078369991001, 4.0: 45.30202619588562, 5.0: 45.65797772878799, 6.0: 44.98130589128626},  # AVG sizing
        'phase_one': PhaseReport(peers_visited=36, tuples_sampled=900, hops=400, estimate=None),
        'phase_two': PhaseReport(peers_visited=21, tuples_sampled=525, hops=280, estimate=None),  # AVG sizing
        'cost': QueryCost(messages=737, hops=680, peers_visited=68, distinct_peers=54, tuples_processed=1425, tuples_sampled=1425, bytes_sent=53555, latency_ms=35769.284628889975, timeouts=0),  # AVG sizing
        'streams': (0.48196304718838257, 0.2711541932306648, 0.0894708358613211, 0.9031718109148604, 0.48559220982054496),  # AVG sizing
    },
    ('loss', 'count'): {
        'groups': {1.0: 5213.772813172059, 2.0: 4197.3503556870755, 3.0: 3241.599322956209, 4.0: 2775.1576240745453, 5.0: 2547.450042496745, 6.0: 2024.6698416133725},
        'phase_one': PhaseReport(peers_visited=36, tuples_sampled=900, hops=400, estimate=None),
        'phase_two': PhaseReport(peers_visited=21, tuples_sampled=525, hops=280, estimate=None),
        'cost': QueryCost(messages=737, hops=680, peers_visited=68, distinct_peers=54, tuples_processed=1425, tuples_sampled=1425, bytes_sent=54915, latency_ms=35770.64462888999, timeouts=0),
        'streams': (0.48196304718838257, 0.2711541932306648, 0.0894708358613211, 0.9031718109148604, 0.48559220982054496),
    },
    ('loss', 'sum'): {
        'groups': {1.0: 70244.63576061794, 2.0: 56881.540063990346, 3.0: 46057.19830313578, 4.0: 38628.73480631057, 5.0: 29807.234067453963, 6.0: 19920.572819876914},
        'phase_one': PhaseReport(peers_visited=36, tuples_sampled=900, hops=400, estimate=None),
        'phase_two': PhaseReport(peers_visited=67, tuples_sampled=1675, hops=860, estimate=None),
        'cost': QueryCost(messages=1363, hops=1260, peers_visited=126, distinct_peers=86, tuples_processed=2575, tuples_sampled=2575, bytes_sent=127337, latency_ms=66304.97043941388, timeouts=0),
        'streams': (0.48196304718838257, 0.6747268770136862, 0.4725629820399928, 0.9031718109148604, 0.14003708514257618),
    },
}

PINNED_BATCH = {
    'clean': {
        'answers': [(6941.318031749629, 20000.000000000004, ConfidenceInterval(estimate=6941.318031749629, half_width=976.4197866458056, confidence=0.95), 268, 268, False), (941814.0361927568, 973699.1968423609, ConfidenceInterval(estimate=941814.0361927568, half_width=65268.655848393886, confidence=0.95), 268, 268, False), (76.52940845653555, 973699.1968423609, ConfidenceInterval(estimate=76.52940845653555, half_width=10.01410507796759, confidence=0.95), 268, 268, False)],
        'phase_one': [PhaseReport(peers_visited=40, tuples_sampled=1000, hops=400, estimate=None), PhaseReport(peers_visited=40, tuples_sampled=1000, hops=400, estimate=None), PhaseReport(peers_visited=40, tuples_sampled=1000, hops=400, estimate=None)],  # hops
        'phase_two': [PhaseReport(peers_visited=228, tuples_sampled=5700, hops=2280, estimate=None), PhaseReport(peers_visited=228, tuples_sampled=5700, hops=2280, estimate=None), PhaseReport(peers_visited=228, tuples_sampled=5700, hops=2280, estimate=None)],  # hops
        'cost': QueryCost(messages=3484, hops=2680, peers_visited=268, distinct_peers=138, tuples_processed=6700, tuples_sampled=6700, bytes_sent=421028, latency_ms=141191.12931440547, timeouts=0),
        'streams': (0.08564916714362436, 0.7619134069306668, 0.09202350983742213, 0.9031718109148604, 0.33116939425886016),
    },
    'loss': {
        'answers': [(7602.80696006823, 19999.999999999996, ConfidenceInterval(estimate=7602.80696006823, half_width=573.6649315125721, confidence=0.95), 1034, 823, True), (883769.1358909238, 935131.1448410947, ConfidenceInterval(estimate=883769.1358909238, half_width=36127.00004414999, confidence=0.95), 1034, 823, True), (73.7150854610852, 935131.1448410947, ConfidenceInterval(estimate=73.7150854610852, half_width=5.730524767816802, confidence=0.95), 1034, 823, True)],
        'phase_one': [PhaseReport(peers_visited=36, tuples_sampled=900, hops=400, estimate=None), PhaseReport(peers_visited=36, tuples_sampled=900, hops=400, estimate=None), PhaseReport(peers_visited=36, tuples_sampled=900, hops=400, estimate=None)],  # hops
        'phase_two': [PhaseReport(peers_visited=787, tuples_sampled=19675, hops=9940, estimate=None), PhaseReport(peers_visited=787, tuples_sampled=19675, hops=9940, estimate=None), PhaseReport(peers_visited=787, tuples_sampled=19675, hops=9940, estimate=None)],  # hops
        'cost': QueryCost(messages=12809, hops=10340, peers_visited=1034, distinct_peers=194, tuples_processed=20575, tuples_sampled=20575, bytes_sent=1582003, latency_ms=544650.5197785409, timeouts=0),
        'streams': (0.08564916714362436, 0.8261868317638917, 0.09287253318687849, 0.9031718109148604, 0.6967013806766256),
    },
}


@pytest.mark.parametrize("network_name", sorted(NETWORKS))
@pytest.mark.parametrize("query_name", sorted(GROUP_QUERIES))
def test_groupby_pinned(small_topology, grouped_dataset, network_name, query_name):
    observed = observe_groupby(
        small_topology, grouped_dataset, network_name, query_name
    )
    assert observed == PINNED_GROUPBY[network_name, query_name]


@pytest.mark.parametrize("network_name", sorted(NETWORKS))
def test_batch_pinned(small_topology, grouped_dataset, network_name):
    observed = observe_batch(small_topology, grouped_dataset, network_name)
    assert observed == PINNED_BATCH[network_name]
