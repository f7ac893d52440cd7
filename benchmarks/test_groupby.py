"""GROUP BY benchmark: per-group accuracy and bandwidth positioning.

GROUP BY sits between pure push-down (one scalar per reply) and value
shipping (the median path) on the bandwidth axis; this bench measures
per-group accuracy at a fixed budget and the reply-size ordering.
"""

import numpy as np

from repro.core.groupby import GroupByConfig, GroupByEngine
from repro.data.generator import DatasetConfig, generate_dataset
from repro.network.generators import power_law_topology
from repro.network.protocol import (
    AggregateReply,
    group_reply_bytes,
    tuple_reply_bytes,
)
from repro.network.simulator import NetworkSimulator
from repro.network.visits import GroupVisits
from repro.query.exact import evaluate_exact_groups
from repro.query.parser import parse_query

GROUPED = parse_query("SELECT COUNT(A) FROM T GROUP BY G")
MEDIAN = parse_query("SELECT MEDIAN(A) FROM T")


def _network(seed=71):
    topology = power_law_topology(1200, 6000, seed=seed)
    dataset = generate_dataset(
        topology,
        DatasetConfig(
            num_tuples=120_000, cluster_level=0.25,
            group_column="G", num_groups=10,
        ),
        seed=seed,
    )
    return topology, dataset, NetworkSimulator(
        topology, dataset.databases, seed=seed
    )


def test_groupby_accuracy(benchmark):
    def run():
        topology, dataset, network = _network()
        truth = evaluate_exact_groups(GROUPED, dataset.databases)
        engine = GroupByEngine(
            network, GroupByConfig(max_phase_two_peers=2000), seed=1
        )
        distances = []
        for seed in range(3):
            engine = GroupByEngine(
                network,
                GroupByConfig(max_phase_two_peers=2000),
                seed=seed,
            )
            result = engine.execute(GROUPED, delta_req=0.05, sink=0)
            distances.append(result.total_variation_distance(truth))
        return float(np.mean(distances))

    mean_tv = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nmean TV distance over runs: {mean_tv:.4f} (required 0.05)")
    assert mean_tv <= 0.05


def test_bandwidth_ordering(benchmark):
    """Reply payloads order as the §3.2 cost discussion predicts:
    scalar push-down < GROUP BY < raw value shipping, at equal peer
    budgets."""
    def run():
        topology, dataset, network = _network()
        peers = np.arange(40)
        ledger = network.new_ledger()
        grouped = network.visit_batch(
            peers, GroupVisits(network, GROUPED, 0, 50), ledger
        )
        shipped = network.visit_values_batch(
            peers, MEDIAN, sink=0, ledger=ledger,
            tuples_per_peer=50, ship="sample",
        )
        return {
            "scalar": float(AggregateReply.SIZE_BYTES),
            "groupby": float(group_reply_bytes(grouped["shipped"]).mean()),
            "value-shipping": float(
                tuple_reply_bytes(shipped["shipped"]).mean()
            ),
        }

    budgets = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nmean reply bytes per visit:", budgets)
    assert budgets["scalar"] < budgets["groupby"] < budgets["value-shipping"]
