"""Always-on monitoring over a churning sensor swarm.

A fleet of sensor gateways forms an unstructured P2P network; each
holds recent readings (values 1..100, where readings above 90 are
alarms).  An operations dashboard repeatedly asks the same panel of
aggregates while gateways join and drop out and their data turns over.

The recipe combines two library pieces:

* :class:`repro.network.live.LiveNetwork` — churn with a data lifecycle;
* :class:`repro.core.batch.BatchEngine` — the whole dashboard from one walk.

(A batch always runs cold: its members' scales differ, so it has no
plan.  A single repeated query goes warm through a
:class:`repro.core.two_phase.PlanCache` — see
``examples/extensions_tour.py``.)

Run:  python examples/continuous_monitoring.py
"""

import numpy as np

from repro.core.batch import BatchEngine
from repro.core.two_phase import TwoPhaseConfig
from repro.data.localdb import LocalDatabase
from repro.network.churn import ChurnConfig
from repro.network.generators import synthetic_paper_topology
from repro.network.live import LiveNetwork
from repro.query.exact import evaluate_exact
from repro.query.model import AggregateOp
from repro.query.parser import parse_query


def build_swarm(seed: int = 29):
    topology = synthetic_paper_topology(seed=seed, scale=0.05)
    rng = np.random.default_rng(seed)
    databases = [
        LocalDatabase(
            {"A": rng.integers(1, 101, 120)}, block_size=25
        )
        for _ in range(topology.num_peers)
    ]
    return LiveNetwork(
        topology,
        databases,
        churn_config=ChurnConfig(join_rate=0.6, leave_rate=0.6),
        tuples_per_new_peer=120,
        handoff=False,
        seed=seed,
    )


DASHBOARD = [
    ("alarm readings (A > 90)",
     "SELECT COUNT(A) FROM readings WHERE A > 90"),
    ("healthy band (A BETWEEN 20 AND 60)",
     "SELECT COUNT(A) FROM readings WHERE A BETWEEN 20 AND 60"),
    ("total signal", "SELECT SUM(A) FROM readings"),
]


def main() -> None:
    print("=== continuous monitoring under churn ===\n")
    live = build_swarm()
    queries = [parse_query(sql) for _label, sql in DASHBOARD]

    for epoch in range(3):
        live.step(40)  # gateways come and go, data turns over
        network = live.snapshot(seed=epoch)
        sink = int(network.topology.giant_component()[0])
        print(f"epoch {epoch}: {network.num_peers} gateways, "
              f"{network.total_tuples()} readings")

        # The whole dashboard from ONE walk.
        engine = BatchEngine(
            network,
            TwoPhaseConfig(
                max_phase_two_peers=2 * network.num_peers
            ),
            seed=epoch,
        )
        results = engine.execute(queries, delta_req=0.1, sink=sink)
        shared_cost = results[0].cost
        for (label, _sql), result in zip(DASHBOARD, results):
            truth = evaluate_exact(
                result.query, network.databases()
            )
            scale = (
                network.total_tuples()
                if result.query.agg is AggregateOp.COUNT
                else truth
            )
            error = abs(result.estimate - truth) / scale
            print(f"  {label:<38} est {result.estimate:12.0f}  "
                  f"err {error:6.4f}")
        print(f"  shared batch cost: {shared_cost.peers_visited} peer "
              f"visits, {shared_cost.messages} messages\n")

    print("Each epoch re-sniffs the fresh snapshot; within an epoch a "
          "dashboard refresh\ncosts one batch walk regardless of how "
          "many tiles it has.")


if __name__ == "__main__":
    main()
