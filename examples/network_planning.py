"""Pre-processing and operating a P2P AQP deployment.

The paper assumes a pre-processing step that learns the topology's
mixing behaviour and sets the walk parameters (§3.3).  This example
plays the operator:

1. **Spectral planning** — analyze topologies with different cut
   sizes, see how the second eigenvalue dictates the jump size, and
   verify the jump recommendation empirically (Figure 12's trade-off).
2. **Churn** — let peers join and leave, re-freeze snapshots, and show
   that queries keep meeting their accuracy requirement as the graph
   drifts (only the slow-changing parameters M and |E| are refreshed).

Run:  python examples/network_planning.py
"""

import numpy as np

from repro.core.two_phase import TwoPhaseConfig, TwoPhaseEngine
from repro.data.generator import DatasetConfig, generate_dataset
from repro.data.placement import PlacementConfig
from repro.network.churn import ChurnConfig, ChurnProcess
from repro.network.generators import (
    clustered_power_law,
    synthetic_paper_topology,
)
from repro.network.simulator import NetworkSimulator
from repro.network.spectral import analyze_topology
from repro.query.exact import evaluate_exact
from repro.query.parser import parse_query


def spectral_planning() -> None:
    print("--- 1. spectral pre-processing across cut sizes ---\n")
    print("cut edges   second eigenvalue   spectral gap   recommended jump")
    print("-" * 66)
    profiles = {}
    for cut in (4, 40, 400):
        topology = clustered_power_law(
            num_peers=500, num_edges=3000, num_subgraphs=2,
            cut_edges=cut, seed=9,
        )
        profile = analyze_topology(topology)
        jump = profile.recommended_jump(0.05)
        profiles[cut] = (topology, profile, jump)
        print(f"{cut:9d}   {profile.second_eigenvalue:17.4f}   "
              f"{profile.spectral_gap:12.4f}   {jump:16d}")
    print()

    # Verify empirically: tiny cut + tiny jump = biased sample.
    print("empirical check (SUM query, delta_req = 0.10, CL = 0):")
    print("cut edges   jump   mean error")
    print("-" * 34)
    for cut in (4, 400):
        topology, profile, recommended = profiles[cut]
        dataset = generate_dataset(
            topology,
            DatasetConfig(num_tuples=25_000, cluster_level=0.0),
            placement=PlacementConfig(order="id"),
            seed=9,
        )
        network = NetworkSimulator(
            topology, dataset.databases, seed=9
        )
        query = parse_query("SELECT SUM(A) FROM T")
        truth = evaluate_exact(query, dataset.databases)
        for jump in (1, recommended):
            errors = []
            for seed in range(3):
                config = TwoPhaseConfig(
                    jump=jump, burn_in=10 * jump,
                    max_phase_two_peers=1000,
                )
                engine = TwoPhaseEngine(
                    network, config=config, seed=seed
                )
                result = engine.execute(query, delta_req=0.10, sink=0)
                errors.append(
                    abs(result.estimate - truth) / dataset.total_sum()
                )
            print(f"{cut:9d}   {jump:4d}   {np.mean(errors):10.4f}")
    print("\nSmall cuts need big jumps; with a healthy cut even jump=1 "
          "does fine —\nthe inverse trade-off of the paper's Figure 12.\n")


def churn_operations() -> None:
    print("--- 2. answering queries while the network churns ---\n")
    topology = synthetic_paper_topology(seed=4, scale=0.04)
    process = ChurnProcess(
        topology,
        ChurnConfig(join_rate=0.8, leave_rate=0.8, join_degree=5),
        seed=4,
    )
    query = parse_query(
        "SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30"
    )
    print("epoch   peers   edges   error    within 10%?")
    print("-" * 48)
    for epoch in range(4):
        process.run(80)
        snapshot = process.snapshot()
        current = snapshot.topology
        dataset = generate_dataset(
            current,
            DatasetConfig(num_tuples=current.num_peers * 100),
            seed=4 + epoch,
        )
        network = NetworkSimulator(
            current, dataset.databases, seed=4 + epoch
        )
        truth = evaluate_exact(query, dataset.databases)
        sink = int(current.giant_component()[0])
        engine = TwoPhaseEngine(network, seed=epoch)
        result = engine.execute(query, delta_req=0.10, sink=sink)
        error = abs(result.estimate - truth) / dataset.num_tuples
        print(f"{epoch:5d}   {current.num_peers:5d}   "
              f"{current.num_edges:5d}   {error:6.4f}   "
              f"{'yes' if error <= 0.10 else 'NO'}")
    print("\nThe walk only needs the *current* M and |E| (slow-changing, "
          "per the paper);\nthe data sample itself is always drawn fresh "
          "at query time.")


def main() -> None:
    print("=== operating a P2P AQP deployment ===\n")
    spectral_planning()
    churn_operations()


if __name__ == "__main__":
    main()
