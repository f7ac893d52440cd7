"""Tour of the extensions beyond the paper's core algorithm.

The paper's §6 poses two open problems: hybrid pre-computed/online
sampling, and biased sampling.  This example exercises both on one
network:

1. the hybrid plan cache amortizing repeated queries,
2. probe-weighted biased sampling for a selective COUNT.

Run:  python examples/extensions_tour.py
"""

import numpy as np

from repro.core.biased import biased_engine_for_query
from repro.core.two_phase import PlanCache, TwoPhaseConfig, TwoPhaseEngine
from repro.data.generator import DatasetConfig, generate_dataset
from repro.network.generators import synthetic_paper_topology
from repro.network.simulator import NetworkSimulator
from repro.query.exact import evaluate_exact
from repro.query.parser import parse_query


def main() -> None:
    print("=== extensions tour ===\n")
    topology = synthetic_paper_topology(seed=13, scale=0.06)
    dataset = generate_dataset(
        topology,
        DatasetConfig(
            num_tuples=topology.num_peers * 100,
            cluster_level=0.25,
            skew=0.6,
        ),
        seed=13,
    )
    network = NetworkSimulator(topology, dataset.databases, seed=13)
    print(f"network: {topology.num_peers} peers, "
          f"{dataset.num_tuples} tuples, Zipf skew 0.6\n")

    # ------------------------------------------------------------------
    print("1. HYBRID PLAN CACHE (repeated dashboard query)")
    query = parse_query(
        "SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30"
    )
    exact = evaluate_exact(query, dataset.databases)
    hybrid = TwoPhaseEngine(
        network,
        TwoPhaseConfig(max_phase_two_peers=2 * topology.num_peers),
        seed=22,
        cache=PlanCache(),
    )
    print("run   mode   peers  error")
    for run in range(6):
        result = hybrid.execute(query, delta_req=0.10, sink=0)
        mode = "cold" if run == 0 else "warm"
        error = abs(result.estimate - exact) / dataset.num_tuples
        print(f"{run:3d}   {mode}   {result.total_peers_visited:5d}  "
              f"{error:.4f}")
    print(f"cold runs {hybrid.cold_runs}, warm runs {hybrid.warm_runs}: "
          "repeat queries skip phase I and its analysis round-trip\n")

    # ------------------------------------------------------------------
    print("2. BIASED SAMPLING (selective query: A BETWEEN 1 AND 2)")
    selective = parse_query(
        "SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 2"
    )
    truth_selective = evaluate_exact(selective, dataset.databases)
    biased = biased_engine_for_query(network, selective, seed=23)
    plain = TwoPhaseEngine(
        network,
        TwoPhaseConfig(phase_one_peers=60, max_phase_two_peers=0),
        seed=23,
    )
    biased_errors = []
    plain_errors = []
    for seed in range(6):
        b = biased_engine_for_query(
            network, selective, seed=seed
        ).execute(selective, sink=0)
        biased_errors.append(abs(b.estimate - truth_selective))
        p = TwoPhaseEngine(
            network,
            TwoPhaseConfig(phase_one_peers=60, max_phase_two_peers=0),
            seed=seed,
        ).execute(selective, delta_req=0.99, sink=0)
        plain_errors.append(abs(p.estimate - truth_selective))
    print(f"exact answer: {truth_selective:.0f}")
    print(f"mean |error| over 6 runs, 60 peers each:")
    print(f"  probe-weighted walk: {np.mean(biased_errors):10.1f}")
    print(f"  plain random walk:   {np.mean(plain_errors):10.1f}")
    print("Focusing samples where matching tuples live cuts the error "
          "at equal cost.")


if __name__ == "__main__":
    main()
