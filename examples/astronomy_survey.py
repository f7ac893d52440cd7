"""Decision support over a federated astronomy survey.

The paper motivates aggregation queries with "millions of peers across
the world cooperating on a grand experiment in astronomy".  This
example simulates that workload: observatories (peers) hold local
observation tables whose `mag` column is the apparent magnitude of
detected objects.  Observatories cluster by hemisphere and instrument,
so local data is highly correlated — exactly the regime the two-phase
algorithm's cross-validation handles.

An analyst at one observatory (the sink) runs decision-support queries
with a 10% accuracy requirement and gets answers with confidence
intervals while touching a small fraction of the federation.

Run:  python examples/astronomy_survey.py
"""

import numpy as np

from repro.core.median import MedianConfig, MedianEngine
from repro.core.two_phase import TwoPhaseConfig, TwoPhaseEngine
from repro.data.localdb import LocalDatabase
from repro.network.generators import clustered_power_law
from repro.network.simulator import NetworkSimulator
from repro.network.spectral import analyze_topology
from repro.query.exact import evaluate_exact, rank_of_value
from repro.query.parser import parse_query


def build_survey(seed: int = 11):
    """A 600-observatory federation with hemisphere-clustered data."""
    rng = np.random.default_rng(seed)
    topology = clustered_power_law(
        num_peers=600, num_edges=4200, num_subgraphs=2, cut_edges=40,
        seed=seed,
    )
    # Observatories see systematically different fields depending on
    # latitude: local magnitude distributions drift smoothly from
    # bright northern fields (ids near 0) to faint southern ones —
    # per-peer data is strongly correlated, the paper's hard case.
    databases = []
    for peer in range(topology.num_peers):
        base = 13.0 + 6.0 * peer / topology.num_peers
        magnitudes = rng.normal(
            loc=base + rng.normal(scale=0.4), scale=1.5, size=400
        )
        magnitudes = np.clip(magnitudes, 8.0, 26.0)
        databases.append(LocalDatabase({"mag": magnitudes}, block_size=25))
    network = NetworkSimulator(topology, databases, seed=seed)
    return topology, databases, network


def main() -> None:
    print("=== federated astronomy survey ===\n")
    topology, databases, network = build_survey()
    total = sum(db.num_tuples for db in databases)
    print(f"{topology.num_peers} observatories, {total} observations\n")

    # Pre-processing: how well does this federation mix?
    profile = analyze_topology(topology)
    jump = profile.recommended_jump(target_correlation=0.05)
    burn_in = int(profile.mixing_time(epsilon=0.05))
    print(f"spectral gap {profile.spectral_gap:.3f} -> "
          f"recommended jump {jump}, burn-in {burn_in} hops\n")

    config = TwoPhaseConfig(
        phase_one_peers=40, tuples_per_peer=50, jump=jump,
        burn_in=burn_in, max_phase_two_peers=1200,
    )
    engine = TwoPhaseEngine(network, config=config, seed=3)
    median_engine = MedianEngine(
        network,
        MedianConfig(
            phase_one_peers=40, tuples_per_peer=50, jump=jump,
            burn_in=burn_in, max_phase_two_peers=1200,
        ),
        seed=3,
    )

    queries = [
        ("How many faint objects (mag > 20)?",
         "SELECT COUNT(mag) FROM observations WHERE mag > 20"),
        ("How many objects in the survey's sweet spot (14-18)?",
         "SELECT COUNT(mag) FROM observations WHERE mag BETWEEN 14 AND 18"),
        ("Total exposure-weighted signal (SUM of magnitudes)?",
         "SELECT SUM(mag) FROM observations"),
        ("Average magnitude across the federation?",
         "SELECT AVG(mag) FROM observations"),
    ]
    for label, sql in queries:
        query = parse_query(sql)
        result = engine.execute(query, delta_req=0.10, sink=0)
        truth = evaluate_exact(query, databases)
        print(f"{label}")
        print(f"  {sql}")
        print(f"  estimate {result.estimate:14.1f}   "
              f"exact {truth:14.1f}   "
              f"peers visited {result.total_peers_visited}")
        print(f"  interval {result.confidence_interval}\n")

    # Median needs the §5.6 machinery (no push-down).
    median_query = parse_query("SELECT MEDIAN(mag) FROM observations")
    median_result = median_engine.execute(median_query, delta_req=0.10, sink=0)
    median_truth = evaluate_exact(median_query, databases)
    rank = rank_of_value(median_result.estimate, databases, "mag")
    print("Median magnitude (holistic aggregate, values shipped to sink):")
    print(f"  estimate {median_result.estimate:8.2f}   "
          f"exact {median_truth:8.2f}   "
          f"rank error {abs(rank - total / 2) / total:.4f}")
    print(f"  bytes shipped {median_result.cost.bytes_sent} "
          f"(vs tiny aggregate replies for COUNT/SUM)")


if __name__ == "__main__":
    main()
