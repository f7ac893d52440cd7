"""Chaos tour: approximate queries while the network fails on purpose.

Four deterministic failure scenarios over the same 200-peer network:

1. crash mid-walk      - 15% of peers are down; the resilient walker
                         retries and substitutes around them;
2. correlated outage   - a whole BFS ball partitions away at once;
3. timeout storm       - latency spikes push probes past the sink's
                         patience;
4. loss under churn    - reply loss while peers join and leave, with
                         the fault clock persisting across epochs.

Every failure is scheduled by a seeded FaultPlan, so each run of this
script replays the exact same chaos (shown at the end).

Run:  python examples/chaos_scenarios.py
"""

from repro.core.two_phase import TwoPhaseConfig, TwoPhaseEngine
from repro.data.generator import DatasetConfig, generate_dataset
from repro.network.churn import ChurnConfig
from repro.network.faults import (
    CrashWindow,
    FaultPlan,
    LatencySpike,
    RegionalOutage,
)
from repro.network.generators import power_law_topology
from repro.network.live import LiveNetwork
from repro.network.simulator import NetworkSimulator
from repro.network.walker import RetryPolicy
from repro.query.exact import evaluate_exact
from repro.query.parser import parse_query

RETRY = RetryPolicy(max_attempts=3, backoff_base_ms=25.0)


def build_network(fault_plan=None):
    topology = power_law_topology(200, 800, seed=7)
    dataset = generate_dataset(
        topology,
        DatasetConfig(num_tuples=10_000, cluster_level=0.25, skew=0.2),
        seed=7,
    )
    network = NetworkSimulator(
        topology, dataset.databases, seed=7, fault_plan=fault_plan
    )
    return topology, dataset, network


def run_count(network, seed=5, retry=RETRY):
    query = parse_query("SELECT COUNT(A) FROM T")
    config = TwoPhaseConfig(
        phase_one_peers=40, max_phase_two_peers=120, retry_policy=retry
    )
    engine = TwoPhaseEngine(network, config, seed=seed)
    result = engine.execute(query, delta_req=0.05, sink=0)
    truth = evaluate_exact(query, network.databases())
    return result, truth


def report(label, result, truth):
    error = abs(result.estimate - truth) / truth
    flag = "DEGRADED" if result.degraded else "full sample"
    print(
        f"  {label:<22s} estimate={result.estimate:9.1f}  "
        f"truth={truth:7.0f}  err={error:6.1%}  "
        f"sample={result.effective_sample_size}/"
        f"{result.requested_sample_size} ({flag})  "
        f"timeouts={result.cost.timeouts}"
    )


def scenario_crash_mid_walk():
    print("\n=== 1. crash mid-walk (15% of peers down) ===")
    plan = FaultPlan(
        seed=11,
        crashes=tuple(
            CrashWindow(peer_id=peer, start=0, stop=10**6)
            for peer in range(0, 200, 7)
        ),
        probe_timeout_ms=200.0,
    )
    _, _, network = build_network(plan)
    result, truth = run_count(network)
    report("with retry policy", result, truth)
    _, _, network = build_network(plan)
    result, truth = run_count(network, retry=None)
    report("no retry policy", result, truth)


def scenario_correlated_outage():
    print("\n=== 2. correlated regional outage (BFS ball, radius 1) ===")
    topology, _, _ = build_network()
    plan = FaultPlan(
        seed=13,
        outages=(
            RegionalOutage(center=3, radius=1, start=0, stop=10**6),
        ),
        probe_timeout_ms=150.0,
    )
    ball = plan.bind(topology).crashed_peers(0)
    print(f"  peers down together: {sorted(ball)}")
    _, _, network = build_network(plan)
    result, truth = run_count(network)
    report("around the partition", result, truth)


def scenario_timeout_storm():
    print("\n=== 3. timeout storm (60% spike rate, 5s spikes, 1s patience) ===")
    plan = FaultPlan(
        seed=14,
        latency_spike=LatencySpike(rate=0.6, extra_ms=5_000.0),
        probe_timeout_ms=1_000.0,
    )
    _, _, network = build_network(plan)
    result, truth = run_count(network)
    report("through the storm", result, truth)
    print(f"  latency paid (incl. backoff): {result.cost.latency_ms:,.0f} ms")


def scenario_loss_under_churn():
    print("\n=== 4. reply loss under churn (20% loss, 3 epochs) ===")
    topology, dataset, _ = build_network()
    plan = FaultPlan(seed=16, reply_loss=0.2)
    live = LiveNetwork(
        topology,
        dataset.databases,
        churn_config=ChurnConfig(join_rate=0.5, leave_rate=0.5),
        fault_plan=plan,
        seed=31,
    )
    query = parse_query("SELECT COUNT(A) FROM T")
    config = TwoPhaseConfig(phase_one_peers=30, max_phase_two_peers=60)
    for epoch in range(3):
        network = live.snapshot(seed=100 + epoch)
        engine = TwoPhaseEngine(network, config, seed=40 + epoch)
        result = engine.execute(query, delta_req=0.05, sink=0)
        truth = evaluate_exact(query, network.databases())
        report(f"epoch {epoch} (clock={live.fault_clock})", result, truth)
        live.step(20)


def replay_demo():
    print("\n=== determinism: the same plan replays bit-identically ===")
    plan = FaultPlan(
        seed=11,
        crashes=(CrashWindow(peer_id=0, start=0, stop=10**6),),
        reply_loss=0.3,
        probe_timeout_ms=500.0,
    )
    runs = []
    for _ in range(2):
        _, _, network = build_network(plan)
        result, _ = run_count(network)
        runs.append((result.estimate, result.cost))
    identical = runs[0] == runs[1]
    print(f"  run 1 estimate: {runs[0][0]:.4f}")
    print(f"  run 2 estimate: {runs[1][0]:.4f}")
    print(f"  estimates and full cost ledgers identical: {identical}")


def main() -> None:
    print("=== p2p-aqp chaos scenarios ===")
    scenario_crash_mid_walk()
    scenario_correlated_outage()
    scenario_timeout_storm()
    scenario_loss_under_churn()
    replay_demo()


if __name__ == "__main__":
    main()
