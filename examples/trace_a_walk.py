"""Trace a query end-to-end: events, metrics, JSONL, reconciliation.

Runs one approximate COUNT over the synthetic network with a tracer
installed, then shows what the observability layer captured:

1. the typed event stream (walks, probes/batches, phases, estimate);
2. the metrics registry the tracer aggregated along the way;
3. the exact reconciliation of summed event costs against the run's
   CostLedger;
4. the JSONL export consumed by ``python -m repro.tools.trace``.

Run:  python examples/trace_a_walk.py
"""

from collections import Counter
from pathlib import Path

from repro.core.two_phase import TwoPhaseEngine
from repro.data.generator import DatasetConfig, generate_dataset
from repro.network.generators import synthetic_paper_topology
from repro.network.simulator import NetworkSimulator
from repro.obs.tracer import Tracer, tracing
from repro.query.exact import evaluate_exact
from repro.query.parser import parse_query


def main() -> None:
    print("=== p2p-aqp: tracing a walk ===\n")

    # A small seeded network (500 peers, 50k tuples).
    topology = synthetic_paper_topology(seed=7, scale=0.05)
    dataset = generate_dataset(
        topology,
        DatasetConfig(num_tuples=50_000, cluster_level=0.25, skew=0.2),
        seed=7,
    )
    network = NetworkSimulator(topology, dataset.databases, seed=7)
    engine = TwoPhaseEngine(network, seed=42)
    query = parse_query(
        "SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30"
    )

    # 1. Install a tracer for the duration of the query.  Outside the
    #    ``with`` block tracing is off and costs nothing.
    tracer = Tracer()
    with tracing(tracer):
        result = engine.execute(query, delta_req=0.1, sink=0)

    print(f"estimate: {result.estimate:,.0f}  "
          f"(exact: {evaluate_exact(query, dataset.databases):,.0f})")
    print(f"events captured: {tracer.num_events}")
    for kind, count in sorted(
        Counter(event.kind for event in tracer.events).items()
    ):
        print(f"  {kind}: {count}")

    # 2. The metrics the tracer aggregated as events arrived.
    counters = tracer.registry.snapshot()["counters"]
    print("\nselected counters:")
    for name in ("events_total", "cost.messages", "cost.visits"):
        print(f"  {name}: {counters[name]}")

    # 3. The reconciliation contract: summing every event's charge
    #    reproduces the ledger's countable totals exactly.
    total = tracer.cost_total
    print("\nreconciliation against the run's CostLedger:")
    print(f"  messages: {total.messages} == {result.cost.messages}")
    print(f"  hops:     {total.hops} == {result.cost.hops}")
    print(f"  visits:   {total.visits} == {result.cost.peers_visited}")
    assert total.messages == result.cost.messages
    assert total.hops == result.cost.hops
    assert total.visits == result.cost.peers_visited
    assert total.timeouts == result.cost.timeouts

    # 4. Export canonical JSONL for the trace CLI.  The trace of a
    #    seeded run is byte-stable: same seed, same digest.
    out = Path("trace_a_walk.jsonl")
    out.write_text("\n".join(tracer.lines) + "\n")
    print(f"\nwrote {out} (digest {tracer.digest()[:16]}…)")
    print("inspect it with:")
    print(f"  PYTHONPATH=src python -m repro.tools.trace summarize {out}")
    print(f"  PYTHONPATH=src python -m repro.tools.trace filter {out}"
          " --kind phase,estimate")


if __name__ == "__main__":
    main()
