"""Serve a mixed query workload concurrently — and prove it's free.

A media-sharing network answers a dashboard's worth of aggregation
queries: repeated panel queries (which go warm through the shared plan
cache) mixed with ad-hoc one-offs, one of them on a tight cost budget.
The workload is served twice — serially and 8-way interleaved — and
the script verifies the serving layer's keystone invariant on the
spot: every estimate, cost ledger and trace is bit-identical.

Run:  python examples/serve_workload.py
      python examples/serve_workload.py --workers 4   # sharded backend

With ``--workers N`` the concurrent run is served by N forked worker
processes over a shared-memory snapshot instead of the in-process
scheduler — and the same bit-identity against the serial reference is
verified (the serial==sharded invariant).
"""

import argparse

import numpy as np

from repro.core.two_phase import TwoPhaseConfig
from repro.data.localdb import LocalDatabase
from repro.errors import BudgetExceededError
from repro.network.generators import synthetic_paper_topology
from repro.network.simulator import NetworkSimulator
from repro.query.parser import parse_query
from repro.service.budget import CostBudget
from repro.service.service import QueryService


def build_network(seed: int = 17):
    topology = synthetic_paper_topology(seed=seed, scale=0.05)
    rng = np.random.default_rng(seed)
    databases = [
        LocalDatabase({"A": rng.integers(1, 101, 80)}, block_size=25)
        for _ in range(topology.num_peers)
    ]
    return NetworkSimulator(topology, databases, seed=seed)


WORKLOAD = [
    # The dashboard panel, refreshed three times (warms the cache).
    "SELECT COUNT(A) FROM T WHERE A BETWEEN 90 AND 100",
    "SELECT AVG(A) FROM T",
    "SELECT COUNT(A) FROM T WHERE A BETWEEN 90 AND 100",
    "SELECT AVG(A) FROM T",
    "SELECT COUNT(A) FROM T WHERE A BETWEEN 90 AND 100",
    "SELECT AVG(A) FROM T",
    # Ad-hoc analyst queries.
    "SELECT SUM(A) FROM T WHERE A BETWEEN 1 AND 50",
    "SELECT SUM(A) FROM T",
]


def serve(simulator, **backend_kwargs):
    with QueryService(
        simulator,
        TwoPhaseConfig(max_phase_two_peers=300),
        seed=99,
        # Visits between budget/deadline checks.  Nothing here carries
        # either, so every query runs one step per phase regardless.
        chunk_peers=8,
        capture_traces=True,
        **backend_kwargs,
    ) as service:
        tickets = [
            service.submit(parse_query(sql), delta_req=0.1)
            for sql in WORKLOAD
        ]
        service.run()
    return service, tickets


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="serve the concurrent run through N forked shard owners "
        "over a shared-memory snapshot (default: in-process scheduler)",
    )
    args = parser.parse_args()
    if args.workers:
        concurrent_kwargs = {"workers": args.workers}
        concurrent_label = f"sharded (workers={args.workers})"
    else:
        concurrent_kwargs = {"max_in_flight": 8}
        concurrent_label = "concurrent (max_in_flight=8)"

    print("=== Serving a mixed workload ===\n")
    serial_svc, serial_tickets = serve(build_network(), max_in_flight=1)
    conc_svc, conc_tickets = serve(build_network(), **concurrent_kwargs)

    print(f"{'query':52s} {'estimate':>12s} {'peers':>6s} {'mode':>5s}")
    cold_seen = set()
    for ticket in conc_tickets:
        outcome = conc_svc.outcome(ticket)
        mode = "cold" if ticket.signature not in cold_seen else "warm"
        cold_seen.add(ticket.signature)
        print(
            f"{ticket.signature[:52]:52s} "
            f"{outcome.result.estimate:12.1f} "
            f"{outcome.cost.peers_visited:6d} {mode:>5s}"
        )

    stats = conc_svc.stats()
    print(
        f"\n{concurrent_label} stats: {stats.completed} completed, "
        f"{stats.warm_runs} warm / {stats.cold_runs} cold "
        f"(warm ratio {stats.warm_ratio:.0%})"
    )

    print("\n=== The determinism invariant ===\n")
    for serial_ticket, conc_ticket in zip(serial_tickets, conc_tickets):
        a = serial_svc.outcome(serial_ticket)
        b = conc_svc.outcome(conc_ticket)
        assert a.result.estimate == b.result.estimate
        assert a.result.cost == b.result.cost
        assert (
            serial_svc.trace(serial_ticket).digest()
            == conc_svc.trace(conc_ticket).digest()
        )
    print(
        f"serial (max_in_flight=1) == {concurrent_label}:\n"
        "  every estimate, cost ledger and trace digest is identical."
    )

    print("\n=== A budgeted query ===\n")
    service, _ = serve(build_network(), max_in_flight=4)
    ticket = service.submit(
        parse_query("SELECT COUNT(A) FROM T"),
        delta_req=0.05,
        budget=CostBudget(max_hops=200),
    )
    try:
        service.await_result(ticket)
        print("finished within budget")
    except BudgetExceededError as stopped:
        outcome = service.outcome(ticket)
        print(f"stopped: {stopped}")
        print(
            f"ledger at stop: {outcome.cost.hops} hops over "
            f"{outcome.chunks} chunks (overshoot <= one chunk)"
        )


if __name__ == "__main__":
    main()
