"""A query races churn, latency and a deadline on the virtual clock.

The synchronous simulator answers *whether* a probe succeeds; the
discrete-event kernel answers *when*.  This script arms the time
domain and narrates three races, all bit-reproducible:

1. query vs. churn       - replies cross epoch boundaries mid-flight
                           and come back flagged stale; departures
                           surface as typed errors the retry policy
                           absorbs;
2. query vs. deadline    - a fault-plan latency spike pushes the
                           virtual clock past the query's deadline and
                           the service stops it with a typed error;
3. slow is not lost      - a spike past the probe timeout times the
                           sink out, but the reply still lands *late*
                           on the clock, visible in the trace.

Run:  python examples/query_racing_churn.py
"""

from repro.core.two_phase import TwoPhaseConfig, TwoPhaseEngine
from repro.data.generator import DatasetConfig, generate_dataset
from repro.errors import ProtocolError
from repro.network.faults import FaultPlan, LatencySpike
from repro.network.generators import power_law_topology
from repro.network.walker import RetryPolicy
from repro.obs.events import LateDeliveryEvent, StaleReplyEvent, TimelineEvent
from repro.obs.tracer import Tracer, tracing
from repro.query.parser import parse_query
from repro.service.service import QueryService
from repro.sim.event_driven import EventDrivenSimulator
from repro.sim.latency import (
    ConstantLatency,
    ExponentialLatency,
    LatencyModel,
    UniformLatency,
)
from repro.sim.timeline import ChurnTimeline

QUERY = parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30")

TOPOLOGY = power_law_topology(150, 600, seed=7)
DATASET = generate_dataset(
    TOPOLOGY,
    DatasetConfig(num_tuples=8_000, cluster_level=0.25, skew=0.2),
    seed=7,
)

LATENCY = LatencyModel(
    seed=13,
    request=UniformLatency(5.0, 25.0),
    reply=ExponentialLatency(40.0),
    hop=UniformLatency(0.5, 2.0),
)


def build_network(**extra):
    return EventDrivenSimulator(
        TOPOLOGY, DATASET.databases, seed=7, **extra
    )


def race_churn():
    print("=== 1. Query vs. churn ===\n")
    network = build_network(
        latency=LATENCY,
        timeline=ChurnTimeline.sampled(
            seed=21,
            num_peers=TOPOLOGY.num_peers,
            horizon_ms=20_000.0,
            departure_rate_per_s=0.05,
            epoch_every_ms=250.0,
        ),
        probe_timeout_ms=1_000.0,
    )
    engine = TwoPhaseEngine(
        network,
        TwoPhaseConfig(
            phase_one_peers=25,
            retry_policy=RetryPolicy(max_attempts=3),
        ),
        seed=42,
    )
    tracer = Tracer(time_source=network.virtual_clock.read)
    with tracing(tracer):
        result = engine.execute(QUERY, delta_req=0.15, sink=0)
        network.drain()

    timing = result.timing
    departed = sum(
        1 for e in tracer.events
        if isinstance(e, TimelineEvent) and e.action == "depart"
    )
    stale = sum(1 for e in tracer.events if isinstance(e, StaleReplyEvent))
    print(f"estimate          {result.estimate:12.1f}"
          f"   (degraded={result.degraded})")
    print(f"virtual duration  {timing.duration_ms:12.1f} ms")
    print(f"epochs crossed    {timing.epochs_crossed:12d}")
    print(f"stale replies     {stale:12d}   (accepted, flagged)")
    print(f"departures fired  {departed:12d}")
    print(f"clock after drain {network.virtual_now_ms:12.1f} ms")
    print(f"trace digest      {tracer.digest()[:16]}...  (replays exactly)\n")
    return tracer.digest()


def race_deadline():
    print("=== 2. Query vs. deadline ===\n")
    spiky = FaultPlan(
        seed=5, latency_spike=LatencySpike(rate=0.5, extra_ms=400.0)
    )
    network = build_network(
        latency=LatencyModel(
            seed=13,
            request=ConstantLatency(5.0),
            reply=ConstantLatency(5.0),
        ),
        fault_plan=spiky,
    )
    service = QueryService(network, seed=3)
    tight = service.submit(QUERY, delta_req=0.2, deadline_ms=150.0)
    generous = service.submit(QUERY, delta_req=0.2, deadline_ms=1e6)
    service.run()

    outcome = service.outcome(tight)
    print(f"deadline 150 ms   -> status {outcome.status!r}"
          f" after {outcome.cost.peers_visited} peers"
          " (typed DeadlineExceededError on await)")
    result = service.await_result(generous)
    print(f"deadline 1e6 ms   -> estimate {result.estimate:.1f}"
          f" in {result.timing.duration_ms:.1f} virtual ms"
          f" (missed={result.timing.deadline_missed})")
    print(f"service stats     -> deadline_stopped ="
          f" {service.stats().deadline_stopped}\n")


def slow_is_not_lost():
    print("=== 3. Slow is not lost ===\n")
    network = build_network(
        latency=LatencyModel(
            seed=13,
            request=ConstantLatency(10.0),
            reply=ConstantLatency(5.0),
        ),
        fault_plan=FaultPlan(
            seed=5,
            latency_spike=LatencySpike(rate=0.999, extra_ms=500.0),
            probe_timeout_ms=100.0,
        ),
    )
    tracer = Tracer(time_source=network.virtual_clock.read)
    with tracing(tracer):
        try:
            network.visit_aggregate(
                1, QUERY, sink=0, ledger=network.new_ledger()
            )
        except ProtocolError as error:
            print(f"sink gave up      -> {type(error).__name__}"
                  f" at t={network.virtual_now_ms:.0f} ms (its patience)")
        network.drain()
    late = [e for e in tracer.events if isinstance(e, LateDeliveryEvent)]
    for event in late:
        print(f"reply still lands -> sent t={event.sent_ms:.0f},"
              f" delivered t={event.delivered_ms:.0f} ms"
              " (late, not lost)")
    print()


def race_churn_digest():
    # Re-run scenario 1 silently to prove the whole race replays.
    import contextlib
    import io

    with contextlib.redirect_stdout(io.StringIO()):
        return race_churn()


def main():
    first = race_churn()
    race_deadline()
    slow_is_not_lost()

    print("=== Replay ===\n")
    print("same seeds, same race:",
          "digests match" if first == race_churn_digest() else "MISMATCH")


if __name__ == "__main__":
    main()
