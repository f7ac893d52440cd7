"""Golden-trace regression tests.

Each canonical seeded run is traced and reduced to a normalized
digest (sha256 over the canonical JSONL lines) plus a reviewable
summary (event counts, cost totals, final estimate).  The digests pin
engine behaviour byte-for-byte: any change to walk order, fault
decisions, retry charging or estimator arithmetic flips a digest.

When a behaviour change is *intended*, regenerate the goldens with

    PYTHONPATH=src python -m pytest tests/test_trace_golden.py \
        --update-goldens

then inspect the ``tests/goldens/`` diff (the summaries make it
reviewable) and commit it alongside the change.
"""

import hashlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro.core.two_phase as two_phase_module
from repro.core.groupby import GroupByConfig, GroupByEngine
from repro.core.median import MedianConfig, MedianEngine
from repro.core.two_phase import TwoPhaseConfig, TwoPhaseEngine
from repro.data.generator import DatasetConfig, generate_dataset
from repro.network.faults import CrashWindow, FaultPlan, LatencySpike
from repro.network.generators import power_law_topology
from repro.network.simulator import NetworkSimulator
from repro.obs.tracer import Tracer, tracing
from repro.query.parser import parse_query
from repro.sim.event_driven import EventDrivenSimulator
from repro.sim.latency import ExponentialLatency, LatencyModel, UniformLatency
from repro.sim.timeline import ChurnTimeline

GOLDENS = Path(__file__).resolve().parent / "goldens"
BENCH = Path(__file__).resolve().parent.parent / "bench"

COUNT_30 = parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30")
MEDIAN_ALL = parse_query("SELECT MEDIAN(A) FROM T")
GROUPED_COUNT = parse_query("SELECT COUNT(A) FROM T GROUP BY G")

FAULT_PLAN = FaultPlan(
    seed=5,
    crashes=(CrashWindow(peer_id=3, start=0, stop=50),),
    reply_loss=0.2,
    latency_spike=LatencySpike(rate=0.1, extra_ms=50.0),
    probe_timeout_ms=1000.0,
)


def _build_network(fault_plan=None, simulator_class=NetworkSimulator,
                   num_groups=None, **extra):
    """A fresh canonical network: never share simulator RNG state
    with other tests (session fixtures would make digests depend on
    execution order).  ``num_groups`` adds a grouping column ``G``."""
    topology = power_law_topology(200, 800, seed=7)
    grouping = {} if num_groups is None else {
        "group_column": "G", "num_groups": num_groups,
    }
    dataset = generate_dataset(
        topology,
        DatasetConfig(
            num_tuples=10_000, cluster_level=0.25, skew=0.2, **grouping
        ),
        seed=7,
    )
    return simulator_class(
        topology, dataset.databases, seed=7, fault_plan=fault_plan,
        **extra,
    )


#: The canonical timed scenario: latency on every leg and a churn
#: timeline whose epoch mark lands mid-run, so the golden pins the
#: event queue's (time, seq) order, the counter-hash latency draws
#: and the ``vt`` stamping all at once.
TIMED_LATENCY = LatencyModel(
    seed=13,
    request=UniformLatency(5.0, 25.0),
    reply=ExponentialLatency(10.0),
    hop=UniformLatency(0.5, 2.0),
)
TIMED_TIMELINE = ChurnTimeline.sampled(
    seed=21,
    num_peers=200,
    horizon_ms=20_000.0,
    departure_rate_per_s=0.05,
    epoch_every_ms=5_000.0,
)


def _run_two_phase(fault_plan=None, simulator_class=NetworkSimulator):
    network = _build_network(fault_plan, simulator_class)
    engine = TwoPhaseEngine(
        network, TwoPhaseConfig(phase_one_peers=30), seed=42
    )
    tracer = Tracer()
    with tracing(tracer):
        result = engine.execute(COUNT_30, 0.1, sink=0)
    return tracer, result


def _run_two_phase_timed():
    """The canonical event-driven run: nonzero latency + timeline."""
    network = _build_network(
        simulator_class=EventDrivenSimulator,
        latency=TIMED_LATENCY,
        timeline=TIMED_TIMELINE,
    )
    engine = TwoPhaseEngine(
        network, TwoPhaseConfig(phase_one_peers=30), seed=42
    )
    tracer = Tracer(time_source=network.virtual_clock.read)
    with tracing(tracer):
        result = engine.execute(COUNT_30, 0.1, sink=0)
        network.drain()
    return tracer, result


def _run_median():
    network = _build_network()
    engine = MedianEngine(
        network, MedianConfig(phase_one_peers=40), seed=9
    )
    tracer = Tracer()
    with tracing(tracer):
        result = engine.execute(MEDIAN_ALL, 0.05, sink=1)
    return tracer, result


def _run_groupby():
    """The GROUP BY engine: phase II sized by the total-variation
    cross-validation of the per-group masses."""
    network = _build_network(num_groups=6)
    engine = GroupByEngine(
        network, GroupByConfig(phase_one_peers=40), seed=9
    )
    tracer = Tracer()
    with tracing(tracer):
        result = engine.execute(GROUPED_COUNT, 0.05, sink=1)
    return tracer, result


def _payload(tracer, result, estimate=None):
    cost = tracer.cost_total
    payload = {
        "digest": tracer.digest(),
        "events": tracer.num_events,
        "kinds": dict(sorted(Counter(e.kind for e in tracer.events).items())),
        "cost": {
            "messages": cost.messages,
            "hops": cost.hops,
            "visits": cost.visits,
            "timeouts": cost.timeouts,
        },
        "estimate": result.estimate if estimate is None else estimate,
    }
    # Virtual time is significant golden content: the stamp count and
    # makespan change whenever event ordering or latency draws do.
    stamped = sum(1 for line in tracer.lines if '"vt"' in line)
    if stamped:
        payload["virtual_time"] = {
            "stamped_events": stamped,
            "finished_ms": result.timing.finished_ms,
        }
    return payload


def _check_golden(name, payload, update):
    path = GOLDENS / f"{name}.json"
    if update:
        path.parent.mkdir(exist_ok=True)
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        pytest.skip(f"rewrote {path.name}")
    expected = json.loads(path.read_text())
    assert payload == expected, (
        f"golden trace '{name}' diverged; if the behaviour change is "
        "intended, rerun with --update-goldens and commit the diff"
    )


class TestGoldenTraces:
    def test_two_phase_golden(self, update_goldens):
        tracer, result = _run_two_phase()
        _check_golden("trace_two_phase", _payload(tracer, result),
                      update_goldens)

    def test_median_golden(self, update_goldens):
        tracer, result = _run_median()
        _check_golden("trace_median", _payload(tracer, result),
                      update_goldens)

    def test_groupby_golden(self, update_goldens):
        tracer, result = _run_groupby()
        assert result.phase_two is not None
        _check_golden(
            "trace_groupby",
            _payload(tracer, result, estimate=[
                [group, value] for group, value in result.groups.items()
            ]),
            update_goldens,
        )

    def test_fault_injected_golden(self, update_goldens):
        tracer, result = _run_two_phase(FAULT_PLAN)
        _check_golden("trace_two_phase_faulty",
                      _payload(tracer, result), update_goldens)

    def test_event_driven_timed_golden(self, update_goldens):
        """Pin the virtual-timestamped trace of the canonical timed
        run (latency + churn timeline on the event-driven kernel)."""
        tracer, result = _run_two_phase_timed()
        assert result.timing is not None
        _check_golden("trace_two_phase_timed",
                      _payload(tracer, result), update_goldens)

    def test_passthrough_matches_synchronous_golden(self, update_goldens):
        """A zero-latency event-driven run reproduces the *synchronous*
        goldens byte for byte — the parity invariant applied to the
        pinned digests themselves (no separate passthrough golden can
        drift away from the synchronous one)."""
        if update_goldens:
            pytest.skip("the synchronous tests own these goldens")
        for fault_plan, name in (
            (None, "trace_two_phase"),
            (FAULT_PLAN, "trace_two_phase_faulty"),
        ):
            tracer, result = _run_two_phase(
                fault_plan, simulator_class=EventDrivenSimulator
            )
            _check_golden(name, _payload(tracer, result), update_goldens)


#: sha256 over the concatenated per-query trace digests of the serving
#: benchmark's ``chaos_2k_timed`` seed-7 measured stream (192 queries).
CHAOS_STREAM_DIGEST = (
    "90b08abd770679dcbd57d1326e2a9d02770244896f36fcb63917129466f7ae71"
)
#: sha256 over the same stream's events other than ``phase`` and
#: ``estimate`` (24,462 of them), ``seq`` dropped, one ``json.dumps``
#: per line: the walks, visits, faults and lifecycle, apart from the
#: engine's phase bookkeeping — the numbering of which moves the
#: ``seq`` of everything after it.  Unlike the digest above, this one
#: is not re-recorded when only the bookkeeping changes.
CHAOS_STREAM_EVENTS_DIGEST = (
    "d59a6a298afdd5d3f09700bf114d6d7e8435bc0b337b6f1ab61ae974e41b857c"
)


class TestChaosStreamTraces:
    """The traces of the benchmark's timed, faulted stream — retries,
    substitutions, timeouts and late deliveries under eight queries in
    flight — pinned by value.  ``bench/workloads.py`` is loaded by path
    (``bench/`` is not a package here) and served as ``bench.measure.
    serve`` does: the warm-up, then closed-loop bursts of 32."""

    def test_seed_7_measured_stream(self, monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", BENCH / "workloads.py"
        )
        bench = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, bench)  # dataclasses
        spec.loader.exec_module(bench)
        workload = bench.WORKLOADS["chaos_2k_timed"]
        fixture = bench.build_fixture(workload.fixture)
        service = bench.make_service(
            workload, bench.make_simulator(workload, fixture)
        )

        def serve(sql):
            outcomes = []
            for at in range(0, len(sql), workload.clients):
                burst = bench.parse_stream(sql[at:at + workload.clients])
                for query in burst:
                    service.submit(
                        query, bench.DELTA_REQ,
                        deadline_ms=workload.deadline_ms,
                    )
                while not service.idle:
                    outcomes.extend(service.tick())
            return sorted(outcomes, key=lambda o: o.ticket.query_id)

        warm_up, measured = bench.query_stream(workload, 7)
        serve(warm_up)
        outcomes = serve(measured)
        assert len(outcomes) == 192
        assert {outcome.status for outcome in outcomes} == {"done"}
        assert sum(outcome.chunks for outcome in outcomes) == 384
        traces = [service.trace(outcome.ticket) for outcome in outcomes]
        digests = "".join(trace.digest() for trace in traces)
        assert hashlib.sha256(digests.encode()).hexdigest() == (
            CHAOS_STREAM_DIGEST
        )
        kept = []
        for trace in traces:
            for line in trace.lines:
                event = json.loads(line)
                if event["kind"] not in ("phase", "estimate"):
                    del event["seq"]
                    kept.append(json.dumps(event, sort_keys=True))
        assert len(kept) == 24_462
        assert hashlib.sha256("\n".join(kept).encode()).hexdigest() == (
            CHAOS_STREAM_EVENTS_DIGEST
        )
        kinds = Counter(
            event.kind for trace in traces for event in trace.events
        )
        for kind in ("retry", "substitute", "fault", "late-delivery"):
            assert kinds[kind] > 0, kind
        assert sum(
            trace.registry.snapshot()["counters"].get(
                "probe.failures.timeout", 0
            )
            for trace in traces
        ) > 0
        service.close()


class TestDeterminism:
    def test_two_phase_digest_is_reproducible(self):
        first, _ = _run_two_phase()
        second, _ = _run_two_phase()
        assert first.digest() == second.digest()
        assert first.lines == second.lines

    def test_fault_injected_digest_is_reproducible(self):
        first, _ = _run_two_phase(FAULT_PLAN)
        second, _ = _run_two_phase(FAULT_PLAN)
        assert first.digest() == second.digest()

    def test_timed_digest_is_reproducible(self):
        first, first_result = _run_two_phase_timed()
        second, second_result = _run_two_phase_timed()
        assert first.digest() == second.digest()
        assert first.lines == second.lines
        assert first_result.timing == second_result.timing


class TestSensitivity:
    def test_one_line_estimator_change_flips_digest(self, monkeypatch):
        """A deliberate one-line estimator tweak must flip the digest.

        This is the guarantee the goldens exist to give: behaviour
        changes in the engine arithmetic are *visible*, not silently
        absorbed.
        """
        baseline, _ = _run_two_phase()

        real_make_estimator = two_phase_module.make_estimator

        def biased_make_estimator(name, num_peers=0):
            point, variance = real_make_estimator(name, num_peers)
            return (lambda observations: point(observations) * 1.001,
                    variance)

        monkeypatch.setattr(
            two_phase_module, "make_estimator", biased_make_estimator
        )
        biased, _ = _run_two_phase()
        assert biased.digest() != baseline.digest()
