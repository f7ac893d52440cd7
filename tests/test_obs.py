"""Unit tests for the observability layer (repro.obs).

Covers the metrics registry, the tracer and its context switch, the
canonical JSONL encoding, the event↔ledger cost reconciliation
contract on every instrumented path, and run manifests.
"""

import dataclasses
import gc
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.tracer as tracer_module
from repro.core.batch import BatchEngine
from repro.core.biased import biased_engine_for_query
from repro.core.groupby import GroupByConfig, GroupByEngine
from repro.core.median import MedianConfig, MedianEngine
from repro.data.generator import DatasetConfig, generate_dataset
from repro.data.localdb import LocalDatabase
from repro.core.two_phase import PlanCache, TwoPhaseConfig, TwoPhaseEngine
from repro.errors import ConfigurationError, PeerCrashedError
from repro.experiments.configs import synthetic_bundle
from repro.experiments.runner import run_trials
from repro.network.faults import CrashWindow, FaultPlan, LatencySpike
from repro.network.live import LiveNetwork
from repro.network.simulator import NetworkSimulator
from repro.network.visits import GroupVisits, PanelVisits
from repro.network.walker import (
    RandomWalker,
    ResilientCollector,
    RetryPolicy,
)
from repro.obs.events import (
    EVENT_TYPES,
    ProbeEvent,
    RetryEvent,
    TraceCost,
    WalkEvent,
)
from repro.obs.jsonl import digest_of_lines, event_line, line_cost, read_trace
from repro.obs.manifest import (
    RunManifest,
    canonical_config,
    config_digest,
    git_revision,
    manifest_filename,
    write_manifest,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer, active_tracer, tracing
from repro.query.parser import parse_query
from repro.sampling.baselines import BFSEngine, dfs_engine
from repro.service import QueryService
from repro.sim.event_driven import EventDrivenSimulator
from repro.sim.latency import ConstantLatency, ExponentialLatency, LatencyModel

COUNT_30 = parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30")
SUM_ALL = parse_query("SELECT SUM(A) FROM T")
MEDIAN_ALL = parse_query("SELECT MEDIAN(A) FROM T")


def fields_of(event):
    """``event``'s fields in declaration order: what ``emit`` takes."""
    return [getattr(event, field.name) for field in dataclasses.fields(event)]


#: The fault plan of the serving benchmark's chaos workload.
CHAOS_PLAN = FaultPlan(
    seed=5,
    crashes=tuple(
        CrashWindow(peer_id=peer, start=0, stop=10**9)
        for peer in range(0, 200, 17)
    ),
    reply_loss=0.1,
    latency_spike=LatencySpike(rate=0.05, extra_ms=400.0),
    probe_timeout_ms=250.0,
)


def assert_reconciles(tracer, cost):
    """Trace cost totals must equal the ledger's countable totals."""
    total = tracer.cost_total
    assert total.messages == cost.messages
    assert total.hops == cost.hops
    assert total.visits == cost.peers_visited
    assert total.timeouts == cost.timeouts


# ----------------------------------------------------------------------
# TraceCost


class TestTraceCost:
    def test_addition(self):
        a = TraceCost(messages=2, hops=1)
        b = TraceCost(visits=3, timeouts=1)
        assert a + b == TraceCost(messages=2, hops=1, visits=3, timeouts=1)

    def test_nonzero_drops_zero_fields(self):
        assert TraceCost(messages=2).nonzero() == {"messages": 2}
        assert TraceCost().nonzero() == {}


# ----------------------------------------------------------------------
# MetricsRegistry


class TestRegistry:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(2)
        assert registry.counter("a").value == 3

    def test_counter_rejects_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.counter("a").inc(-1)

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(5)
        registry.gauge("g").set(2)
        assert registry.gauge("g").value == 2

    def test_histogram_buckets_and_totals(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 100.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 3
        assert snapshot["sum"] == 105.5
        assert snapshot["min"] == 0.5
        assert snapshot["max"] == 100
        assert snapshot["buckets"] == {"le_1": 1, "le_10": 1, "le_inf": 1}

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().histogram("h", bounds=(10.0, 1.0))

    def test_cross_type_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")

    def test_snapshot_sorted_and_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        registry.gauge("g").set(1.5)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a", "b"]
        json.dumps(snapshot)  # must serialize cleanly


# ----------------------------------------------------------------------
# Tracer mechanics


class TestTracer:
    def test_sequence_numbers_and_lines(self):
        tracer = Tracer()
        assert tracer.emit(WalkEvent, 1, 3, 0, 0) == 0
        assert tracer.emit(WalkEvent, 2, 4, 0, 0) == 1
        assert tracer.num_events == 2
        records = [json.loads(line) for line in tracer.lines]
        assert [r["seq"] for r in records] == [0, 1]
        assert all(r["kind"] == "walk" for r in records)

    def test_lines_are_canonical(self):
        tracer = Tracer()
        tracer.emit(WalkEvent, 1, 3, 2, 2)
        line = tracer.lines[0]
        record = json.loads(line)
        assert line == json.dumps(
            record, sort_keys=True, separators=(",", ":")
        )
        assert event_line(0, WalkEvent(start=1, hops=3, selected=2,
                                       distinct=2)) == line

    def test_stream_receives_lines(self):
        stream = io.StringIO()
        tracer = Tracer(stream=stream)
        tracer.emit(WalkEvent, 1, 3, 0, 0)
        assert stream.getvalue() == tracer.lines[0] + "\n"

    def test_capture_disabled_streams_only(self):
        stream = io.StringIO()
        tracer = Tracer(stream=stream, capture=False)
        tracer.emit(WalkEvent, 1, 3, 0, 0)
        assert tracer.events == []
        assert tracer.lines == []
        assert tracer.num_events == 1
        assert stream.getvalue().count("\n") == 1

    def test_cost_total_accumulates(self):
        tracer = Tracer()
        tracer.emit(WalkEvent, 1, 3, 0, 0)
        tracer.emit(WalkEvent, 1, 4, 0, 0)
        assert tracer.cost_total == TraceCost(messages=7, hops=7)

    def test_registry_aggregation(self):
        tracer = Tracer()
        tracer.emit(WalkEvent, 1, 3, 0, 0)
        counters = tracer.registry.snapshot()["counters"]
        assert counters["events_total"] == 1
        assert counters["events.walk"] == 1
        assert counters["cost.messages"] == 3
        histogram = tracer.registry.histogram("walk.hops")
        assert histogram.count == 1

    def test_digest_matches_lines(self):
        tracer = Tracer()
        tracer.emit(WalkEvent, 1, 3, 0, 0)
        assert tracer.digest() == digest_of_lines(tracer.lines)

    def test_a_stream_only_digest_covers_what_was_streamed(self):
        """Regression: with ``capture=False`` the digest was sha256 of
        nothing, so any two streamed runs compared equal."""
        stream = io.StringIO()
        captured = Tracer()
        streamed = Tracer(stream=stream, capture=False)
        for tracer in (captured, streamed):
            tracer.emit(WalkEvent, 1, 3, 0, 0)
            tracer.emit(WalkEvent, 2, 4, 0, 0)
        assert streamed.digest() == captured.digest()
        assert streamed.digest() == digest_of_lines(
            stream.getvalue().splitlines()
        )
        assert streamed.digest() != Tracer().digest()


def _sample_fields(kind):
    """A value for every field of ``kind``, in declaration order, none
    of them the field's default."""
    values = []
    for index, field in enumerate(dataclasses.fields(kind), start=1):
        default = field.default
        if isinstance(default, bool):
            values.append(not default)
        elif isinstance(default, TraceCost):
            values.append(TraceCost(1, 2, 3, 4))
        elif isinstance(default, (int, float)):
            values.append(default + index)
        elif isinstance(default, str):
            values.append(f"{field.name}-{index}")
        else:  # an optional field, None by default
            values.append(index / 4)
    return values


class TestEmitForm:
    """``emit(kind, *fields)`` is the one way to record an event; what
    a read builds from it is exactly ``kind(*fields)``."""

    @pytest.mark.parametrize("kind", EVENT_TYPES, ids=lambda kind: kind.kind)
    def test_round_trip(self, kind):
        fields = _sample_fields(kind)
        built = kind(*fields)
        assert built != kind()
        tracer = Tracer()
        tracer.emit(WalkEvent, 0, 1, 0, 0)
        seq = tracer.emit(kind, *fields)
        assert tracer.events[-1] == built
        assert tracer.lines[-1] == event_line(seq, built)
        assert tracer.cost_total == TraceCost(1, 1) + built.cost()

    @pytest.mark.parametrize("kind", EVENT_TYPES, ids=lambda kind: kind.kind)
    def test_a_wrong_field_count_raises(self, kind):
        fields = _sample_fields(kind)
        tracer = Tracer()
        for wrong in (fields[:-1], [*fields, 0]):
            with pytest.raises(TypeError, match="fields; emit got"):
                tracer.emit(kind, *wrong)
        with pytest.raises(TypeError, match="fields; emit got 0"):
            tracer.emit(kind(*fields))  # the built form is gone
        assert tracer.num_events == 0
        assert tracer.events == [] and tracer.lines == []


def _counted_init(built, init):
    def counting(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    return counting


class TestTraceObjectCounts:
    """A traced run pays for trace objects only when its trace is read
    — pinned by count, on a service configured like the serving
    benchmark's chaos workload (``bench/workloads.py``).  Counts repeat
    exactly; no stopwatch."""

    def test_events_are_built_on_the_first_read_only(
        self, small_topology, small_dataset, monkeypatch
    ):
        built = []
        for kind in EVENT_TYPES:
            monkeypatch.setattr(
                kind, "__init__", _counted_init(built, kind.__init__)
            )
        simulator = EventDrivenSimulator(
            small_topology,
            small_dataset.databases,
            seed=1,
            fault_plan=FaultPlan(
                seed=5,
                crashes=tuple(
                    CrashWindow(peer_id=peer, start=0, stop=10**9)
                    for peer in range(0, small_topology.num_peers, 17)
                ),
                reply_loss=0.1,
                latency_spike=LatencySpike(rate=0.05, extra_ms=400.0),
                probe_timeout_ms=250.0,
            ),
            latency=LatencyModel(
                seed=3,
                request=ExponentialLatency(20.0),
                reply=ExponentialLatency(20.0),
                hop=ConstantLatency(1.0),
            ),
            probe_timeout_ms=250.0,
        )
        service = QueryService(
            simulator,
            TwoPhaseConfig(retry_policy=RetryPolicy(max_attempts=3)),
            seed=99,
            max_in_flight=4,
            capture_traces=True,
        )
        tickets = [
            service.submit(query, 0.1, deadline_ms=60_000.0)
            for query in (COUNT_30, COUNT_30, SUM_ALL, COUNT_30, SUM_ALL)
        ]
        assert {o.status for o in service.run()} == {"done"}
        assert built == []

        counters = {}
        for ticket in tickets:
            trace = service.trace(ticket)
            assert trace.num_events > 0
            events = trace.events
            assert len(built) == trace.num_events == len(events)
            assert trace.lines and trace.digest() and trace.events
            assert len(built) == trace.num_events  # nothing built twice
            del built[:]
            for name, value in trace.registry.snapshot()["counters"].items():
                counters[name] = counters.get(name, 0) + value
        # The stream runs the faulted path the count is about.
        for name in (
            "events.retry", "events.fault", "probe.failures.lost",
            "query.done",
        ):
            assert counters.get(name, 0) > 0, name

    def test_retained_events_are_not_gc_objects(self):
        tracer = Tracer()
        charge = TraceCost(messages=1, visits=1)
        tracer.emit(ProbeEvent, 0, "aggregate", "ok", 1, charge)
        gc.collect()
        before = len(gc.get_objects())
        for peer in range(1, 10_001):
            tracer.emit(ProbeEvent, peer, "aggregate", "ok", 1, charge)
        gc.collect()
        assert len(gc.get_objects()) - before < 10
        assert tracer.num_events == 10_001
        assert tracer.events[-1] == ProbeEvent(
            10_000, "aggregate", "ok", 1, charge
        )


class _Clock:
    """A settable virtual clock for ``time_source``."""

    def __init__(self):
        self.now = 0.0

    def read(self):
        return self.now


_EVENTS = st.one_of(
    st.builds(
        WalkEvent,
        start=st.integers(0, 9),
        hops=st.integers(0, 50),
        selected=st.integers(0, 5),
        distinct=st.integers(0, 5),
    ),
    st.builds(
        ProbeEvent,
        peer=st.integers(0, 9),
        probe_kind=st.just("aggregate"),
        outcome=st.sampled_from(["ok", "lost", "timeout"]),
        replies=st.integers(0, 1),
        charge=st.builds(
            TraceCost,
            messages=st.integers(0, 2),
            hops=st.just(0),
            visits=st.just(1),
            timeouts=st.integers(0, 1),
        ),
    ),
    st.builds(
        RetryEvent,
        peer=st.integers(0, 9),
        attempt=st.integers(1, 3),
        backoff_ms=st.sampled_from([0.0, 50.0, 100.0]),
    ),
)
_OPS = st.one_of(
    st.tuples(st.just("emit"), _EVENTS),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.5, 20.0])),
    st.tuples(
        st.sampled_from(["lines", "digest", "cost_total", "registry"]),
        st.none(),
    ),
)


class TestTracerFoldOnRead:
    """``emit`` is an append; everything derived is folded on read,
    once, and reads exactly what folding per emit would have."""

    @pytest.fixture()
    def encodes(self, monkeypatch):
        """How many times the tracer has called ``event_line``."""
        calls = []

        def counting(seq, event, vt=None):
            calls.append(seq)
            return event_line(seq, event, vt=vt)

        monkeypatch.setattr(tracer_module, "event_line", counting)
        return calls

    def test_nothing_is_encoded_until_read_and_nothing_twice(self, encodes):
        tracer = Tracer()
        for hops in range(25):
            tracer.emit(WalkEvent, 0, hops, 0, 0)
        assert tracer.num_events == 25
        assert len(tracer.events) == 25
        assert encodes == []
        first = tracer.lines
        assert encodes == list(range(25))
        assert tracer.lines == first
        tracer.digest()
        assert tracer.cost_total.hops == sum(range(25))
        tracer.registry.snapshot()
        assert encodes == list(range(25))  # later reads re-encode nothing
        tracer.emit(WalkEvent, 0, 1, 0, 0)
        assert encodes == list(range(25))
        tracer.digest()
        assert encodes == list(range(26))  # only the new event

    @given(ops=st.lists(_OPS, max_size=40), streamed=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_every_read_equals_the_eager_fold(self, ops, streamed):
        """Any interleaving of emits and reads: each read equals an
        oracle that encodes and aggregates at every emit."""
        clock = _Clock()
        stream = io.StringIO() if streamed else None
        tracer = Tracer(stream=stream, time_source=clock.read)
        # The oracle: lines and cost kept here, the registry by a
        # tracer that folds on every emit (it has a stream).
        lines, cost = [], TraceCost()
        eager = Tracer(stream=io.StringIO(), time_source=clock.read)
        for op, argument in ops:
            if op == "emit":
                seq = tracer.emit(type(argument), *fields_of(argument))
                eager.emit(type(argument), *fields_of(argument))
                lines.append(event_line(seq, argument, vt=clock.now))
                cost = cost + argument.cost()
                if streamed:
                    assert stream.getvalue() == "".join(
                        line + "\n" for line in lines
                    )
            elif op == "advance":
                clock.now += argument
            elif op == "lines":
                assert tracer.lines == lines
            elif op == "digest":
                assert tracer.digest() == digest_of_lines(lines)
            elif op == "cost_total":
                assert tracer.cost_total == cost
            else:
                assert (
                    tracer.registry.snapshot()
                    == eager._registry.snapshot()
                )
        assert tracer.lines == lines
        assert tracer.num_events == len(lines)

    def test_streamed_line_is_written_when_emit_returns(self, encodes):
        stream = io.StringIO()
        tracer = Tracer(stream=stream)
        for k in range(5):
            tracer.emit(WalkEvent, k, k, 0, 0)
            written = stream.getvalue().splitlines()
            assert len(written) == k + 1
            assert json.loads(written[k])["seq"] == k
            assert encodes == list(range(k + 1))
        assert tracer.lines == stream.getvalue().splitlines()
        assert encodes == list(range(5))  # the stream's lines are the cache

    def test_capture_disabled_retains_nothing_but_still_aggregates(self):
        stream = io.StringIO()
        tracer = Tracer(stream=stream, capture=False)
        for hops in (3, 4):
            tracer.emit(WalkEvent, 1, hops, 0, 0)
            assert tracer._records == []
            assert tracer._events == [] and tracer._lines == []
        assert tracer.sequenced_events == []
        assert tracer.cost_total == TraceCost(messages=7, hops=7)
        assert tracer.registry.snapshot()["counters"]["events.walk"] == 2
        assert stream.getvalue().count("\n") == 2

    def test_vt_is_the_clock_at_emit_not_at_read(self):
        clock = _Clock()
        tracer = Tracer(time_source=clock.read)
        tracer.emit(WalkEvent, 1, 1, 0, 0)  # clock at zero: no stamp
        clock.now = 5.0
        tracer.emit(WalkEvent, 1, 2, 0, 0)
        clock.now = 9.0
        tracer.emit(WalkEvent, 1, 3, 0, 0)
        clock.now = 100.0
        records = [json.loads(line) for line in tracer.lines]
        assert [record.get("vt") for record in records] == [None, 5.0, 9.0]

    def test_no_external_registry(self):
        """The registry is the tracer's own: a caller-held one would
        go stale between folds."""
        with pytest.raises(TypeError):
            Tracer(registry=MetricsRegistry())


class TestTracingContext:
    def test_disabled_by_default(self):
        assert active_tracer() is None

    def test_scoped_activation(self):
        tracer = Tracer()
        with tracing(tracer) as active:
            assert active is tracer
            assert active_tracer() is tracer
        assert active_tracer() is None

    def test_nesting_restores_outer(self):
        outer, inner = Tracer(), Tracer()
        with tracing(outer):
            with tracing(inner):
                assert active_tracer() is inner
            assert active_tracer() is outer


# ----------------------------------------------------------------------
# JSONL round-trips


class TestJsonl:
    def test_read_trace_roundtrip(self, tmp_path):
        tracer = Tracer()
        tracer.emit(WalkEvent, 1, 3, 0, 0)
        path = tmp_path / "run.jsonl"
        path.write_text("\n".join(tracer.lines) + "\n")
        records = read_trace(path)
        assert len(records) == 1
        assert records[0]["kind"] == "walk"
        assert line_cost(records[0]) == TraceCost(messages=3, hops=3)

    def test_read_trace_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ConfigurationError):
            read_trace(path)

    def test_read_trace_rejects_kindless_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 0}\n')
        with pytest.raises(ConfigurationError):
            read_trace(path)


# ----------------------------------------------------------------------
# Cost reconciliation on every instrumented path


class TestReconciliation:
    def test_scalar_visits(self, small_network):
        tracer = Tracer()
        ledger = small_network.new_ledger()
        with tracing(tracer):
            small_network.visit_aggregate(
                3, COUNT_30, sink=0, ledger=ledger
            )
            small_network.visit_values_batch(
                [4], MEDIAN_ALL, sink=0, ledger=ledger
            )
        assert_reconciles(tracer, ledger.snapshot())
        outcomes = [e.outcome for e in tracer.events if e.kind == "probe"]
        assert outcomes == ["ok"]
        assert [e.kind for e in tracer.events].count("batch-visit") == 1

    def test_multi_aggregate_counts_every_reply(
        self, small_topology, small_dataset
    ):
        """A panel visit sends ``k`` replies: the trace charges ``k``
        messages and one visit per peer."""
        self._check_panel_reconciles(small_topology, small_dataset, 0.0)

    def test_multi_aggregate_counts_every_reply_probe_by_probe(
        self, small_topology, small_dataset
    ):
        self._check_panel_reconciles(small_topology, small_dataset, 0.3)

    @staticmethod
    def _check_panel_reconciles(small_topology, small_dataset, loss):
        network = NetworkSimulator(
            small_topology, small_dataset.databases, seed=7,
            fault_plan=FaultPlan(seed=7, reply_loss=loss) if loss else None,
        )
        tracer = Tracer()
        ledger = network.new_ledger()
        queries = [COUNT_30, parse_query("SELECT SUM(A) FROM T")]
        with tracing(tracer):
            panel = network.visit_batch(
                np.arange(20), PanelVisits(network, queries, 0), ledger
            )
        assert len(panel.samples) == 2
        assert_reconciles(tracer, ledger.snapshot())
        cost = ledger.snapshot()
        assert cost.messages == 2 * len(panel)
        visits = [e for e in tracer.events if e.kind in ("probe", "batch-visit")]
        if loss:
            assert {e.replies for e in visits if e.outcome == "ok"} == {2}
        else:
            (batch,) = visits
            assert (batch.requested, batch.replies) == (20, 40)

    def test_group_visit(self, small_topology):
        dataset = generate_dataset(
            small_topology,
            DatasetConfig(
                num_tuples=5_000, group_column="G", num_groups=4
            ),
            seed=31,
        )
        network = NetworkSimulator(
            small_topology, dataset.databases, seed=31
        )
        tracer = Tracer()
        ledger = network.new_ledger()
        query = parse_query("SELECT COUNT(A) FROM T GROUP BY G")
        with tracing(tracer):
            network.visit_batch([2, 3], GroupVisits(network, query, 0), ledger)
        assert_reconciles(tracer, ledger.snapshot())

    def test_batch_visit_fast_path(self, small_network):
        tracer = Tracer()
        ledger = small_network.new_ledger()
        peers = np.asarray([1, 2, 3, 4, 5])
        with tracing(tracer):
            small_network.visit_aggregate_batch(
                peers, COUNT_30, sink=0, ledger=ledger
            )
        assert_reconciles(tracer, ledger.snapshot())
        kinds = [e.kind for e in tracer.events]
        assert kinds == ["batch-visit"]

    def test_batch_fallback_under_faults(
        self, small_topology, small_dataset
    ):
        simulator = NetworkSimulator(
            small_topology,
            small_dataset.databases,
            seed=7,
            fault_plan=FaultPlan(seed=7, reply_loss=0.3),
        )
        tracer = Tracer()
        ledger = simulator.new_ledger()
        peers = np.arange(20)
        with tracing(tracer):
            simulator.visit_aggregate_batch(
                peers, COUNT_30, sink=0, ledger=ledger
            )
        assert_reconciles(tracer, ledger.snapshot())
        kinds = [e.kind for e in tracer.events]
        assert kinds[0] == "batch-fallback"
        assert kinds.count("probe") == 20

    def test_flood(self, small_network):
        tracer = Tracer()
        ledger = small_network.new_ledger()
        with tracing(tracer):
            reached = small_network.flood(0, 3, ledger)
        assert_reconciles(tracer, ledger.snapshot())
        flood = tracer.events[0]
        assert flood.kind == "flood"
        assert flood.reached == len(reached)

    def test_flood_with_peer_cap(self, small_network):
        tracer = Tracer()
        ledger = small_network.new_ledger()
        with tracing(tracer):
            small_network.flood(0, 5, ledger, max_peers=10)
        assert_reconciles(tracer, ledger.snapshot())

    def test_resilient_collector_with_retries_and_crashes(
        self, small_topology, small_dataset
    ):
        plan = FaultPlan(
            seed=5,
            crashes=(CrashWindow(peer_id=11, start=0, stop=200),),
            latency_spike=LatencySpike(rate=0.3, extra_ms=5000.0),
            probe_timeout_ms=1000.0,
        )
        simulator = NetworkSimulator(
            small_topology, small_dataset.databases, seed=7, fault_plan=plan
        )
        walker = RandomWalker(simulator.topology, seed=3)
        collector = ResilientCollector(
            walker, simulator, RetryPolicy(max_attempts=3)
        )
        tracer = Tracer()
        ledger = simulator.new_ledger()
        with tracing(tracer):
            replies, stats = collector.collect_aggregate(
                0, COUNT_30, 25, ledger, probe_bytes=64
            )
        assert stats.timeouts > 0  # the plan actually bit
        assert_reconciles(tracer, ledger.snapshot())

    def test_two_phase_engine_run(self, small_network):
        engine = TwoPhaseEngine(
            small_network, TwoPhaseConfig(phase_one_peers=30), seed=42
        )
        tracer = Tracer()
        with tracing(tracer):
            result = engine.execute(COUNT_30, 0.1, sink=0)
        assert_reconciles(tracer, result.cost)
        kinds = {e.kind for e in tracer.events}
        assert {"walk", "phase", "estimate"} <= kinds

    def test_median_engine_run(self, small_network):
        engine = MedianEngine(
            small_network, MedianConfig(phase_one_peers=40), seed=9
        )
        tracer = Tracer()
        with tracing(tracer):
            result = engine.execute(MEDIAN_ALL, 0.05, sink=1)
        assert_reconciles(tracer, result.cost)
        estimates = [e for e in tracer.events if e.kind == "estimate"]
        assert len(estimates) == 1
        assert estimates[0].engine == "median"
        assert estimates[0].estimate == result.estimate

    def test_group_by_run(self, small_topology):
        dataset = generate_dataset(
            small_topology,
            DatasetConfig(
                num_tuples=5_000, group_column="G", num_groups=4
            ),
            seed=31,
        )
        network = NetworkSimulator(
            small_topology, dataset.databases, seed=31
        )
        engine = GroupByEngine(
            network, GroupByConfig(phase_one_peers=30), seed=12
        )
        tracer = Tracer()
        with tracing(tracer):
            result = engine.execute(
                parse_query("SELECT COUNT(A) FROM T GROUP BY G"), 0.1, sink=0
            )
        assert_reconciles(tracer, result.cost)

    def test_batch_run(self, small_network):
        engine = BatchEngine(
            small_network, TwoPhaseConfig(phase_one_peers=30), seed=13
        )
        queries = [COUNT_30, parse_query("SELECT SUM(A) FROM T")]
        tracer = Tracer()
        with tracing(tracer):
            results = engine.execute(queries, 0.1, sink=0)
        # every result carries the one shared batch cost
        assert_reconciles(tracer, results[0].cost)

    def test_batch_and_group_by_runs_under_chaos(self, small_topology):
        """Fate per probe for both: a panel's ``k`` replies per probe,
        GROUP BY replies read as their probes land, the panel's lost
        and crashed probes retried and substituted."""
        dataset = generate_dataset(
            small_topology,
            DatasetConfig(num_tuples=5_000, group_column="G", num_groups=4),
            seed=31,
        )
        network = NetworkSimulator(
            small_topology, dataset.databases, seed=31, fault_plan=CHAOS_PLAN,
        )
        queries = [COUNT_30, parse_query("SELECT SUM(A) FROM T")]
        tracer = Tracer()
        with tracing(tracer):
            results = BatchEngine(
                network,
                TwoPhaseConfig(
                    phase_one_peers=30, retry_policy=RetryPolicy(max_attempts=3)
                ),
                seed=13,
            ).execute(queries, 0.1, sink=0)
        assert_reconciles(tracer, results[0].cost)
        kinds = {e.kind for e in tracer.events}
        assert {"retry", "substitute"} <= kinds
        tracer = Tracer()
        with tracing(tracer):
            result = GroupByEngine(
                network, GroupByConfig(phase_one_peers=30), seed=12
            ).execute(
                parse_query("SELECT COUNT(A) FROM T GROUP BY G"), 0.1, sink=0
            )
        assert_reconciles(tracer, result.cost)
        assert "batch-fallback" in {e.kind for e in tracer.events}

    def test_hybrid_cold_then_warm(self, small_network):
        engine = TwoPhaseEngine(
            small_network, TwoPhaseConfig(phase_one_peers=30), seed=14,
            cache=PlanCache(),
        )
        for warm_runs in (0, 1):
            tracer = Tracer()
            with tracing(tracer):
                result = engine.execute(COUNT_30, 0.1, sink=0)
            assert_reconciles(tracer, result.cost)
            assert engine.warm_runs == warm_runs

    def test_biased_engine_run(self, small_network):
        engine = biased_engine_for_query(small_network, COUNT_30, seed=15)
        tracer = Tracer()
        with tracing(tracer):
            result = engine.execute(COUNT_30, sink=0)
        assert_reconciles(tracer, result.cost)

    def test_bfs_engine_run(self, small_network):
        engine = BFSEngine(
            small_network, TwoPhaseConfig(phase_one_peers=30), seed=16
        )
        tracer = Tracer()
        with tracing(tracer):
            result = engine.execute(COUNT_30, 0.1, sink=0)
        assert_reconciles(tracer, result.cost)
        assert {e.kind for e in tracer.events} >= {"flood"}

    def test_dfs_engine_run(self, small_network):
        engine = dfs_engine(
            small_network, TwoPhaseConfig(phase_one_peers=30), seed=17
        )
        tracer = Tracer()
        with tracing(tracer):
            result = engine.execute(COUNT_30, 0.1, sink=0)
        assert_reconciles(tracer, result.cost)


# ----------------------------------------------------------------------
# Retry bracketing (deterministic instance; the property lives in
# test_properties.py)


class TestRetryBracketing:
    def test_retry_sits_between_probes_of_same_peer(
        self, small_topology, small_dataset
    ):
        plan = FaultPlan(
            seed=5,
            latency_spike=LatencySpike(rate=0.4, extra_ms=5000.0),
            probe_timeout_ms=1000.0,
        )
        simulator = NetworkSimulator(
            small_topology, small_dataset.databases, seed=7, fault_plan=plan
        )
        collector = ResilientCollector(
            RandomWalker(simulator.topology, seed=3),
            simulator,
            RetryPolicy(max_attempts=4),
        )
        tracer = Tracer()
        with tracing(tracer):
            collector.collect_aggregate(
                0, COUNT_30, 25, simulator.new_ledger(), probe_bytes=64
            )
        events = [
            e for e in tracer.events if e.kind in ("probe", "retry")
        ]
        retries = [e for e in events if e.kind == "retry"]
        assert retries  # the spike rate guarantees some
        for index, event in enumerate(events):
            if event.kind != "retry":
                continue
            before = events[index - 1]
            after = events[index + 1]
            assert before.kind == "probe" and before.outcome != "ok"
            assert before.peer == event.peer
            assert after.kind == "probe" and after.peer == event.peer


# ----------------------------------------------------------------------
# Disabled tracing changes nothing


class TestBitIdentity:
    def test_traced_and_untraced_runs_agree(self, small_network):
        def run():
            engine = TwoPhaseEngine(
                small_network, TwoPhaseConfig(phase_one_peers=30), seed=42
            )
            return engine.execute(COUNT_30, 0.1, sink=0)

        untraced = run()
        with tracing(Tracer()):
            traced = run()
        assert traced.estimate == untraced.estimate
        assert traced.cost == untraced.cost

    def test_live_network_churn_epoch_event(self, small_topology):
        rng = np.random.default_rng(3)
        databases = [
            LocalDatabase({"A": rng.integers(1, 101, 50)})
            for _ in range(small_topology.num_peers)
        ]
        live = LiveNetwork(small_topology, databases, seed=13)
        tracer = Tracer()
        with tracing(tracer):
            live.snapshot()
            live.snapshot()
        epochs = [e for e in tracer.events if e.kind == "churn-epoch"]
        assert [e.epoch for e in epochs] == [0, 1]
        assert all(e.peers > 0 for e in epochs)


# ----------------------------------------------------------------------
# Manifests


class TestManifest:
    def test_canonical_config_flattens(self):
        config = TwoPhaseConfig(phase_one_peers=30)
        data = canonical_config(config)
        assert isinstance(data, dict)
        assert data["phase_one_peers"] == 30
        assert canonical_config((1, np.int64(2))) == [1, 2]

    def test_config_digest_is_stable_and_sensitive(self):
        a = TwoPhaseConfig(phase_one_peers=30)
        b = TwoPhaseConfig(phase_one_peers=30)
        c = TwoPhaseConfig(phase_one_peers=31)
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(c)

    def test_git_revision_shape(self):
        revision = git_revision()
        assert revision == "unknown" or len(revision) == 40

    def test_manifest_filename(self):
        name = manifest_filename("two-phase", "abcdef0123456789", 9)
        assert name == "run_two-phase_abcdef01_s9.json"

    def test_write_is_deterministic(self, tmp_path):
        manifest = RunManifest(
            engine="two-phase",
            query="SELECT COUNT(A) FROM T",
            delta_req=0.1,
            seed=9,
            trials=2,
            config={"phase_one_peers": 30},
            config_digest="deadbeef",
            git_revision="unknown",
            outcomes=[],
            summary={},
            metrics={},
        )
        first = write_manifest(tmp_path / "a.json", manifest)
        second = write_manifest(tmp_path / "b.json", manifest)
        assert first.read_bytes() == second.read_bytes()
        parsed = json.loads(first.read_text())
        assert parsed == dataclasses.asdict(manifest)

    def test_run_trials_writes_manifest(self, tmp_path):
        bundle = synthetic_bundle(scale=0.02, seed=5)
        outcomes = run_trials(
            bundle,
            COUNT_30,
            0.1,
            trials=2,
            seed=9,
            manifest_path=tmp_path,
        )
        files = list(tmp_path.glob("run_*.json"))
        assert len(files) == 1
        manifest = json.loads(files[0].read_text())
        assert manifest["engine"] == "two-phase"
        assert manifest["seed"] == 9
        assert manifest["trials"] == 2
        assert len(manifest["outcomes"]) == 2
        assert manifest["outcomes"][0]["estimate"] == outcomes[0].estimate
        assert manifest["query"] == COUNT_30.to_sql()
        assert manifest["metrics"] == {}  # tracing was off

    def test_run_trials_manifest_captures_metrics(self, tmp_path):
        bundle = synthetic_bundle(scale=0.02, seed=5)
        tracer = Tracer()
        with tracing(tracer):
            run_trials(
                bundle,
                COUNT_30,
                0.1,
                trials=1,
                seed=9,
                workers=1,
                manifest_path=tmp_path / "run.json",
            )
        manifest = json.loads((tmp_path / "run.json").read_text())
        assert manifest["metrics"]["counters"]["events_total"] > 0

    def test_run_trials_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path))
        bundle = synthetic_bundle(scale=0.02, seed=5)
        run_trials(bundle, COUNT_30, 0.1, trials=1, seed=3)
        assert list(tmp_path.glob("run_*.json"))

    def test_crashed_peer_error_still_reconciles(
        self, small_topology, small_dataset
    ):
        plan = FaultPlan(
            seed=5,
            crashes=(CrashWindow(peer_id=3, start=0, stop=10),),
        )
        simulator = NetworkSimulator(
            small_topology, small_dataset.databases, seed=7, fault_plan=plan
        )
        tracer = Tracer()
        ledger = simulator.new_ledger()
        with tracing(tracer):
            with pytest.raises(PeerCrashedError):
                simulator.visit_aggregate(3, COUNT_30, sink=0, ledger=ledger)
        assert_reconciles(tracer, ledger.snapshot())
        assert tracer.events[-1].outcome == "crashed"
