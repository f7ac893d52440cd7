"""Every two-phase engine runs one stepwise loop, and chunking it
changes nothing.

COUNT/SUM/AVG, MEDIAN, GROUP BY and query panels all run
:meth:`TwoPhaseEngine.run_stepwise`'s phase I → analysis → phase II
loop.  Draining ``run_stepwise(chunk_peers=c)`` must give what
``execute()`` gives — the result, its ledger, every phase and estimate
event, and the position of every stream — whatever the take size, on
a clean network, under a fault plan of 20% reply loss alone, and
under the serving benchmark's chaos plan with retries.

Two things are *meant* to follow the takes: the trace carries one
``walk`` and one ``batch-visit`` (or ``batch-fallback``) event per
take, and the ledger's float latency accumulates per take, so it can
move in the last ulp.  Everything else compares with ``==``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import BatchEngine
from repro.core.groupby import GroupByConfig, GroupByEngine
from repro.core.median import MedianConfig, MedianEngine
from repro.core.two_phase import TwoPhaseConfig, TwoPhaseEngine, drain_steps
from repro.data.generator import DatasetConfig, generate_dataset
from repro.metrics.cost import QueryCost
from repro.network.faults import FaultPlan
from repro.network.simulator import NetworkSimulator
from repro.network.walker import RetryPolicy
from repro.obs.tracer import Tracer, tracing
from repro.query.parser import parse_query

from .test_core_values_pinned import CHAOS_PLAN

PER_TAKE_EVENTS = {"walk", "batch-visit", "batch-fallback"}

#: engine name -> (build(network, seed, retry), query, delta_req)
ENGINES = {
    "two-phase": (
        lambda network, seed, retry: TwoPhaseEngine(
            network,
            TwoPhaseConfig(max_phase_two_peers=60, retry_policy=retry),
            seed=seed,
        ),
        parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30"),
        0.1,
    ),
    "median": (
        lambda network, seed, retry: MedianEngine(
            network,
            MedianConfig(max_phase_two_peers=60, retry_policy=retry),
            seed=seed,
        ),
        parse_query("SELECT MEDIAN(A) FROM T"),
        0.1,
    ),
    "group-by": (
        lambda network, seed, retry: GroupByEngine(
            network, GroupByConfig(max_phase_two_peers=60), seed=seed
        ),
        parse_query("SELECT AVG(A) FROM T GROUP BY G"),
        0.05,
    ),
    "batch": (
        lambda network, seed, retry: BatchEngine(
            network, TwoPhaseConfig(max_phase_two_peers=60), seed=seed
        ),
        [
            parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30"),
            parse_query("SELECT SUM(A) FROM T"),
        ],
        0.1,
    ),
}

#: network name -> (simulator keywords, engines that retry there)
NETWORKS = {
    "clean": ({}, ()),
    "loss": ({"fault_plan": FaultPlan(seed=7, reply_loss=0.2)}, ()),
    "chaos": ({"fault_plan": CHAOS_PLAN}, ("two-phase", "median")),
}


@pytest.fixture(scope="module")
def grouped_databases(small_topology):
    return generate_dataset(
        small_topology,
        DatasetConfig(
            num_tuples=10_000,
            cluster_level=0.25,
            skew=0.2,
            group_column="G",
            num_groups=4,
        ),
        seed=7,
    ).databases


def _run(small_topology, databases, engine_name, network_name, seed, chunk):
    """One traced run; ``chunk`` is ``"execute"`` or a take size."""
    build, query, delta_req = ENGINES[engine_name]
    keywords, retrying = NETWORKS[network_name]
    network = NetworkSimulator(small_topology, databases, seed=7, **keywords)
    retry = RetryPolicy(max_attempts=3) if engine_name in retrying else None
    engine = build(network, seed, retry)
    tracer = Tracer()
    with tracing(tracer):
        if chunk == "execute":
            result = engine.execute(query, delta_req, sink=0)
        else:
            result = drain_steps(
                engine.run_stepwise(query, delta_req, sink=0, chunk_peers=chunk)
            )
    streams = (
        float(engine._rng.random()),
        float(engine._walker._rng.random()),
        float(engine._visit_rng.random()),
        float(network._rng.random()),
        None if network.fault_state is None else network.fault_state.clock,
    )
    return result, tracer, streams


def _fields(result):
    """The result as plain values, its ledger's latency apart."""
    if isinstance(result, list):
        return [_fields(item) for item in result]
    fields = {}
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, QueryCost):
            value = dataclasses.replace(value, latency_ms=0.0)
        fields[field.name] = value
    return fields


def _latencies(result):
    results = result if isinstance(result, list) else [result]
    return [item.cost.latency_ms for item in results]


@pytest.mark.chaos
@pytest.mark.parametrize("chunk", [1, 3, None])
@pytest.mark.parametrize("network_name", sorted(NETWORKS))
@pytest.mark.parametrize("engine_name", sorted(ENGINES))
@given(seed=st.integers(0, 2**16))
@settings(max_examples=4, deadline=None)
def test_chunked_runs_equal_execute(
    small_topology, grouped_databases, engine_name, network_name, chunk, seed
):
    expected, expected_trace, expected_streams = _run(
        small_topology, grouped_databases, engine_name, network_name, seed,
        "execute",
    )
    result, trace, streams = _run(
        small_topology, grouped_databases, engine_name, network_name, seed,
        chunk,
    )
    assert _fields(result) == _fields(expected)
    assert _latencies(result) == pytest.approx(
        _latencies(expected), rel=1e-12
    )
    assert streams == expected_streams
    assert trace.cost_total == expected_trace.cost_total
    assert [
        event for event in trace.events if event.kind not in PER_TAKE_EVENTS
    ] == [
        event
        for event in expected_trace.events
        if event.kind not in PER_TAKE_EVENTS
    ]
    if chunk is None:
        assert _latencies(result) == _latencies(expected)
        assert trace.digest() == expected_trace.digest()


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_every_engine_traces_the_same_phases(
    small_topology, grouped_databases, engine_name
):
    """One phase-event sequence for every engine, named after it; an
    estimate event only where the result is one number."""
    result, trace, _ = _run(
        small_topology, grouped_databases, engine_name, "clean", 3, "execute"
    )
    phases = [
        (event.engine, event.phase, event.status)
        for event in trace.events
        if event.kind == "phase"
    ]
    assert phases == [
        (engine_name, "one", "start"),
        (engine_name, "one", "end"),
        (engine_name, "analysis", "end"),
        (engine_name, "two", "start"),
        (engine_name, "two", "end"),
    ]
    estimates = [event for event in trace.events if event.kind == "estimate"]
    if engine_name in ("two-phase", "median"):
        assert [event.estimate for event in estimates] == [result.estimate]
    else:
        assert estimates == []


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_checkpoints_name_the_engine(
    small_topology, grouped_databases, engine_name
):
    build, query, delta_req = ENGINES[engine_name]
    network = NetworkSimulator(small_topology, grouped_databases, seed=7)
    steps = build(network, 3, None).run_stepwise(
        query, delta_req, sink=0, chunk_peers=16
    )
    checkpoints = []
    while True:
        try:
            checkpoints.append(next(steps))
        except StopIteration:
            break
    assert {checkpoint.engine for checkpoint in checkpoints} == {engine_name}
    assert [checkpoint.phase for checkpoint in checkpoints] == (
        ["one"] * 3 + ["analysis"] + ["two"] * (len(checkpoints) - 4)
    )
