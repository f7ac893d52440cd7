"""The harness's own checks.  Run with ``python -m pytest bench/tests -q``
(not part of the repo's tier-1 suite)."""

import json
import re
import statistics

import pytest

from bench import ROOT
from bench.spans import SpanRecorder, install, uninstall
from bench.stats import compare_metric, percentile, quartiles, summarize, worse_by
from bench.workloads import PANEL_SQL, WORKLOADS, query_stream

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- order statistics -------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 2.5
    assert percentile(values, 100) == 4.0
    assert percentile(list(range(101)), 90) == 90.0
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_quartiles_match_the_statistics_module():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert quartiles(values) == (1.5, 3.0, 4.5)
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)
    summary = summarize(values)
    assert (summary["median"], summary["n"]) == (3.0, 5)
    assert summary["values"] == values


def test_worse_by_respects_direction():
    assert worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert worse_by(0.0, 0.0, "lower") == 0.0


def test_compare_verdicts():
    steady = summarize([10.0, 10.1, 10.2, 10.1, 10.0])
    slower = summarize([12.0, 12.1, 12.2, 12.1, 12.0])
    noisy = summarize([8.0, 10.0, 12.0, 9.0, 11.0])
    rule = {"better": "lower", "bound": 0.10}
    assert compare_metric(steady, steady, **rule) == "unchanged"
    assert compare_metric(steady, slower, **rule) == "regressed"
    assert compare_metric(slower, steady, **rule) == "improved"
    # Spread wider than the bound: a bound-sized change cannot be seen.
    assert compare_metric(noisy, steady, **rule) == "unresolved"
    # ... unless every new run beats every base run.
    fast = summarize([5.0, 5.1, 5.2, 5.1, 5.0])
    assert compare_metric(noisy, fast, **rule) == "improved"
    # Direction flips for higher-is-better metrics.
    assert compare_metric(slower, steady, better="higher", bound=0.10) == "regressed"


# -- spans ------------------------------------------------------------------


class FakeClock:
    """Returns scripted instants, one per call."""

    def __init__(self, instants):
        self._instants = iter(instants)

    def __call__(self):
        return next(self._instants)


def test_self_time_is_duration_minus_children():
    # outer [0, 10] contains inner [2, 5] and inner [6, 7]; the second
    # inner contains leaf [6.2, 6.7].
    clock = FakeClock([0.0, 2.0, 5.0, 6.0, 6.2, 6.7, 7.0, 10.0])
    recorder = SpanRecorder(clock=clock)
    leaf = recorder.wrap("leaf", lambda: None)
    calls = iter([lambda: None, leaf])
    inner = recorder.wrap("inner", lambda: next(calls)())
    outer = recorder.wrap("outer", lambda: (inner(), inner()))
    outer()
    assert [span.name for span in recorder.spans] == [
        "outer", "inner", "inner", "leaf",
    ]
    assert [span.parent for span in recorder.spans] == [-1, 0, 0, 2]
    assert recorder.self_times() == pytest.approx([6.0, 3.0, 0.5, 0.5])
    totals = recorder.totals()
    assert totals["inner"].calls == 2
    assert totals["inner"].total_s == pytest.approx(4.0)
    assert totals["inner"].self_s == pytest.approx(3.5)
    # Self times partition the root's duration.
    assert sum(layer.self_s for layer in totals.values()) == pytest.approx(10.0)


def test_span_records_failure_counts_and_inherited_query_id():
    recorder = SpanRecorder(clock=FakeClock(range(100)))

    def boom():
        raise KeyError("x")

    def tag(span, args, kwargs, result):
        span.query_id = 7
        span.counts = {"peers": 3.0}

    failing = recorder.wrap("child", boom)

    def parent():
        with pytest.raises(KeyError):
            failing()

    recorder.wrap("parent", parent, tag)()
    child = recorder.spans[1]
    assert child.failed and child.end > child.start
    assert recorder.query_ids() == [7, 7]
    assert recorder.totals()["parent"].counts == {"peers": 3.0}
    assert recorder.totals()["child"].failed == 1


def test_install_and_uninstall_restore_every_attribute():
    import repro.service.backend as backend
    import repro.service.scheduler as scheduler
    from repro.network.simulator import NetworkSimulator
    from repro.service.service import QueryService

    originals = {
        "alias": backend.advance_task,
        "definition": scheduler.advance_task,
        "build_task": backend.build_task,
        "submit": QueryService.__dict__["submit"],
        "session": NetworkSimulator.__dict__["session"],
    }
    assert originals["alias"] is originals["definition"]
    patches = install(SpanRecorder())
    try:
        # The ``from .scheduler import advance_task`` alias in
        # service.backend is what drive_task actually calls.
        assert backend.advance_task is not originals["alias"]
        assert backend.advance_task is scheduler.advance_task
        assert backend.build_task is not originals["build_task"]
        assert QueryService.__dict__["submit"] is not originals["submit"]
        assert QueryService.submit.__wrapped__ is originals["submit"]
    finally:
        uninstall(patches)
    assert backend.advance_task is originals["alias"]
    assert scheduler.advance_task is originals["definition"]
    assert backend.build_task is originals["build_task"]
    assert QueryService.__dict__["submit"] is originals["submit"]
    assert NetworkSimulator.__dict__["session"] is originals["session"]


# -- workloads --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_query_stream_is_a_pure_function_of_the_seed(name):
    workload = WORKLOADS[name]
    assert query_stream(workload, 1) == query_stream(workload, 1)
    warm_a, stream_a = query_stream(workload, 1)
    warm_b, stream_b = query_stream(workload, 2)
    assert len(stream_a) == len(stream_b) == workload.queries_per_round
    panel = set(PANEL_SQL)
    adhoc_a = [sql for sql in stream_a if sql not in panel]
    adhoc_b = [sql for sql in stream_b if sql not in panel]
    assert adhoc_a != adhoc_b
    # Ad-hoc queries are one-off: never repeated, never a panel query.
    assert len(set(adhoc_a)) == len(adhoc_a)
    assert len(adhoc_a) == workload.queries_per_round // workload.adhoc_every
    # The panel share is the same under every seed, position by position.
    assert [
        (index, sql) for index, sql in enumerate(stream_a) if sql in panel
    ] == [
        (index, sql) for index, sql in enumerate(stream_b) if sql in panel
    ]
    if workload.adhoc_every > 1:
        assert warm_a == warm_b == list(PANEL_SQL)


def test_quick_scale_shrinks_the_stream():
    workload = WORKLOADS["dash_2k_inline"]
    _, stream = query_stream(workload, 1, scale=0.1)
    assert len(stream) == 40


# -- BENCHMARK.json ---------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_names_are_well_formed_and_unique():
    assert sorted(SPEC) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds",
        "workloads",
    ]
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[key]
    ]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert [entry["name"] for entry in SPEC["workloads"]] == list(WORKLOADS)
    assert {entry["why"] for entry in SPEC["workloads"]} == {
        workload.why for workload in WORKLOADS.values()
    }
    assert any(
        metric == {"name": "setup_s", "unit": "s", "better": "lower",
                   "bound": metric["bound"]}
        for metric in SPEC["end_to_end"]
    )
    assert all(0 < metric["bound"] <= 0.25 for metric in SPEC["end_to_end"])


def test_a_smoke_run_reports_exactly_the_declared_metrics():
    from bench.measure import run_workload
    from bench.run import end_to_end_of

    record = run_workload(
        "dash_2k_inline", 1, rounds=1, trace=True, scale=0.05
    )
    assert record["violations"] == []
    assert sorted(end_to_end_of(record)) == sorted(
        metric["name"] for metric in SPEC["end_to_end"]
    )
    assert sorted(record["layers"]) == sorted(
        metric["name"] for metric in SPEC["per_layer"]
    )
    # Clean workloads never touch the fault, event-kernel or scalar paths.
    for name in (
        "network.visit_scalar_calls_per_query",
        "sim.events_per_query",
        "faults.retries_per_query",
    ):
        assert record["layers"][name] == 0.0


def test_a_sharded_run_leaves_no_process_behind():
    from bench.measure import _child_pids, run_workload

    before = _child_pids()
    record = run_workload("adhoc_2k_forked2", 1, rounds=1, scale=0.05)
    assert record["violations"] == []
    # Workers are reaped by the service; the shared-memory resource
    # tracker only by ``run_workload`` itself.
    assert _child_pids() == before


def test_readme_glossary_covers_every_metric_and_workload():
    readme = (ROOT / "bench" / "README.md").read_text()
    for key in ("workloads", "end_to_end", "per_layer"):
        for entry in SPEC[key]:
            assert f"`{entry['name']}`" in readme, entry["name"]
