"""Tests for the ``python -m repro.tools.trace`` CLI.

The headline acceptance test is in ``TestSummarize``: the cost totals
the CLI reports for a traced engine run must reconcile *exactly* with
that run's :class:`~repro.metrics.cost.CostLedger`.
"""

import json
import subprocess
import sys

import pytest

from repro.core.two_phase import TwoPhaseConfig, TwoPhaseEngine
from repro.obs.events import (
    EVENT_TYPES,
    ProbeEvent,
    RetryEvent,
    TraceCost,
    WalkEvent,
)
from repro.obs.tracer import Tracer, tracing
from repro.query.parser import parse_query
from repro.tools.trace import main as trace_main

COUNT_30 = parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30")


@pytest.fixture(scope="module")
def traced_run(small_network, tmp_path_factory):
    """One canonical traced run: (trace path, QueryResult)."""
    engine = TwoPhaseEngine(
        small_network, TwoPhaseConfig(phase_one_peers=30), seed=42
    )
    tracer = Tracer()
    with tracing(tracer):
        result = engine.execute(COUNT_30, 0.1, sink=0)
    path = tmp_path_factory.mktemp("trace") / "run.jsonl"
    path.write_text("\n".join(tracer.lines) + "\n")
    return path, result


class TestSummarize:
    def test_totals_reconcile_with_ledger(self, traced_run, capsys):
        """Acceptance criterion: CLI totals == the run's CostLedger."""
        path, result = traced_run
        assert trace_main(["summarize", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["cost"]["messages"] == result.cost.messages
        assert summary["cost"]["hops"] == result.cost.hops
        assert summary["cost"]["visits"] == result.cost.peers_visited
        assert summary["cost"]["timeouts"] == result.cost.timeouts

    def test_text_rendering(self, traced_run, capsys):
        path, result = traced_run
        assert trace_main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cost totals (reconcile with the run's CostLedger):" in out
        assert f"  messages: {result.cost.messages}" in out
        assert "  walk:" in out
        assert "  estimate: 1" in out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert trace_main(["summarize", str(tmp_path / "nope.jsonl")]) == 2
        assert "trace: error:" in capsys.readouterr().err

    def test_malformed_trace_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        assert trace_main(["summarize", str(bad)]) == 2
        assert "trace: error:" in capsys.readouterr().err


class TestDiff:
    def test_identical_traces_exit_0(self, traced_run, capsys):
        path, _ = traced_run
        assert trace_main(["diff", str(path), str(path)]) == 0
        assert "identical:" in capsys.readouterr().out

    def test_divergent_traces_exit_1(self, traced_run, tmp_path, capsys):
        path, _ = traced_run
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        record["hops"] = record.get("hops", 0) + 1
        lines[0] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        other = tmp_path / "tweaked.jsonl"
        other.write_text("\n".join(lines) + "\n")
        assert trace_main(["diff", str(path), str(other)]) == 1
        out = capsys.readouterr().out
        assert "first divergence at event 0:" in out
        assert out.count("- {") == 1 and out.count("+ {") == 1

    def test_prefix_truncation_exits_1(self, traced_run, tmp_path, capsys):
        path, _ = traced_run
        lines = path.read_text().splitlines()
        shorter = tmp_path / "short.jsonl"
        shorter.write_text("\n".join(lines[:-2]) + "\n")
        assert trace_main(["diff", str(path), str(shorter)]) == 1
        out = capsys.readouterr().out
        assert f"agree on the first {len(lines) - 2} event(s)" in out
        assert "2 extra event(s)" in out

    def test_whitespace_differences_do_not_diverge(
        self, traced_run, tmp_path, capsys
    ):
        # diff compares canonical re-serializations, not raw bytes
        path, _ = traced_run
        pretty = tmp_path / "pretty.jsonl"
        pretty.write_text(
            "\n".join(
                json.dumps(json.loads(line), sort_keys=True)
                for line in path.read_text().splitlines()
            )
            + "\n"
        )
        assert trace_main(["diff", str(path), str(pretty)]) == 0
        capsys.readouterr()


class TestFilter:
    def test_filter_by_kind(self, traced_run, capsys):
        path, _ = traced_run
        assert trace_main(["filter", str(path), "--kind", "walk"]) == 0
        records = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        assert records
        assert all(r["kind"] == "walk" for r in records)

    def test_filter_by_kind_list_and_peer(self, tmp_path, capsys):
        tracer = Tracer()
        tracer.emit(ProbeEvent, 3, "aggregate", "ok", 0, TraceCost())
        tracer.emit(RetryEvent, 3, 1, 50.0)
        tracer.emit(ProbeEvent, 4, "aggregate", "ok", 0, TraceCost())
        tracer.emit(WalkEvent, 3, 10, 0, 0)
        path = tmp_path / "mixed.jsonl"
        path.write_text("\n".join(tracer.lines) + "\n")
        assert (
            trace_main(
                ["filter", str(path), "--kind", "probe,retry",
                 "--peer", "3"]
            )
            == 0
        )
        records = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        assert [r["kind"] for r in records] == ["probe", "retry"]
        assert all(r["peer"] == 3 for r in records)

    def test_filter_everything_away_is_empty(self, traced_run, capsys):
        path, _ = traced_run
        assert trace_main(["filter", str(path), "--kind", "flood"]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("kinds", ["prob", ",", "probe,no-such", ""])
    def test_kinds_no_event_has_exit_2(self, traced_run, capsys, kinds):
        """Regression: an unknown or empty kind list printed nothing and
        exited 0, as if the trace held no such event."""
        path, _ = traced_run
        with pytest.raises(SystemExit) as excinfo:
            trace_main(["filter", str(path), "--kind", kinds])
        assert excinfo.value.code == 2
        error = capsys.readouterr().err
        for event in EVENT_TYPES:
            assert event.kind in error


class TestEntryPoint:
    def test_module_is_executable(self, traced_run):
        path, _ = traced_run
        completed = subprocess.run(
            [sys.executable, "-m", "repro.tools.trace", "summarize",
             str(path)],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0
        assert "cost totals" in completed.stdout

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            trace_main([])
        assert excinfo.value.code == 2
        capsys.readouterr()
