"""Self-tests for the reprolint static-analysis pass.

The fixture corpus under ``tests/fixtures/reprolint`` mirrors the real
source layout (``src/``, ``core/``, ``network/protocol.py``, ...):
the ``good/`` tree must lint clean, the ``bad/`` tree must trip every
rule.  The corpus is excluded from normal directory walks, so these
tests opt back in by naming it explicitly.
"""

import json

import pytest

from pathlib import Path

from repro.tools.lint import (
    ALL_RULES,
    LintEngine,
    TOOL_ERROR_CODE,
    collect_files,
)
from repro.tools.lint.cli import main as lint_main

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "reprolint"
GOOD = FIXTURES / "good"
BAD = FIXTURES / "bad"
REPO_ROOT = Path(__file__).resolve().parents[1]

RULE_CODES = tuple(rule.code for rule in ALL_RULES)


def run_lint(*paths, **engine_kwargs):
    return LintEngine(**engine_kwargs).run([str(path) for path in paths])


def codes_by_file(report):
    mapping = {}
    for diagnostic in report.diagnostics:
        name = Path(diagnostic.path).as_posix()
        key = name[name.index("reprolint/") + len("reprolint/"):]
        mapping.setdefault(key, []).append(diagnostic.code)
    return mapping


# ----------------------------------------------------------------------
# corpus-level guarantees


def test_good_tree_is_clean():
    report = run_lint(GOOD)
    assert report.diagnostics == []
    assert report.files_checked > 0
    assert report.exit_code == 0


def test_bad_tree_is_dirty():
    report = run_lint(BAD)
    assert report.exit_code == 1
    assert len(report.diagnostics) >= len(RULE_CODES)


@pytest.mark.parametrize("code", RULE_CODES)
def test_every_rule_has_failing_and_passing_fixture(code):
    bad_codes = {d.code for d in run_lint(BAD).diagnostics}
    good_codes = {d.code for d in run_lint(GOOD).diagnostics}
    assert code in bad_codes
    assert code not in good_codes


def test_diagnostics_are_sorted_and_renderable():
    report = run_lint(BAD)
    keys = [d.sort_key() for d in report.diagnostics]
    assert keys == sorted(keys)
    for diagnostic in report.diagnostics:
        rendered = diagnostic.render()
        assert f":{diagnostic.line}:" in rendered
        assert diagnostic.code in rendered


# ----------------------------------------------------------------------
# per-rule expectations


def test_rl001_findings():
    mapping = codes_by_file(run_lint(BAD))
    codes = mapping["bad/src/rl001.py"]
    assert codes.count("RL001") >= 4  # import, legacy calls, argless, unseedable


def test_rl002_findings():
    mapping = codes_by_file(run_lint(BAD))
    assert mapping["bad/core/rl002.py"].count("RL002") == 3


def test_rl002_flags_every_ledgerless_batch_visit(tmp_path):
    """Each batch entry point (and the per-probe one) charges a ledger:
    a call without one is flagged in algorithm code."""
    module = tmp_path / "core" / "visits.py"
    module.parent.mkdir()
    calls = [
        "simulator.visit_aggregate_batch(peers, query, sink)",
        "simulator.visit_values_batch(peers, query, sink)",
        "simulator.visit_batch(peers, visits)",
        "simulator.probe_visit(peer, visits)",
    ]
    module.write_text(
        "def visit(simulator, peers, peer, query, sink, visits):\n"
        + "".join(f"    {call}\n" for call in calls)
        + "    simulator.visit_batch(peers, visits, ledger=None)\n"
    )
    flagged = [
        diagnostic.message.split("'")[1]
        for diagnostic in run_lint(module).diagnostics
        if diagnostic.code == "RL002"
    ]
    assert flagged == [call.split(".")[1].split("(")[0] for call in calls]


def test_rl002_obs_findings():
    """obs/ gets the inverted checks: no visits, no ledger writes."""
    mapping = codes_by_file(run_lint(BAD))
    assert mapping["bad/obs/rl002_obs.py"].count("RL002") == 2


def test_rl003_declaration_and_mutation_findings():
    mapping = codes_by_file(run_lint(BAD))
    assert mapping["bad/network/protocol.py"].count("RL003") == 2
    assert mapping["bad/rl003_mutation.py"].count("RL003") == 3


def test_rl004_findings():
    mapping = codes_by_file(run_lint(BAD))
    assert mapping["bad/src/rl004.py"].count("RL004") == 4


def test_rl006_direct_findings():
    mapping = codes_by_file(run_lint(BAD))
    # time.time, os.urandom, unseeded default_rng, set-literal iteration
    assert mapping["bad/core/rl006_nondet.py"].count("RL006") == 4


def test_rl006_cross_module_taint():
    report = run_lint(BAD)
    [finding] = [
        d for d in report.diagnostics
        if d.code == "RL006" and "rl006_cross" in d.path
    ]
    # the taint travelled helpers/clock_helper.py -> core/rl006_cross.py;
    # the witness chain must name both the carrier and the original sink
    assert "clock_helper" in finding.message
    assert "time.time" in finding.message


def test_rl007_findings():
    mapping = codes_by_file(run_lint(BAD))
    # module-state rng, class-state rng, literal re-seed inside a method
    assert mapping["bad/network/rl007_rng.py"].count("RL007") == 3
    assert mapping["bad/network/faults.py"].count("RL007") == 1


def test_rl008_findings():
    mapping = codes_by_file(run_lint(BAD))
    # re-thaw + subscript store + unfrozen exposure
    assert mapping["bad/data/rl008_snapshot.py"].count("RL008") == 3
    assert mapping["bad/service/rl008_state.py"].count("RL008") == 1
    # the memo dict lives in helpers/ but is reachable from service/
    assert mapping["bad/helpers/memo.py"].count("RL008") == 1


def test_rl008_fork_surface_findings():
    mapping = codes_by_file(run_lint(BAD))
    # two fork imports (multiprocessing, concurrent.futures) + os.fork
    assert mapping["bad/service/rl008_fork.py"].count("RL008") == 3
    # experiments/ is part of the guarded surface too
    assert mapping["bad/experiments/rl008_fork.py"].count("RL008") == 1
    report = run_lint(BAD / "service" / "rl008_fork.py")
    messages = [d.message for d in report.diagnostics]
    assert any("repro._pool" in m for m in messages)
    assert any("os.fork" in m for m in messages)


# ----------------------------------------------------------------------
# suppression semantics


def test_valid_suppressions_silence_the_named_rule():
    report = run_lint(GOOD / "suppressed.py")
    assert report.diagnostics == []


def test_blanket_and_reasonless_suppressions_are_rejected():
    report = run_lint(BAD / "suppressed.py")
    codes = [d.code for d in report.diagnostics]
    # malformed directives report RL000 *and* fail to suppress RL001
    assert codes.count(TOOL_ERROR_CODE) == 3
    assert codes.count("RL001") == 3


def test_tool_errors_cannot_be_filtered_out():
    report = run_lint(BAD / "suppressed.py", select=["RL004"])
    codes = {d.code for d in report.diagnostics}
    assert codes == {TOOL_ERROR_CODE}


def test_select_and_ignore():
    only_rl004 = run_lint(BAD / "src", select=["RL004"])
    assert {d.code for d in only_rl004.diagnostics} == {"RL004"}
    without_rl004 = run_lint(BAD / "src", ignore=["RL004"])
    assert "RL004" not in {d.code for d in without_rl004.diagnostics}


def test_syntax_errors_surface_as_tool_errors(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n", encoding="utf-8")
    report = run_lint(broken)
    assert [d.code for d in report.diagnostics] == [TOOL_ERROR_CODE]
    assert "syntax error" in report.diagnostics[0].message


def _src_file(tmp_path, name, text):
    source_dir = tmp_path / "src"
    source_dir.mkdir(exist_ok=True)
    target = source_dir / name
    target.write_text(text, encoding="utf-8")
    return target


def test_suppression_covers_multiline_statement(tmp_path):
    # the directive sits on the statement's head line; the finding is
    # anchored on a continuation line and must still be waived
    target = _src_file(
        tmp_path,
        "wrapped.py",
        "def wrapped(fraction):\n"
        "    return (  # reprolint: disable=RL004 -- exact by construction\n"
        "        fraction\n"
        "        == 0.5\n"
        "    )\n",
    )
    report = run_lint(target)
    assert report.diagnostics == []


def test_suppression_covers_decorated_def(tmp_path):
    # comment-line directive above the decorator; the RL001 finding
    # (public function without a seed parameter) is anchored at the
    # ``def`` line below it
    target = _src_file(
        tmp_path,
        "decorated.py",
        "def identity(fn):\n"
        "    return fn\n"
        "\n"
        "\n"
        "# reprolint: disable=RL001 -- seeded by the caller's context\n"
        "@identity\n"
        "def shuffled(rows, context):\n"
        "    return ensure_rng(context.stream).permutation(rows)\n",
    )
    report = run_lint(target)
    assert report.diagnostics == []


def test_suppression_does_not_leak_into_compound_bodies(tmp_path):
    # a directive on an ``if`` head line must not blanket the body;
    # the unmatched directive is itself reported by the audit
    target = _src_file(
        tmp_path,
        "gate.py",
        "def gate(x):\n"
        "    if x > 0:  # reprolint: disable=RL004 -- head line only\n"
        "        return x == 0.5\n"
        "    return False\n",
    )
    report = run_lint(target)
    codes = [d.code for d in report.diagnostics]
    assert codes.count("RL004") == 1
    assert codes.count(TOOL_ERROR_CODE) == 1
    [audit] = [d for d in report.diagnostics if d.code == TOOL_ERROR_CODE]
    assert "unused suppression" in audit.message


def test_unused_suppression_audit_only_runs_on_full_ruleset(tmp_path):
    target = _src_file(
        tmp_path,
        "stale.py",
        "# reprolint: disable=RL001 -- nothing here actually seeds\n"
        "VALUE = 3\n",
    )
    full = run_lint(target)
    assert [d.code for d in full.diagnostics] == [TOOL_ERROR_CODE]
    assert "unused suppression of RL001" in full.diagnostics[0].message
    partial = run_lint(target, select=["RL004"])
    assert partial.diagnostics == []


# ----------------------------------------------------------------------
# file collection


def test_fixture_corpus_is_excluded_from_normal_walks():
    collected = collect_files([str(REPO_ROOT / "tests")])
    assert not any("fixtures/reprolint" in p.as_posix() for p in collected)


def test_explicitly_named_excluded_paths_opt_back_in():
    assert collect_files([str(GOOD)])  # directory opt-in
    target = GOOD / "src" / "rl001.py"
    assert collect_files([str(target)]) == [target]


def test_missing_path_raises():
    with pytest.raises(FileNotFoundError):
        collect_files([str(FIXTURES / "does-not-exist")])


# ----------------------------------------------------------------------
# CLI surface


def test_cli_text_output(capsys):
    status = lint_main([str(BAD / "src" / "rl004.py")])
    out = capsys.readouterr().out
    assert status == 1
    assert "RL004" in out
    assert "finding(s)" in out


def test_cli_json_output(capsys):
    status = lint_main(["--format", "json", str(GOOD)])
    payload = json.loads(capsys.readouterr().out)
    assert status == 0
    assert set(payload) == {
        "version", "files_checked", "findings", "diagnostics"
    }
    assert payload["version"] == 2
    assert payload["findings"] == 0
    assert payload["diagnostics"] == []
    assert payload["files_checked"] > 0


def test_cli_json_output_reports_findings(capsys):
    status = lint_main(["--format", "json", str(BAD / "src" / "rl004.py")])
    payload = json.loads(capsys.readouterr().out)
    assert status == 1
    assert payload["findings"] == len(payload["diagnostics"]) == 4
    entry = payload["diagnostics"][0]
    assert set(entry) == {"path", "line", "column", "code", "message"}


def test_cli_list_rules(capsys):
    status = lint_main(["--list-rules"])
    out = capsys.readouterr().out
    assert status == 0
    for code in RULE_CODES:
        assert code in out


def test_cli_missing_path_exits_2(capsys):
    status = lint_main([str(FIXTURES / "does-not-exist")])
    assert status == 2
    assert "reprolint:" in capsys.readouterr().err


def test_cli_sarif_output(capsys):
    status = lint_main(["--format", "sarif", str(BAD / "src" / "rl004.py")])
    payload = json.loads(capsys.readouterr().out)
    assert status == 1
    assert payload["version"] == "2.1.0"
    [run] = payload["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "reprolint"
    declared = {rule["id"] for rule in driver["rules"]}
    assert TOOL_ERROR_CODE in declared
    assert set(RULE_CODES) <= declared
    results = run["results"]
    assert len(results) == 4
    for result in results:
        assert result["ruleId"] in declared
        assert result["level"] == "error"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1
        assert region["startColumn"] >= 1


@pytest.mark.parametrize(
    "flags",
    [
        ["--select", "RL010"],
        ["--select", "RL001,RL009"],
        ["--ignore", "RL005"],
        ["--ignore", "rl000"],
    ],
)
def test_cli_rejects_codes_no_rule_has(flags, capsys):
    """A code no rule has would filter every finding away and read
    green; it is a usage error instead, and retired codes say so."""
    status = lint_main([*flags, str(BAD / "src" / "rl004.py")])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert "unknown rule code" in captured.err
    assert all(code in captured.err for code in RULE_CODES)
    assert "retired: RL005, RL009" in captured.err


# ----------------------------------------------------------------------
# the real tree must satisfy its own invariants


def test_repository_lints_clean():
    report = run_lint(
        REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "benchmarks"
    )
    assert report.diagnostics == [], "\n".join(
        d.render() for d in report.diagnostics
    )
