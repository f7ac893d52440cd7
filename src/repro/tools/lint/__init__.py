"""reprolint — whole-program invariant linter for the sampling engine.

The paper's accuracy and cost claims rest on mechanical conventions:
all randomness flows through seeded numpy ``Generator`` streams, every
peer visit and message is charged to a ``CostLedger``, and protocol
messages are immutable value objects.  reprolint encodes those
conventions (plus float-equality hygiene, nondeterminism taint, RNG
stream discipline and snapshot immutability) as static rules so they
are enforced, not remembered.

RL001–RL004 examine one module's AST at a time; RL006–RL008 run over a
whole-program view (symbol table, import graph, call graph) built from
per-module summaries.

Usage::

    PYTHONPATH=src python -m repro.tools.lint src tests benchmarks
    PYTHONPATH=src python -m repro.tools.lint --format sarif src
    PYTHONPATH=src python -m repro.tools.lint --list-rules

Suppression (explicit codes and a reason are mandatory; directives
that waive nothing are themselves findings)::

    value = compute()  # reprolint: disable=RL004 -- exact by construction

See ``docs/static-analysis.md`` for the full rule catalogue.
"""

from .diagnostics import TOOL_ERROR_CODE, Diagnostic
from .engine import LintEngine, LintReport, collect_files
from .rules import ALL_RULES, ANALYSIS_RULES, MODULE_RULES

__all__ = [
    "ALL_RULES",
    "ANALYSIS_RULES",
    "Diagnostic",
    "LintEngine",
    "LintReport",
    "MODULE_RULES",
    "TOOL_ERROR_CODE",
    "collect_files",
]
