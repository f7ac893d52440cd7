"""Whole-program analysis layer behind reprolint's RL006–RL008.

The per-file rules (RL001–RL004) read one AST at a time; the
determinism and shared-state invariants need to see the whole program:
a helper that reads the wall clock taints every caller, a mutable
module-level dict matters only if the serving layer can reach it.
This package supplies that view in two pieces:

* :mod:`~repro.tools.lint.analysis.summary` — a :class:`ModuleSummary`
  distilled from each module's AST: imports (alias-resolved),
  function/call/seed records, class snapshot info, module-level state;
* :mod:`~repro.tools.lint.analysis.project` — the cross-module
  indices built from summaries: symbol tables, the import graph, and
  the conservative call graph the taint fixed point runs over.

Summaries are pure data: the analysis rules never touch an AST.
"""

from __future__ import annotations

from .project import FunctionKey, ProjectAnalysis
from .summary import (
    CallSite,
    ClassSummary,
    FunctionSummary,
    ModuleSummary,
    SeedSite,
    extract_summary,
    module_name_for,
)

__all__ = [
    "CallSite",
    "ClassSummary",
    "FunctionKey",
    "FunctionSummary",
    "ModuleSummary",
    "ProjectAnalysis",
    "SeedSite",
    "extract_summary",
    "module_name_for",
]
