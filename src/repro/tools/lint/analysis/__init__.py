"""Whole-program analysis layer behind reprolint's RL006–RL009.

The per-file rules (RL001–RL004) read one AST at a time; the
determinism and shared-state invariants need to see the whole program:
a helper that reads the wall clock taints every caller, a trace
emission charged "by the caller" is only sound if every caller really
charges.  This package supplies that view in three pieces:

* :mod:`~repro.tools.lint.analysis.summary` — a JSON-serializable
  :class:`ModuleSummary` distilled from each module's AST: imports
  (alias-resolved), function/call/seed/emission/charge records, class
  snapshot info, module-level state;
* :mod:`~repro.tools.lint.analysis.project` — the cross-module
  indices built from summaries: symbol tables, the import graph, and
  the conservative call graph the taint/requirement fixed points run
  over;
* :mod:`~repro.tools.lint.analysis.cache` — a content-hash-keyed
  per-file cache of summaries, bound suppressions, and per-module rule
  findings, so re-linting an unchanged tree never re-parses it.

Summaries are pure data: the analysis rules never touch an AST, which
is what makes the cache's fast path sound — a cache hit replays the
exact inputs the rules would have extracted.
"""

from __future__ import annotations

from .cache import CACHE_VERSION, AnalysisCache, CacheEntry, content_digest
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
    "AnalysisCache",
    "CACHE_VERSION",
    "CacheEntry",
    "CallSite",
    "ClassSummary",
    "FunctionKey",
    "FunctionSummary",
    "ModuleSummary",
    "ProjectAnalysis",
    "SeedSite",
    "content_digest",
    "extract_summary",
    "module_name_for",
]
