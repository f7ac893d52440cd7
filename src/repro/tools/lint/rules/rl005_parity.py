"""RL005 — batch/scalar parity.

The batch fast paths promise *bit-for-bit* agreement with their
per-peer loops.  That promise only means something while (a) the scalar
counterpart still exists to compare against and (b) the equivalence
suite actually exercises the batch entry point.  This project-wide
rule checks, for every ``*_batch`` function defined under ``src/``:

* a sibling of the same name minus the suffix is defined in the same
  class (for methods) or module (for free functions);
* the suffixed name is referenced from
  ``tests/test_batch_equivalence.py`` (skipped when that suite is not
  part of the lint run, e.g. ``lint src`` alone).

Runs entirely from module summaries (definitions + referenced-name
sets), so a cached file never needs re-parsing to keep parity checked.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, Set, Tuple

from ..diagnostics import Diagnostic
from .base import AnalysisRule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..analysis.project import ProjectAnalysis
    from ..analysis.summary import FunctionSummary

__all__ = [
    "BatchParityRule",
]

_SUFFIX = "_batch"
#: The test module that must exercise every function carrying it.
_PARITY_SUITE = "tests/test_batch_equivalence.py"


class BatchParityRule(AnalysisRule):
    code = "RL005"
    name = "batch-parity"
    description = (
        "every *_batch function needs a scalar counterpart and "
        "coverage in the equivalence suite"
    )

    def check(self, analysis: "ProjectAnalysis") -> Iterator[Diagnostic]:
        # Is the suite part of this run, and which names does it
        # reference?
        suite_in_run = False
        covered: Set[str] = set()
        for relpath, module in analysis.modules.items():
            if relpath.endswith(_PARITY_SUITE):
                suite_in_run = True
                covered |= set(module.referenced_names)

        for relpath in sorted(analysis.modules):
            module = analysis.module(relpath)
            if not module.in_directory("src"):
                continue
            definitions: Dict[Tuple[str, str], "FunctionSummary"] = {}
            for function in module.functions:
                if function.name.startswith("<"):
                    continue  # <module> / <class> pseudo-functions
                definitions.setdefault(
                    (function.scope, function.name), function
                )
            for (scope, name), function in sorted(
                definitions.items(), key=lambda item: item[1].lineno
            ):
                if not name.endswith(_SUFFIX):
                    continue
                scalar = name[: -len(_SUFFIX)]
                if not scalar or (scope, scalar) not in definitions:
                    where = f"class '{scope}'" if scope else "this module"
                    yield self.finding(
                        relpath, function.lineno, function.col,
                        f"batch function '{name}' has no scalar "
                        f"counterpart '{scalar}' in {where}; the "
                        "bit-identical contract has nothing to compare "
                        "against",
                    )
                if suite_in_run and name not in covered:
                    yield self.finding(
                        relpath, function.lineno, function.col,
                        f"batch function '{name}' is not exercised by "
                        f"{_PARITY_SUITE}",
                    )
