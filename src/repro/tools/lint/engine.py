"""File collection, rule dispatch and filtering.

The engine is deliberately dependency-free (stdlib only): it must run
in CI images and pre-commit environments that do not have numpy/scipy
installed, and it must never import the code it analyses.

One run has two tiers:

1. **per-file** — parse, suppression scan, module rules (RL001–RL004)
   and summary extraction;
2. **whole-program** — :class:`~repro.tools.lint.analysis.project.ProjectAnalysis`
   over the summaries, then the analysis rules (RL006–RL008), whose
   verdicts depend on the *set* of files, not any one of them.

After the rules: ``--select``/``--ignore`` filtering, suppression
matching and the unused-suppression audit (full-ruleset runs only —
a narrowed run cannot prove a directive useless).
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path, PurePosixPath
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from .analysis import ModuleSummary, ProjectAnalysis, extract_summary
from .diagnostics import TOOL_ERROR_CODE, Diagnostic
from .rules import (
    ANALYSIS_RULES,
    MODULE_RULES,
    AnalysisRule,
    ModuleInfo,
    Rule,
)
from .suppress import Suppressions, scan_suppressions

__all__ = [
    "EXCLUDED_DIRECTORY_NAMES",
    "EXCLUDED_SUBPATHS",
    "LintReport",
    "collect_files",
    "LintEngine",
]

#: Directory names never descended into when walking input paths.
EXCLUDED_DIRECTORY_NAMES = frozenset(
    {"__pycache__", ".git", ".venv", "venv", "build", "dist", ".mypy_cache"}
)

#: Relative sub-paths skipped during directory walks.  The reprolint
#: self-test corpus intentionally contains violations; explicitly
#: listed files are still linted (tests pass fixtures directly).
EXCLUDED_SUBPATHS = ("tests/fixtures/reprolint",)


@dataclasses.dataclass(frozen=True)
class LintReport:
    """Outcome of one engine run."""

    diagnostics: List[Diagnostic]
    files_checked: int

    @property
    def exit_code(self) -> int:
        """0 when clean, 1 when any diagnostic survived filtering."""
        return 1 if self.diagnostics else 0


def _is_excluded(relative: PurePosixPath, *, names_only: bool = False) -> bool:
    if any(part in EXCLUDED_DIRECTORY_NAMES for part in relative.parts):
        return True
    if names_only:
        return False
    rendered = relative.as_posix()
    return any(
        rendered == subpath or f"/{subpath}/" in f"/{rendered}/"
        for subpath in EXCLUDED_SUBPATHS
    )


def collect_files(paths: Sequence[str]) -> List[Path]:
    """Expand ``paths`` into the python files to lint.

    Directories are walked recursively with the default exclusions.
    Explicitly naming an excluded file or directory opts it back in
    (only the directory-name exclusions still apply underneath), so
    the self-test suite can point the engine at its fixture corpus.
    """
    collected: List[Path] = []
    seen: Set[Path] = set()

    def add(path: Path) -> None:
        if path not in seen:
            seen.add(path)
            collected.append(path)

    for raw in paths:
        path = Path(raw)
        if path.is_file():
            add(path)
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"no such file or directory: {raw}")
        root_excluded = _is_excluded(PurePosixPath(path.as_posix()))
        for candidate in sorted(path.rglob("*.py")):
            relative = PurePosixPath(candidate.as_posix())
            if _is_excluded(relative, names_only=root_excluded):
                continue
            add(candidate)
    return collected


class LintEngine:
    """Runs the rule set over a set of files and filters the findings."""

    def __init__(
        self,
        rules: Optional[Sequence[Union[Rule, AnalysisRule]]] = None,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
    ):
        if rules is None:
            instantiated: List[Union[Rule, AnalysisRule]] = [
                rule() for rule in MODULE_RULES + ANALYSIS_RULES
            ]
        else:
            instantiated = list(rules)
        self._module_rules = [r for r in instantiated if isinstance(r, Rule)]
        self._analysis_rules = [
            r for r in instantiated if isinstance(r, AnalysisRule)
        ]
        self._select = frozenset(select) if select else None
        self._ignore = frozenset(ignore) if ignore else frozenset()

    @property
    def rules(self) -> Sequence[Union[Rule, AnalysisRule]]:
        """The instantiated rule set, module rules first."""
        return tuple(self._module_rules) + tuple(self._analysis_rules)

    def _wanted(self, code: str) -> bool:
        if code == TOOL_ERROR_CODE:
            return True  # tool errors are never filtered
        if code in self._ignore:
            return False
        return self._select is None or code in self._select

    @property
    def _full_ruleset(self) -> bool:
        return self._select is None and not self._ignore

    def run(self, paths: Sequence[str]) -> LintReport:
        """Lint ``paths`` and return the filtered, sorted report."""
        files = collect_files(paths)
        raw: List[Diagnostic] = []
        summaries: List[ModuleSummary] = []
        suppressions: Dict[str, Suppressions] = {}

        for path in files:
            relpath = path.as_posix()
            suppressions[relpath] = self._check_file(
                path, relpath, raw, summaries
            )

        if summaries and self._analysis_rules:
            analysis = ProjectAnalysis(summaries)
            for rule in self._analysis_rules:
                raw.extend(rule.check(analysis))

        kept = [
            diagnostic
            for diagnostic in raw
            if self._wanted(diagnostic.code)
            and not self._suppressed(diagnostic, suppressions)
        ]

        # A directive that waived nothing is dead weight — but only a
        # full-ruleset run can tell (``--select RL004`` never even
        # generates the findings an RL001 directive is there to waive).
        if self._full_ruleset:
            for relpath in sorted(suppressions):
                for directive in suppressions[relpath].unused():
                    kept.append(
                        Diagnostic(
                            relpath, directive.line, directive.column,
                            TOOL_ERROR_CODE,
                            "unused suppression of "
                            f"{', '.join(directive.codes)}: no finding "
                            "matched; delete the stale directive",
                        )
                    )

        kept.sort(key=Diagnostic.sort_key)
        return LintReport(diagnostics=kept, files_checked=len(files))

    # ------------------------------------------------------------------

    def _check_file(
        self,
        path: Path,
        relpath: str,
        raw: List[Diagnostic],
        summaries: List[ModuleSummary],
    ) -> Suppressions:
        """The per-file tier: parse, suppressions, module rules and
        summary.  Findings go to ``raw``, the summary to ``summaries``;
        returns the file's bound suppressions."""
        try:
            source = path.read_bytes().decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raw.append(
                Diagnostic(
                    relpath, 1, 0, TOOL_ERROR_CODE, f"cannot read file: {exc}"
                )
            )
            return Suppressions([])
        file_suppressions, problems = scan_suppressions(relpath, source)
        raw.extend(problems)
        try:
            tree = ast.parse(source, filename=relpath)
        except SyntaxError as exc:
            raw.append(
                Diagnostic(
                    relpath, exc.lineno or 1, (exc.offset or 1) - 1,
                    TOOL_ERROR_CODE, f"syntax error: {exc.msg}",
                )
            )
            return file_suppressions

        file_suppressions.bind(tree)
        module = ModuleInfo(relpath=relpath, source=source, tree=tree)
        for rule in self._module_rules:
            raw.extend(rule.check_module(module))
        summaries.append(extract_summary(relpath, tree))
        return file_suppressions

    @staticmethod
    def _suppressed(
        diagnostic: Diagnostic, suppressions: Dict[str, Suppressions]
    ) -> bool:
        file_suppressions = suppressions.get(diagnostic.path)
        if file_suppressions is None:
            return False
        return file_suppressions.is_suppressed(diagnostic.code, diagnostic.line)
