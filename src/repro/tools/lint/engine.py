"""File collection, caching, rule dispatch and filtering.

The engine is deliberately dependency-free (stdlib only): it must run
in CI images and pre-commit environments that do not have numpy/scipy
installed, and it must never import the code it analyses.

One run has two tiers:

1. **per-file** — parse, suppression scan, module rules (RL001–RL004)
   and summary extraction.  Everything in this tier is a pure function
   of the file's bytes, so it lives in the content-hash
   :class:`~repro.tools.lint.analysis.cache.AnalysisCache`: an
   unchanged file is never even re-parsed on a warm run;
2. **whole-program** — :class:`~repro.tools.lint.analysis.project.ProjectAnalysis`
   over the summaries, then the analysis rules (RL006–RL009).  This
   tier re-runs every time (it is cheap dict-building) because its
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

from .analysis import (
    AnalysisCache,
    CACHE_VERSION,
    CacheEntry,
    ModuleSummary,
    ProjectAnalysis,
    content_digest,
    extract_summary,
)
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
    "load_module",
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
    #: Files served from the analysis cache (0 on cold / cacheless runs).
    cache_hits: int = 0

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


def load_module(path: Path) -> "tuple[Optional[ModuleInfo], Optional[Diagnostic]]":
    """Parse ``path``; returns ``(module, None)`` or ``(None, error)``."""
    relpath = path.as_posix()
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return None, Diagnostic(
            relpath, 1, 0, TOOL_ERROR_CODE, f"cannot read file: {exc}"
        )
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        return None, Diagnostic(
            relpath, exc.lineno or 1, (exc.offset or 1) - 1,
            TOOL_ERROR_CODE, f"syntax error: {exc.msg}",
        )
    return ModuleInfo(relpath=relpath, source=source, tree=tree), None


class LintEngine:
    """Runs the rule set over a set of files and filters the findings."""

    def __init__(
        self,
        rules: Optional[Sequence[Union[Rule, AnalysisRule]]] = None,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
        cache: Optional[AnalysisCache] = None,
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
        self._cache = cache
        # The cached per-file diagnostics are exactly the module rules'
        # output, so the key must change when that rule set does.
        codes = ",".join(sorted(rule.code for rule in self._module_rules))
        self._fingerprint = f"v{CACHE_VERSION}:{codes}"

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
            try:
                data = path.read_bytes()
            except OSError as exc:
                raw.append(
                    Diagnostic(
                        relpath, 1, 0, TOOL_ERROR_CODE,
                        f"cannot read file: {exc}",
                    )
                )
                continue
            digest = content_digest(data)
            entry: Optional[CacheEntry] = None
            if self._cache is not None:
                entry = self._cache.lookup(relpath, digest, self._fingerprint)
            if entry is None:
                entry = self._analyze_file(relpath, data, digest)
                if self._cache is not None:
                    self._cache.store(relpath, entry)
            raw.extend(entry.tool_errors)
            raw.extend(entry.module_diagnostics)
            if entry.summary is not None:
                summaries.append(entry.summary)
            suppressions[relpath] = Suppressions.from_json(entry.suppressions)

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
        if self._cache is not None:
            self._cache.save()
        return LintReport(
            diagnostics=kept,
            files_checked=len(files),
            cache_hits=self._cache.hits if self._cache is not None else 0,
        )

    # ------------------------------------------------------------------

    def _analyze_file(
        self, relpath: str, data: bytes, digest: str
    ) -> CacheEntry:
        """The cacheable per-file tier: parse, suppressions, module
        rules, summary."""

        def failed(errors: List[Diagnostic], suppressed: List[Dict[str, object]]) -> CacheEntry:
            return CacheEntry(
                digest=digest,
                fingerprint=self._fingerprint,
                summary=None,
                suppressions=suppressed,
                module_diagnostics=[],
                tool_errors=errors,
            )

        try:
            source = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            return failed(
                [
                    Diagnostic(
                        relpath, 1, 0, TOOL_ERROR_CODE,
                        f"cannot read file: {exc}",
                    )
                ],
                [],
            )
        file_suppressions, problems = scan_suppressions(relpath, source)
        try:
            tree = ast.parse(source, filename=relpath)
        except SyntaxError as exc:
            problems.append(
                Diagnostic(
                    relpath, exc.lineno or 1, (exc.offset or 1) - 1,
                    TOOL_ERROR_CODE, f"syntax error: {exc.msg}",
                )
            )
            return failed(problems, file_suppressions.to_json())

        file_suppressions.bind(tree)
        module = ModuleInfo(relpath=relpath, source=source, tree=tree)
        module_diagnostics: List[Diagnostic] = []
        for rule in self._module_rules:
            module_diagnostics.extend(rule.check_module(module))
        return CacheEntry(
            digest=digest,
            fingerprint=self._fingerprint,
            summary=extract_summary(relpath, tree),
            suppressions=file_suppressions.to_json(),
            module_diagnostics=module_diagnostics,
            tool_errors=problems,
        )

    @staticmethod
    def _suppressed(
        diagnostic: Diagnostic, suppressions: Dict[str, Suppressions]
    ) -> bool:
        file_suppressions = suppressions.get(diagnostic.path)
        if file_suppressions is None:
            return False
        return file_suppressions.is_suppressed(diagnostic.code, diagnostic.line)
