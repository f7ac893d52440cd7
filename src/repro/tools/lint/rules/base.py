"""Rule plumbing shared by all reprolint checks.

Two rule flavors exist:

* :class:`Rule` — examines one module's AST at a time (RL001–RL004);
* :class:`AnalysisRule` — examines the whole program through a
  :class:`~repro.tools.lint.analysis.project.ProjectAnalysis` built
  from per-module summaries (RL006–RL008); it never sees an AST.

Module rules see :class:`ModuleInfo`, a parsed module plus enough path
context to decide applicability (e.g. RL002 only constrains ``core/``
and ``sampling/``).
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import PurePosixPath
from typing import TYPE_CHECKING, ClassVar, Iterator, Optional, Tuple

from ..diagnostics import Diagnostic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..analysis.project import ProjectAnalysis


__all__ = [
    "AnalysisRule",
    "ModuleInfo",
    "Rule",
    "dotted_name",
    "function_parameters",
    "walk_function_body",
]


@dataclasses.dataclass(frozen=True)
class ModuleInfo:
    """A parsed python module under analysis."""

    relpath: str
    source: str
    tree: ast.Module

    @property
    def parts(self) -> Tuple[str, ...]:
        """Path components of :attr:`relpath` (posix)."""
        return PurePosixPath(self.relpath).parts

    @property
    def filename(self) -> str:
        """Basename of the module file."""
        return self.parts[-1] if self.parts else self.relpath

    def in_directory(self, name: str) -> bool:
        """True when ``name`` is one of the parent directory parts."""
        return name in self.parts[:-1]


class Rule:
    """A single-module check.  Subclasses set ``code``/``name`` and
    implement :meth:`check_module`."""

    code: ClassVar[str] = ""
    name: ClassVar[str] = ""
    description: ClassVar[str] = ""

    def check_module(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def diagnostic(
        self, module: ModuleInfo, node: ast.AST, message: str
    ) -> Diagnostic:
        """A finding anchored at ``node``'s position."""
        return Diagnostic(
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )


class AnalysisRule:
    """A whole-program check over the summary-level project view.

    Analysis rules must anchor their findings with :meth:`finding` —
    summaries carry positions as plain ints, not AST nodes.
    """

    code: ClassVar[str] = ""
    name: ClassVar[str] = ""
    description: ClassVar[str] = ""

    def check(self, analysis: "ProjectAnalysis") -> Iterator[Diagnostic]:
        raise NotImplementedError

    def finding(
        self, relpath: str, lineno: int, col: int, message: str
    ) -> Diagnostic:
        """A finding at an explicit position."""
        return Diagnostic(
            path=relpath, line=lineno, column=col,
            code=self.code, message=message,
        )


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def function_parameters(
    node: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> Tuple[str, ...]:
    """All parameter names of a function, in declaration order."""
    args = node.args
    names = [a.arg for a in args.posonlyargs]
    names += [a.arg for a in args.args]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    names += [a.arg for a in args.kwonlyargs]
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return tuple(names)


def walk_function_body(
    node: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> Iterator[ast.AST]:
    """Walk a function's own statements, not entering nested defs."""
    stack: list = list(node.body)
    while stack:
        current = stack.pop()
        yield current
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue  # nested scope: its body is its own problem
        stack.extend(ast.iter_child_nodes(current))
