"""Inline suppression directives.

A violation can be waived on its own line (or the dedicated comment
line directly above it) with::

    risky_call()  # reprolint: disable=RL004 -- sentinel compare, exact by construction

The directive **must** name explicit rule codes and **must** carry a
reason after ``--``.  Blanket directives (``disable=all``, no codes) and
reason-less directives do not suppress anything; they are themselves
reported as :data:`~repro.tools.lint.diagnostics.TOOL_ERROR_CODE`
findings, which keeps the "zero blanket suppressions" invariant
machine-checked.

Statement extents
-----------------

Diagnostics do not always anchor on the line a human would put the
directive on: a call wrapped over several lines anchors wherever the
offending expression starts, and a decorated ``def`` anchors on the
``def`` line, below its decorators.  A directive placed on a
statement's *head* line (or on the comment line directly above the
statement, decorators included) therefore covers the whole extent of
that statement — but only for **simple** statements and for
``def``/``class`` blocks, which the issue contract names explicitly.
Compound statements (``if``/``for``/``while``/``with``/``try``) never
inherit coverage for their bodies: that would be a blanket suppression
in disguise.

Binding extents requires the parsed tree, so the engine calls
:meth:`Suppressions.bind` after a successful parse.

Unused directives
-----------------

Every directive records whether it actually waived a finding during a
run (:meth:`Suppressions.match` marks the winning directive).  The
engine's audit turns directives that suppressed nothing into
:data:`~repro.tools.lint.diagnostics.TOOL_ERROR_CODE` findings, so
stale suppressions cannot accumulate.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import re
import tokenize
from typing import Iterable, List, Optional, Tuple

from .diagnostics import TOOL_ERROR_CODE, Diagnostic

__all__ = [
    "Directive",
    "Suppressions",
    "scan_suppressions",
]

_DIRECTIVE = re.compile(
    r"reprolint:\s*disable\s*=\s*(?P<codes>[A-Za-z0-9_,\s]*?)"
    r"\s*(?:--\s*(?P<reason>.*\S)?\s*)?$"
)
_CODE_FORMAT = re.compile(r"^RL\d{3}$")

#: Compound statements whose head-line directives never cover the
#: body — only ``def``/``class`` blocks get whole-node coverage.
_COMPOUND_STATEMENTS = (
    ast.If,
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.With,
    ast.AsyncWith,
    ast.Try,
)

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclasses.dataclass
class Directive:
    """One well-formed ``# reprolint: disable=...`` comment."""

    line: int
    column: int
    codes: Tuple[str, ...]
    #: Line span(s) of code this directive waives findings on.  Starts
    #: as the directive's own line (plus the line below for
    #: comment-only directives) and is widened to full statement
    #: extents by :meth:`Suppressions.bind`.
    spans: List[Tuple[int, int]] = dataclasses.field(default_factory=list)

    def covers(self, line: int) -> bool:
        """Whether ``line`` falls inside one of the bound spans."""
        return any(start <= line <= stop for start, stop in self.spans)


class Suppressions:
    """Per-file set of suppression directives."""

    def __init__(self, directives: List[Directive]):
        self._directives = directives
        self._used: set = set()

    @property
    def directives(self) -> Tuple[Directive, ...]:
        """All well-formed directives in the file."""
        return tuple(self._directives)

    def bind(self, tree: ast.Module) -> None:
        """Widen directive coverage to full statement extents.

        A directive whose seed span touches the head line of a simple
        statement or of a ``def``/``class`` (its decorators included)
        covers every line of that node, so diagnostics anchored on a
        continuation line — or on the ``def`` line below a decorated
        directive — are still waived.
        """
        statements = [
            node for node in ast.walk(tree) if isinstance(node, ast.stmt)
        ]
        for directive in self._directives:
            widened: List[Tuple[int, int]] = list(directive.spans)
            for node in statements:
                start = node.lineno
                if isinstance(node, _DEFINITIONS) and node.decorator_list:
                    start = min(
                        start,
                        min(d.lineno for d in node.decorator_list),
                    )
                head_lines = {start, node.lineno}
                if not any(
                    any(s <= head <= e for s, e in directive.spans)
                    for head in head_lines
                ):
                    continue
                if isinstance(node, _COMPOUND_STATEMENTS):
                    continue  # head-line only: no body-wide blankets
                stop = node.end_lineno or node.lineno
                widened.append((start, stop))
            directive.spans = _merge_spans(widened)

    def match(self, code: str, line: int) -> Optional[Directive]:
        """The directive waiving ``code`` at ``line``, if any.

        A successful match marks the directive as *used*, which is what
        the unused-suppression audit keys on.
        """
        if code == TOOL_ERROR_CODE:
            return None
        for directive in self._directives:
            if code in directive.codes and directive.covers(line):
                self._used.add(id(directive))
                return directive
        return None

    def is_suppressed(self, code: str, line: int) -> bool:
        """True if ``code`` is waived at ``line``."""
        return self.match(code, line) is not None

    def unused(self) -> List[Directive]:
        """Directives that waived nothing during this run."""
        return [
            directive
            for directive in self._directives
            if id(directive) not in self._used
        ]


def _merge_spans(spans: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    merged: List[Tuple[int, int]] = []
    for start, stop in sorted(spans):
        if merged and start <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], stop))
        else:
            merged.append((start, stop))
    return merged


def _comment_tokens(source: str) -> Iterable[Tuple[int, int, str]]:
    """Yield ``(line, column, text)`` for every comment in ``source``."""
    reader = io.StringIO(source).readline
    try:
        for token in tokenize.generate_tokens(reader):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.start[1], token.string
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return  # the engine reports the parse failure separately


def scan_suppressions(
    path: str, source: str
) -> Tuple[Suppressions, List[Diagnostic]]:
    """Collect directives and diagnose malformed ones.

    The returned :class:`Suppressions` carries only seed spans (the
    directive's own line, plus the first line below comment-only
    directives); call :meth:`Suppressions.bind` with the parsed tree to
    widen coverage to statement extents.
    """
    directives: List[Directive] = []
    problems: List[Diagnostic] = []
    lines = source.splitlines()
    for line, column, text in _comment_tokens(source):
        if "reprolint:" not in text:
            continue
        match = _DIRECTIVE.search(text)
        if match is None:
            problems.append(
                Diagnostic(
                    path, line, column, TOOL_ERROR_CODE,
                    "unrecognized reprolint directive; expected "
                    "'# reprolint: disable=RLxxx -- reason'",
                )
            )
            continue
        codes = [c.strip() for c in match.group("codes").split(",") if c.strip()]
        reason = match.group("reason")
        if not codes or any(not _CODE_FORMAT.match(code) for code in codes):
            problems.append(
                Diagnostic(
                    path, line, column, TOOL_ERROR_CODE,
                    "suppression must name explicit RLxxx codes "
                    "(blanket disables are not allowed)",
                )
            )
            continue
        if not reason:
            problems.append(
                Diagnostic(
                    path, line, column, TOOL_ERROR_CODE,
                    f"suppression of {', '.join(codes)} is missing a reason "
                    "('-- why this is safe')",
                )
            )
            continue
        spans = [(line, line)]
        if 0 < line <= len(lines) and lines[line - 1].lstrip().startswith("#"):
            spans.append((line + 1, line + 1))  # comment-only directive
        directives.append(
            Directive(
                line=line, column=column, codes=tuple(codes), spans=spans
            )
        )
    return Suppressions(directives), problems
