"""Command-line entry point: ``python -m repro.tools.lint``.

Exit codes follow linter convention: 0 clean, 1 findings, 2 usage or
internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, TextIO

from .engine import LintEngine, LintReport
from .rules import ALL_RULES, RETIRED_CODES
from .sarif import render_sarif

__all__ = [
    "DEFAULT_PATHS",
    "REPORT_VERSION",
    "build_parser",
    "main",
]

#: Default lint scope when no paths are given.
DEFAULT_PATHS = ("src", "tests", "benchmarks")

REPORT_VERSION = 2


def _split_codes(value: str) -> List[str]:
    return [code.strip().upper() for code in value.split(",") if code.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.lint",
        description=(
            "reprolint: whole-program invariant linter for the p2p-aqp "
            "sampling engine (seed discipline, cost accounting, protocol "
            "immutability, float equality, nondeterminism taint, RNG "
            "stream discipline, snapshot immutability)"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=list(DEFAULT_PATHS),
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help=(
            "output format (json is machine-readable; sarif is for "
            "GitHub code-scanning annotation)"
        ),
    )
    parser.add_argument(
        "--select", type=_split_codes, default=None, metavar="CODES",
        help="comma-separated rule codes to run exclusively (e.g. RL001,RL004)",
    )
    parser.add_argument(
        "--ignore", type=_split_codes, default=None, metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _render_text(report: LintReport, stream: TextIO) -> None:
    for diagnostic in report.diagnostics:
        print(diagnostic.render(), file=stream)
    summary = (
        f"reprolint: {len(report.diagnostics)} finding(s) "
        f"in {report.files_checked} file(s)"
    )
    print(summary, file=stream)


def _render_json(report: LintReport, stream: TextIO) -> None:
    payload = {
        "version": REPORT_VERSION,
        "files_checked": report.files_checked,
        "findings": len(report.diagnostics),
        "diagnostics": [d.to_json() for d in report.diagnostics],
    }
    json.dump(payload, stream, indent=2, sort_keys=True)
    print(file=stream)


def _render_sarif(report: LintReport, stream: TextIO) -> None:
    engine_rules = [rule() for rule in ALL_RULES]
    json.dump(
        render_sarif(report.diagnostics, engine_rules),
        stream, indent=2, sort_keys=True,
    )
    print(file=stream)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    arguments = parser.parse_args(argv)

    if arguments.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code} {rule.name}: {rule.description}")
        return 0

    # A code no rule has would filter to nothing and read green.
    known = [rule.code for rule in ALL_RULES]
    unknown = sorted(
        set(arguments.select or ()).union(arguments.ignore or ())
        - set(known)
    )
    if unknown:
        print(
            f"reprolint: error: unknown rule code(s) {', '.join(unknown)} "
            f"(known: {', '.join(known)}; retired: "
            f"{', '.join(RETIRED_CODES)})",
            file=sys.stderr,
        )
        return 2

    engine = LintEngine(select=arguments.select, ignore=arguments.ignore)
    try:
        report = engine.run(arguments.paths)
    except FileNotFoundError as exc:
        print(f"reprolint: error: {exc}", file=sys.stderr)
        return 2

    if arguments.format == "json":
        _render_json(report, sys.stdout)
    elif arguments.format == "sarif":
        _render_sarif(report, sys.stdout)
    else:
        _render_text(report, sys.stdout)
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
