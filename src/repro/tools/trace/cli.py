"""Command-line entry point: ``python -m repro.tools.trace``.

Exit codes: 0 success (``diff``: traces identical), 1 ``diff`` found a
divergence, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence, TextIO

from ...errors import ConfigurationError
from ...obs.events import EVENT_TYPES, TraceCost
from ...obs.jsonl import digest_of_lines, line_cost, read_trace

__all__ = [
    "build_parser",
    "main",
    "summarize_records",
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.trace",
        description=(
            "inspect JSONL walk traces: summarize event/cost totals, "
            "diff two seeded runs, or filter events for further tooling"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    summarize = commands.add_parser(
        "summarize",
        help="event counts and ledger-reconciling cost totals",
    )
    summarize.add_argument("trace", help="JSONL trace file")
    summarize.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the summary as JSON instead of text",
    )

    diff = commands.add_parser(
        "diff", help="compare two traces; non-zero exit on divergence"
    )
    diff.add_argument("left", help="baseline JSONL trace")
    diff.add_argument("right", help="candidate JSONL trace")
    diff.add_argument(
        "--ignore-virtual-time", action="store_true",
        dest="ignore_virtual_time",
        help=(
            "strip 'vt' stamps before comparing (virtual timestamps "
            "are significant by default: an event-driven run only "
            "matches a synchronous one when its clock never advanced)"
        ),
    )

    filter_ = commands.add_parser(
        "filter", help="reprint selected events as JSONL"
    )
    filter_.add_argument("trace", help="JSONL trace file")
    filter_.add_argument(
        "--kind", type=_split_kinds, default=None, metavar="KINDS",
        help="comma-separated event kinds to keep (e.g. probe,retry)",
    )
    filter_.add_argument(
        "--peer", type=int, default=None,
        help="keep only events whose 'peer' field equals this id",
    )
    return parser


def _split_kinds(value: str) -> List[str]:
    kinds = [kind.strip() for kind in value.split(",") if kind.strip()]
    known = sorted(event.kind for event in EVENT_TYPES)
    if not kinds or not set(kinds) <= set(known):
        raise argparse.ArgumentTypeError(
            f"{value!r} is not a list of event kinds; known: {','.join(known)}"
        )
    return kinds


def summarize_records(
    records: Sequence[Dict[str, object]]
) -> Dict[str, object]:
    """The ``summarize`` payload for parsed trace ``records``.

    ``cost`` is the per-field sum of every event's charge, which by
    the reconciliation contract (see :mod:`repro.obs.events`) equals
    the run's ledger totals: ``messages``/``hops`` match the ledger's,
    ``visits`` matches ``peers_visited``, ``timeouts`` matches
    ``timeouts``.
    """
    kinds: Dict[str, int] = {}
    outcomes: Dict[str, int] = {}
    total = TraceCost()
    timed = 0
    makespan_ms = 0.0
    for record in records:
        kind = str(record["kind"])
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "probe":
            outcome = str(record.get("outcome", "ok"))
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
        vt = record.get("vt")
        if isinstance(vt, (int, float)):
            timed += 1
            makespan_ms = max(makespan_ms, float(vt))
        total = total + line_cost(record)
    summary: Dict[str, object] = {
        "events": len(records),
        "kinds": dict(sorted(kinds.items())),
        "probe_outcomes": dict(sorted(outcomes.items())),
        "cost": {
            "messages": total.messages,
            "hops": total.hops,
            "visits": total.visits,
            "timeouts": total.timeouts,
        },
    }
    if timed:
        summary["virtual_time"] = {
            "stamped_events": timed,
            "makespan_ms": makespan_ms,
        }
    return summary


def _render_summary(summary: Dict[str, object], stream: TextIO) -> None:
    print(f"events: {summary['events']}", file=stream)
    kinds = summary["kinds"]
    assert isinstance(kinds, dict)
    for kind, count in kinds.items():
        print(f"  {kind}: {count}", file=stream)
    outcomes = summary["probe_outcomes"]
    assert isinstance(outcomes, dict)
    if outcomes:
        print("probe outcomes:", file=stream)
        for outcome, count in outcomes.items():
            print(f"  {outcome}: {count}", file=stream)
    cost = summary["cost"]
    assert isinstance(cost, dict)
    print(
        "cost totals (reconcile with the run's CostLedger):",
        file=stream,
    )
    for field in ("messages", "hops", "visits", "timeouts"):
        print(f"  {field}: {cost[field]}", file=stream)
    virtual = summary.get("virtual_time")
    if isinstance(virtual, dict):
        print(
            f"virtual time: {virtual['stamped_events']} stamped "
            f"event(s), makespan {virtual['makespan_ms']} ms",
            file=stream,
        )


def _canonical_lines(
    records: Sequence[Dict[str, object]],
    ignore_virtual_time: bool = False,
) -> List[str]:
    if ignore_virtual_time:
        records = [
            {key: value for key, value in record.items() if key != "vt"}
            for record in records
        ]
    return [
        json.dumps(record, sort_keys=True, separators=(",", ":"))
        for record in records
    ]


def _command_summarize(arguments: argparse.Namespace) -> int:
    summary = summarize_records(read_trace(arguments.trace))
    if arguments.as_json:
        json.dump(summary, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        _render_summary(summary, sys.stdout)
    return 0


def _command_diff(arguments: argparse.Namespace) -> int:
    strip = arguments.ignore_virtual_time
    left = _canonical_lines(
        read_trace(arguments.left), ignore_virtual_time=strip
    )
    right = _canonical_lines(
        read_trace(arguments.right), ignore_virtual_time=strip
    )
    if digest_of_lines(left) == digest_of_lines(right):
        print(f"identical: {len(left)} event(s)")
        return 0
    for index, (a, b) in enumerate(zip(left, right)):
        if a != b:
            print(f"first divergence at event {index}:")
            print(f"- {a}")
            print(f"+ {b}")
            return 1
    shorter, longer = sorted((left, right), key=len)
    print(
        f"traces agree on the first {len(shorter)} event(s); "
        f"{len(longer) - len(shorter)} extra event(s) in the longer trace:"
    )
    print(f"± {longer[len(shorter)]}")
    return 1


def _command_filter(arguments: argparse.Namespace) -> int:
    kinds = set(arguments.kind) if arguments.kind is not None else None
    for record in read_trace(arguments.trace):
        if kinds is not None and str(record["kind"]) not in kinds:
            continue
        if (
            arguments.peer is not None
            and record.get("peer") != arguments.peer
        ):
            continue
        print(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        if arguments.command == "summarize":
            return _command_summarize(arguments)
        if arguments.command == "diff":
            return _command_diff(arguments)
        return _command_filter(arguments)
    except (OSError, ConfigurationError) as exc:
        print(f"trace: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
