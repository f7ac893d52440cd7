"""The serving benchmark's one command.

    python bench/run.py [--seed N] [--rounds 9] [--quick] [--record]
        Every workload: R untraced rounds, each in a fresh child
        process, interleaved round-robin across workloads, then one
        traced child per workload.  Prints every metric by name with
        its unit, runs the correctness gate, writes the same as JSON.

    python bench/run.py --workload W --seed N --seconds S --trace 0|1
        One workload in this process for S seconds; the last line of
        standard output is one JSON object (the acceptance driver's
        contract).  This is also what the suite runs as its children.

    python bench/run.py compare A B
        Verdict per (workload, end-to-end metric) between two suite
        results; exits non-zero on ``regressed``.  A and B are result
        files, or directories of them whose rounds are pooled (how ten
        alternating pairs of two commits are compared).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

if __package__ in (None, ""):
    # Run as a script: the interpreter put bench/ itself first on the
    # path; the package's parent is what ``import bench`` needs.
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from bench import ROOT
from bench.stats import compare_metric, summarize, worse_by

RESULTS_DIR = Path(__file__).resolve().parent / "results"
#: End-to-end metrics in the simulated domain; the rest are host.
SIM_METRICS = frozenset(
    {"answered_share", "visits_per_query", "norm_error_p90", "within_delta_share"}
)
DEFAULT_ROUNDS = 9
#: Untraced/traced pairs the suite's traced child alternates.
TRACED_ROUNDS = 3
QUICK_SCALE = 0.1


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the metric names, units, directions and
    bounds — declared once, read by everything that prints them."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------


def end_to_end_of(record: Dict[str, Any]) -> Dict[str, List[float]]:
    """Per end-to-end metric, the samples one process contributed:
    one per round for the timings, one for everything else."""
    rounds = record["rounds"]
    samples = {
        name: [round_[name] for round_ in rounds]
        for name in ("throughput_qps", "latency_p50_ms", "latency_p90_ms")
    }
    samples["setup_s"] = [statistics.median(record["setup_s"])]
    samples["peak_rss_mb"] = [record["peak_rss_mb"]]
    for name, value in record["sim"].items():
        samples[name] = [value]
    return samples


def run_one(args: argparse.Namespace) -> int:
    from bench.measure import run_workload

    spec = load_spec()
    # A terminated run unwinds like a failed one, so ``run_workload``
    # still stops and waits for every process it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    record = run_workload(
        args.workload,
        args.seed,
        seconds=args.seconds,
        rounds=args.rounds,
        trace=bool(args.trace),
        scale=args.scale,
        spans_dir=RESULTS_DIR,
    )
    for violation in record["violations"]:
        print(f"GATE VIOLATION [{args.workload}]: {violation}", file=sys.stderr)
    status = 1 if record["violations"] else 0
    if args.detail:
        print(json.dumps(record))
        return status
    if args.trace:
        values = record["layers"]
        declared = spec["per_layer"]
    else:
        values = {
            name: statistics.median(samples)
            for name, samples in end_to_end_of(record).items()
        }
        declared = spec["end_to_end"]
    attempted = record["queries_per_round"] * len(record["rounds"])
    print(json.dumps({
        "correct": not record["violations"],
        "attempted": attempted,
        "failed": sum(round_["failed"] for round_ in record["rounds"]),
        "metrics": {
            metric["name"]: {
                "value": values[metric["name"]],
                "unit": metric["unit"],
            }
            for metric in declared
        },
    }))
    return status


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------


def _git(*command: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ("git", *command), cwd=ROOT, capture_output=True, text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def environment_stamp(max_workers: int) -> Dict[str, Any]:
    """Where this run happened, read now — never typed."""
    import numpy
    import scipy

    affinity = len(os.sched_getaffinity(0))
    load = os.getloadavg()[0]
    status = _git("status", "--porcelain")
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cores": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "loadavg_start": load,
        # One driver plus the workload's workers must fit the cores,
        # and the box must be quiet, or host numbers mean little.
        "oversubscribed": max_workers + 1 > affinity or load > 0.5,
    }


def run_child(
    workload: str, args: argparse.Namespace, *, trace: bool, rounds: int = 1
) -> Dict[str, Any]:
    """``rounds`` of one workload in a fresh process; children run
    strictly one at a time."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(args.seed),
        "--rounds", str(rounds),
        "--trace", str(int(trace)),
        "--scale", str(QUICK_SCALE if args.quick else 1.0),
        "--detail",
    ]
    done = subprocess.run(command, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(
            f"{workload}: child exited {done.returncode} without a result"
        )
    return json.loads(lines[-1])


def run_suite(args: argparse.Namespace) -> int:
    from bench.workloads import WORKLOADS

    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    rounds = 1 if args.quick else args.rounds
    environment = environment_stamp(
        max(WORKLOADS[name].workers or 0 for name in names)
    )
    environment.update(seed=args.seed, rounds=rounds, quick=args.quick)
    if environment["oversubscribed"]:
        print(
            "WARNING: oversubscribed (cores busy or too few); host "
            "numbers from this run are marked as such",
            file=sys.stderr,
        )

    untraced: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    traced: Dict[str, Dict[str, Any]] = {}
    if args.quick:
        # Smoke: one child per workload serves both purposes.
        for name in names:
            traced[name] = run_child(name, args, trace=True)
            untraced[name].append(traced[name])
    else:
        # Round-robin across workloads, so a noisy half-minute on a
        # shared machine lands on every workload equally.
        for round_ in range(rounds):
            for name in names:
                print(f"round {round_ + 1}/{rounds}  {name}", file=sys.stderr)
                untraced[name].append(run_child(name, args, trace=False))
        for name in names:
            print(f"traced rounds  {name}", file=sys.stderr)
            traced[name] = run_child(
                name, args, trace=True, rounds=TRACED_ROUNDS
            )
    environment["loadavg_end"] = os.getloadavg()[0]

    result: Dict[str, Any] = {
        "environment": environment,
        "workloads": {},
    }
    violations: List[str] = []
    for name in names:
        records = untraced[name]
        first = records[0]
        # In a smoke run the traced child is already among the records.
        checked = records if args.quick else [*records, traced[name]]
        for record in checked:
            violations.extend(
                f"{name}: {violation}" for violation in record["violations"]
            )
            if record["digest"] != first["digest"]:
                violations.append(
                    f"{name}: result digest differs between processes"
                )
            if record["sim"] != first["sim"]:
                violations.append(
                    f"{name}: sim metrics differ between processes"
                )
        samples: Dict[str, List[float]] = {}
        for record in records:
            for metric, values in end_to_end_of(record).items():
                samples.setdefault(metric, []).extend(values)
        result["workloads"][name] = {
            "digest": first["digest"],
            "queries_per_round": first["queries_per_round"],
            "end_to_end": {
                metric["name"]: {
                    **summarize(samples[metric["name"]]),
                    "unit": metric["unit"],
                }
                for metric in spec["end_to_end"]
            },
            "per_layer": {
                metric["name"]: {
                    "value": traced[name]["layers"][metric["name"]],
                    "unit": metric["unit"],
                }
                for metric in spec["per_layer"]
            },
        }
    result["violations"] = violations
    print_result(result, spec)
    out = Path(args.out) if args.out else RESULTS_DIR / "latest.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"\nwrote {out}")
    if args.record:
        record_history(result)
    for violation in violations:
        print(f"GATE VIOLATION: {violation}", file=sys.stderr)
    return 1 if violations else 0


def print_result(result: Dict[str, Any], spec: Dict[str, Any]) -> None:
    environment = result["environment"]
    print(
        f"seed {environment['seed']}  rounds {environment['rounds']}  "
        f"rev {environment['git_rev'][:12]}"
        f"{' (dirty)' if environment['git_dirty'] else ''}  "
        f"cores {environment['affinity_cores']}/{environment['cpu_count']}  "
        f"load {environment['loadavg_start']:.2f} -> "
        f"{environment['loadavg_end']:.2f}"
        f"{'  OVERSUBSCRIBED' if environment['oversubscribed'] else ''}"
    )
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    for name, workload in result["workloads"].items():
        print(
            f"\n== {name}  ({workload['queries_per_round']} queries/round, "
            f"digest {workload['digest'][:16]})"
        )
        for metric, summary in workload["end_to_end"].items():
            domain = "sim " if metric in SIM_METRICS else "host"
            print(
                f"  {metric:<22s} {domain} {summary['median']:>12.4f} "
                f"{summary['unit']:<6s} q1 {summary['q1']:.4f}  "
                f"q3 {summary['q3']:.4f}  n={summary['n']}  "
                f"bound {bounds[metric]:.0%}"
            )
        print("  -- per layer (traced round)")
        for metric, entry in workload["per_layer"].items():
            print(f"  {metric:<38s} {entry['value']:>14.4f} {entry['unit']}")


def record_history(result: Dict[str, Any]) -> None:
    """Append this run to the append-only history, keyed by git rev."""
    environment = result["environment"]
    entry = {
        "git_rev": environment["git_rev"],
        "recorded_at": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "environment": environment,
        "workloads": {
            name: {
                "digest": workload["digest"],
                "end_to_end": {
                    metric: {
                        key: summary[key]
                        for key in ("median", "q1", "q3", "n", "unit")
                    }
                    for metric, summary in workload["end_to_end"].items()
                },
                "per_layer": workload["per_layer"],
            }
            for name, workload in result["workloads"].items()
        },
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    with (RESULTS_DIR / "history.jsonl").open("a") as stream:
        stream.write(json.dumps(entry) + "\n")


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def load_results(path: str) -> Dict[str, Any]:
    """One suite result, or a directory of them pooled round by round."""
    target = Path(path)
    if not target.is_dir():
        return json.loads(target.read_text())
    files = sorted(target.glob("*.json"))
    if not files:
        raise SystemExit(f"{path}: no result files")
    pooled = json.loads(files[0].read_text())
    for extra in files[1:]:
        result = json.loads(extra.read_text())
        for name, workload in pooled["workloads"].items():
            other = result["workloads"][name]
            if other["digest"] != workload["digest"]:
                workload["digest"] = "mixed"
            for metric, summary in workload["end_to_end"].items():
                values = summary["values"] + other["end_to_end"][metric]["values"]
                summary.update(summarize(values))
    return pooled


def compare(path_a: str, path_b: str) -> int:
    spec = load_spec()
    base = load_results(path_a)
    new = load_results(path_b)
    regressed = False
    for name in base["workloads"]:
        if name not in new["workloads"]:
            print(f"\n== {name}: missing from {path_b}")
            continue
        old_run, new_run = base["workloads"][name], new["workloads"][name]
        same = old_run["digest"] == new_run["digest"]
        print(f"\n== {name}  digests {'identical' if same else 'differ'}")
        for metric in spec["end_to_end"]:
            old = old_run["end_to_end"][metric["name"]]
            now = new_run["end_to_end"][metric["name"]]
            verdict = compare_metric(
                old, now, better=metric["better"], bound=metric["bound"]
            )
            regressed = regressed or verdict == "regressed"
            change = worse_by(old["median"], now["median"], metric["better"])
            sim = metric["name"] in SIM_METRICS
            # Sim numbers repeat exactly for a seed: any difference is
            # a behaviour change (or another seed), never noise.
            drift = "  (sim differs)" if sim and old["values"] != now["values"] else ""
            print(
                f"  {metric['name']:<22s} {'sim ' if sim else 'host'} "
                f"{old['median']:>11.4f} [{old['q1']:.4f}-{old['q3']:.4f}]  "
                f"{now['median']:>11.4f} [{now['q1']:.4f}-{now['q3']:.4f}] "
                f"{metric['unit']:<6s} worse by {change:+7.1%}  "
                f"bound {metric['bound']:.0%}  {verdict}{drift}"
            )
    return 1 if regressed else 0


# ---------------------------------------------------------------------------


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--rounds", type=int, default=None,
                        help=f"measured rounds (suite default {DEFAULT_ROUNDS})")
    parser.add_argument("--quick", action="store_true",
                        help="smoke: 1 round, 1/10 of the queries, all gates")
    parser.add_argument("--record", action="store_true",
                        help="append the run to bench/results/history.jsonl")
    parser.add_argument("--out", help="where the suite writes its JSON")
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="one workload: serve rounds for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="one workload: 1 adds the traced round")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="one workload: share of the queries per round")
    parser.add_argument("--detail", action="store_true",
                        help="one workload: print the full record")
    return parser.parse_args(argv)


def main(argv: Sequence[str]) -> int:
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A B")
        return compare(argv[1], argv[2])
    args = parse_args(argv)
    if args.workload is not None:
        return run_one(args)
    if args.rounds is None:
        args.rounds = DEFAULT_ROUNDS
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
