"""Order statistics and the compare verdict — no dependency on ``repro``.

Everything the harness reports is a median across rounds with its
quartiles, so two sets of runs can be compared by the rule in
``compare_metric`` instead of by eye.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, Sequence, Tuple

import numpy as np

__all__ = [
    "percentile",
    "quartiles",
    "summarize",
    "worse_by",
    "compare_metric",
]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear interpolation between
    closest ranks; an empty sample is an error, not a NaN."""
    if not len(values):
        raise ValueError("percentile of an empty sequence")
    return float(np.percentile(values, q))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them — the same estimator the acceptance driver uses.  A
    single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sequence")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles, sample count and the raw per-round values."""
    q1, median, q3 = quartiles(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": list(values),
    }


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base`` as a share of ``base``
    (negative = better).  ``better`` is ``"lower"`` or ``"higher"``."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be lower|higher, got {better!r}")
    if base == 0.0:
        return 0.0 if new == 0.0 else math.inf
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def compare_metric(
    base: Dict[str, Any],
    new: Dict[str, Any],
    *,
    better: str,
    bound: float,
) -> str:
    """One of ``improved / unchanged / unresolved / regressed``.

    ``base`` and ``new`` are :func:`summarize` records.  The rule
    (choosing-metrics guide, sections 6.5 and 8):

    * the run-to-run spread is the wider of the two interquartile
      ranges, as a share of the base median;
    * when that spread exceeds the bound the benchmark cannot resolve
      a bound-sized change: ``unresolved`` — unless every new run
      beats every base run (``improved``) or every new run is worse
      than every base run by more than the bound (``regressed``);
    * otherwise ``regressed`` when the new median is worse by more
      than the bound, ``improved`` when it is better by more than the
      spread *and* the interquartile ranges do not overlap, else
      ``unchanged``.
    """
    delta = worse_by(base["median"], new["median"], better)
    scale = abs(base["median"]) or 1.0
    spread = max(base["q3"] - base["q1"], new["q3"] - new["q1"]) / scale
    # Work on "lower is better" copies so one set of inequalities
    # serves both directions.
    sign = 1.0 if better == "lower" else -1.0
    base_runs = [sign * value for value in base["values"]]
    new_runs = [sign * value for value in new["values"]]
    if spread > bound:
        if max(new_runs) < min(base_runs):
            return "improved"
        if min(new_runs) > max(base_runs) and delta > bound:
            return "regressed"
        return "unresolved"
    if delta > bound:
        return "regressed"
    base_iqr = sorted((sign * base["q1"], sign * base["q3"]))
    new_iqr = sorted((sign * new["q1"], sign * new["q3"]))
    disjoint = new_iqr[1] < base_iqr[0] or base_iqr[1] < new_iqr[0]
    if -delta > spread and disjoint:
        return "improved"
    return "unchanged"
