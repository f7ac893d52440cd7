"""Trace tooling: ``python -m repro.tools.trace``.

Works on the JSONL traces written by :class:`repro.obs.tracer.Tracer`:

``summarize``
    Event counts by kind, probe outcome breakdown, and the cost totals
    (messages / hops / visits / timeouts) reconstructed from the
    per-event charges — these reconcile exactly with the run's
    :class:`~repro.metrics.cost.CostLedger` snapshot.
``diff``
    Compare two traces line by line; exits non-zero and points at the
    first divergence when the runs behaved differently.
``filter``
    Select events by kind and/or peer and reprint them as JSONL, for
    piping into further tooling.
"""

from .cli import build_parser, main

__all__ = ["build_parser", "main"]
