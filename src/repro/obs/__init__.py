"""Structured tracing and metrics for the sampling engines.

The ``obs`` package is the observability layer of the reproduction:

* :mod:`~repro.obs.events` — typed, seeded-run-deterministic trace
  events with an exact cost-reconciliation contract against
  :class:`~repro.metrics.cost.CostLedger`.
* :mod:`~repro.obs.tracer` — the :class:`Tracer` plus the
  context-scoped activation switch (:func:`active_tracer` /
  :func:`tracing`).  Tracing is off by default and adds a single
  ``None`` check per instrumented site when disabled.
* :mod:`~repro.obs.registry` — counters, gauges and histograms
  aggregated from the event stream.
* :mod:`~repro.obs.jsonl` — canonical JSONL serialization and the
  sha256 digests pinned by the golden-trace tests.
* :mod:`~repro.obs.manifest` — per-run manifests (config hash, seed,
  git revision, metrics snapshot) written by the experiment runner.

This package observes; it never acts.  reprolint RL002 rejects any
code under ``obs/`` that visits peers or mutates a cost ledger.
"""

__all__: list[str] = []
