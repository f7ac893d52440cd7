"""Experiment harness reproducing the paper's evaluation (§5).

* :mod:`repro.experiments.configs` — builds the paper's two evaluation
  networks (synthetic power-law and Gnutella-2001-like) at a
  configurable scale, with dataset knobs (CL, Z) and caching;
* :mod:`repro.experiments.runner` — runs multi-trial experiments and
  aggregates outcomes (the paper averages 5 independent runs);
* :mod:`repro.experiments.figures` — one function per paper figure
  (Figures 2–16), each returning a :class:`FigureResult` with the same
  series the paper plots;
* :mod:`repro.experiments.report` — text-table rendering used by the
  benchmarks and EXPERIMENTS.md.
"""

__all__: list[str] = []
