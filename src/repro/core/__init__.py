"""The paper's primary contribution: adaptive two-phase sampling AQP.

* :mod:`repro.core.estimators` — the Horvitz–Thompson-style estimator
  ``y'' = avg(y(s) / prob(s))`` and its variance theory (Theorems 1–2);
* :mod:`repro.core.crossval` — the cross-validation machinery that
  estimates the clustering "badness" ``C`` (Theorem 3);
* :mod:`repro.core.planner` — turns a phase-I sample plus a required
  accuracy into a phase-II plan ``m' = (m/2) · (CVError / Δreq)²``;
* :mod:`repro.core.two_phase` — the full COUNT/SUM/AVG engine (§4),
  the one phase I → analysis → phase II loop every engine runs, and
  the plan cache that serves repeat signatures warm (§6);
* :mod:`repro.core.median` — the median/quantile engine (§5.6);
* :mod:`repro.core.confidence` — large-sample confidence intervals;
* :mod:`repro.core.result` — the result objects queries return.
"""

__all__: list[str] = []
