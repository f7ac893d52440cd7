"""Developer tooling that ships with the package.

:mod:`repro.tools.lint` — *reprolint* — is an AST-based static-analysis
pass enforcing the project's reproducibility invariants (seed
discipline, cost accounting, protocol immutability, float-equality
hygiene, nondeterminism taint, RNG stream discipline, snapshot
immutability).  It has no dependencies beyond the
standard library, so it can run in CI and pre-commit hooks without the
simulation stack installed.

:mod:`repro.tools.trace` works on the JSONL walk traces written by
:class:`repro.obs.tracer.Tracer`: summarize event and cost totals (which
reconcile exactly with the run's cost ledger), diff two seeded runs,
or filter events for further tooling.
"""

__all__ = ["lint", "trace"]
