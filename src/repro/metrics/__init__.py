"""Cost accounting and accuracy metrics (paper §3.2, §5.4).

The paper evaluates algorithms on *cost* — latency, dominated by the
number of peers visited, with messages/bandwidth as secondary metrics —
and *accuracy* — error normalized to [0, 1].  :mod:`repro.metrics.cost`
implements the cost ledger the simulator fills in;
:mod:`repro.metrics.accuracy` implements the paper's normalizations.
"""

__all__: list[str] = []
