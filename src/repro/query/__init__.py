"""Aggregation query model, parser and exact evaluation.

The paper's queries have the shape::

    SELECT Agg-Op(Col) FROM T WHERE selection-condition

with ``Agg-Op`` in COUNT/SUM/AVG (plus MEDIAN and quantiles in §5.6)
and range selection conditions such as ``A BETWEEN 1 AND 30``.  This
subpackage provides the query AST (:mod:`repro.query.model`), a small
SQL-ish parser (:mod:`repro.query.parser`) and the ground-truth
evaluator used to score every experiment (:mod:`repro.query.exact`).
"""

__all__: list[str] = []
