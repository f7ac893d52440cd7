"""Data substrate: synthetic tuples, placement, and local peer storage.

Implements the paper's data model (§5.2.2): single-attribute tuples
with values 1..100 following a Zipf distribution with skew ``Z``,
arranged with a *cluster level* ``CL`` (0 = sorted then partitioned,
1 = randomly permuted then partitioned) and distributed over peers in
breadth-first order so neighboring peers hold correlated data.
"""

__all__: list[str] = []
