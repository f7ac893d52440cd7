"""Sampling strategies: the naive baselines.

The paper's Figure 7 compares the random-walk method against two naive
ways to collect a peer sample — BFS (the sink's neighborhood, i.e.
Gnutella-style flooding) and DFS (a random walk with no decorrelating
jump).  Both are implemented here behind the same estimator pipeline so
the comparison isolates *how peers are selected*.
"""

__all__: list[str] = []
