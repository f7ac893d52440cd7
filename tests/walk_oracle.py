"""Reference stepwise walker — the oracle the fused walk kernel is
compared against (``tests/test_walk_kernel.py``).

This is the product's former segment-by-segment stepping, moved here
verbatim when :class:`repro.network.walk_kernel.WalkKernel` became the
only code that advances a walk: one ``Generator.random`` call per
burn-in/jump segment, a cursor/refill check per hop and the variant
branch per hop.  Keep it dumb; it exists to be obviously right, not fast.  It builds its own
python adjacency (:func:`adjacency`, the tables the product's python
loop read) since the product walks the CSR arrays in C.

One quirk is load-bearing: a segment needing more than ``_RANDOM_BLOCK``
uniforms refills mid-loop and *discards the tail* of its last block, and
a zero-hop segment still draws one wasted uniform (two when weighted).
The product does neither, so parity with the oracle holds for segments
of ``1 <= per_hop * hops <= 8192``.
"""

import numpy as np

from repro._util import ensure_rng

_RANDOM_BLOCK = 8192


def adjacency(topology):
    """``topology``'s neighbor rows (CSR order) and float degrees, the
    tables the former python hop loop read."""
    indptr = topology.indptr.tolist()
    indices = topology.indices.tolist()
    neighbors = [
        indices[start:stop] for start, stop in zip(indptr, indptr[1:])
    ]
    return neighbors, [float(len(row)) for row in neighbors]


class OracleCursor:
    """The former ``WalkCursor._take`` loop over oracle segments."""

    def __init__(self, start, segment, config):
        self._start = start
        self._segment = segment
        self._config = config
        self._current = start
        self._started = False
        self._pending_selection = False
        self.total_hops = 0

    @property
    def position(self):
        return self._current

    def take(self, count):
        """``(selected peers, hops)`` of the next ``count`` selections."""
        if count == 0:
            return [], 0
        jump = self._config.effective_jump
        hops = 0
        if not self._started:
            burn_in = self._config.effective_burn_in
            if burn_in:
                self._current = self._segment(self._start, burn_in)
            hops = burn_in
            self._started = True
            self._pending_selection = True  # post-burn-in position counts
        selected = []
        while len(selected) < count:
            if not self._pending_selection:
                self._current = self._segment(self._current, jump)
                hops += jump
            self._pending_selection = False
            selected.append(self._current)
        self.total_hops += hops
        return selected, hops


class OracleWalker:
    """Stepwise stepping over ``topology``; ``weights`` selects the
    weighted-Metropolis segment (the config's variant is then ignored,
    as in :class:`repro.network.walker.WeightedMetropolisWalker`)."""

    def __init__(self, topology, config, seed, weights=None):
        self._topology = topology
        self._config = config
        self._rng = ensure_rng(seed)
        self._weights = None if weights is None else list(weights)
        self._nbrs, self._degs = adjacency(topology)

    @property
    def rng(self):
        return self._rng

    def walk_segment(self, current, hops):
        """Advance ``hops`` hops from ``current``; returns the endpoint."""
        if self._weights is not None:
            return self._weighted_walk_segment(current, hops)
        nbrs = self._nbrs
        degs = self._degs
        metropolis = self._config.variant == "metropolis-uniform"
        rng = self._rng
        # Metropolis consumes two randoms per hop (propose + accept).
        per_hop = 2 if metropolis else 1
        randoms = rng.random(
            min(_RANDOM_BLOCK, max(per_hop * hops, 1))
        ).tolist()
        cursor = 0
        for _ in range(hops):
            if cursor + per_hop > len(randoms):
                randoms = rng.random(_RANDOM_BLOCK).tolist()
                cursor = 0
            r = randoms[cursor]
            cursor += 1
            degree = degs[current]
            if metropolis:
                proposal = nbrs[current][int(r * degree)]
                accept = randoms[cursor]
                cursor += 1
                # Accept with min(1, deg(u)/deg(v)): uniform target.
                if accept * degs[proposal] < degree:
                    current = proposal
            else:
                current = nbrs[current][int(r * degree)]
        return current

    def _weighted_walk_segment(self, current, hops):
        nbrs = self._nbrs
        degs = self._degs
        weights = self._weights
        rng = self._rng
        randoms = rng.random(
            min(_RANDOM_BLOCK, max(2 * hops, 2))
        ).tolist()
        cursor = 0
        for _ in range(hops):
            if cursor + 2 > len(randoms):
                randoms = rng.random(_RANDOM_BLOCK).tolist()
                cursor = 0
            r = randoms[cursor]
            accept = randoms[cursor + 1]
            cursor += 2
            degree = degs[current]
            proposal = nbrs[current][int(r * degree)]
            # accept iff u < (w_v * deg_u) / (w_u * deg_v)
            if (
                accept * weights[current] * degs[proposal]
                < weights[proposal] * degree
            ):
                current = proposal
        return current

    def step(self, current):
        return self.walk_segment(current, 1)

    def trace(self, start, hops):
        out = np.empty(hops + 1, dtype=np.int64)
        out[0] = start
        current = start
        for i in range(hops):
            current = self.walk_segment(current, 1)
            out[i + 1] = current
        return out

    def endpoint_after(self, start, hops):
        return self.walk_segment(start, hops)

    def cursor(self, start):
        return OracleCursor(start, self.walk_segment, self._config)

    def sample_peers(self, start, count):
        return self.cursor(start).take(count)
