"""The walk hot path: every hop of every walk runs here.

A walk is sequential — hop ``k+1`` needs hop ``k``'s position — but its
RNG demand is known up front (``per_hop * hops`` uniforms), so
:class:`WalkKernel` generates it as one array program:

* **fused RNG draws** — ``rng.random(n)`` for exactly the uniforms the
  walk consumes.  For numpy's ``Generator`` (PCG64), ``rng.random(a)``
  followed by ``rng.random(b)`` produces bit-for-bit the same doubles
  as ``rng.random(a + b)`` and leaves the stream in the same state, so
  a walk draws in fixed-size chunks without changing a single hop, and
  ``take(a); take(b)`` is bit-identical to ``take(a + b)``;
* **precomputed neighbor tables** — per-peer neighbor tuples and a
  degree list (over pooled ``int`` / ``float`` objects) materialized
  once per :class:`~repro.network.topology.
  Topology` and memoized in a :class:`weakref.WeakKeyDictionary`
  alongside the spectral profile cache.  A churn epoch freezes a *new*
  topology object, so epoch invalidation is automatic;
* **jump-thinning as a stride** — selections are emitted every
  ``jump``-th visit of the hop loop; a bare segment and a full trace
  are the same loop with stride ``hops`` and stride 1.

Neighbor *choice* stays ``int(r * degree)`` — for uniform proposals
the alias method degenerates to direct indexing (every column of the
alias table keeps probability 1), so the table would only add a
memory indirection.  :class:`AliasTable` (Vose's O(n) construction,
O(1) per draw) is used where the distribution is genuinely non-uniform:
drawing i.i.d. peers from a variant's *stationary* law
(:func:`stationary_alias`), the oracle the convergence suites sample
against.  See ``docs/performance.md``.

There is one loop per variant and no second implementation in ``src/``;
the segment-by-segment reference lives in ``tests/walk_oracle.py`` and
``tests/test_walk_kernel.py`` pins selections, hop counts and RNG
stream position against it.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, TopologyError
from .topology import Topology

__all__ = [
    "AliasTable",
    "KernelTables",
    "WalkKernel",
    "kernel_tables",
    "prime_kernel_tables",
    "stationary_alias",
]


# ---------------------------------------------------------------------------
# Alias-method sampling (Vose construction)
# ---------------------------------------------------------------------------


class AliasTable:
    """O(1) categorical sampling via Walker's alias method.

    Vose's construction: split the scaled probabilities into columns of
    equal mass 1/n, each column holding at most two outcomes — the
    column's own index and one "alias".  A draw picks a column
    uniformly and keeps it or takes its alias, so sampling is two
    uniforms and one comparison regardless of how skewed the weights
    are (Gnutella-like degree distributions included).
    """

    def __init__(self, weights: Sequence[float]):
        probs = np.asarray(weights, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise ConfigurationError("alias table needs a non-empty vector")
        if np.any(probs < 0) or not np.all(np.isfinite(probs)):
            raise ConfigurationError(
                "alias weights must be finite and non-negative"
            )
        total = float(probs.sum())
        if total <= 0.0:
            raise ConfigurationError("alias weights must not all be zero")
        n = probs.size
        scaled = probs * (n / total)
        self._prob = np.ones(n, dtype=float)
        self._alias = np.arange(n, dtype=np.int64)
        small = [i for i in range(n) if scaled[i] < 1.0]
        large = [i for i in range(n) if scaled[i] >= 1.0]
        while small and large:
            lo = small.pop()
            hi = large.pop()
            self._prob[lo] = scaled[lo]
            self._alias[lo] = hi
            scaled[hi] = (scaled[hi] + scaled[lo]) - 1.0
            if scaled[hi] < 1.0:
                small.append(hi)
            else:
                large.append(hi)
        # Leftovers are exactly-1 columns up to roundoff.
        for i in small + large:
            self._prob[i] = 1.0
            self._alias[i] = i

    def __len__(self) -> int:
        return int(self._prob.size)

    @property
    def probabilities(self) -> np.ndarray:
        """Column keep-probabilities (read-only view; diagnostics)."""
        view = self._prob.view()
        view.flags.writeable = False
        return view

    @property
    def aliases(self) -> np.ndarray:
        """Column alias indices (read-only view; diagnostics)."""
        view = self._alias.view()
        view.flags.writeable = False
        return view

    def pick(self, column_u: float, keep_u: float) -> int:
        """One draw from two uniforms in ``[0, 1)``."""
        column = int(column_u * self._prob.size)
        if keep_u < self._prob[column]:
            return column
        return int(self._alias[column])

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` i.i.d. draws, vectorized (one comparison per draw)."""
        if size < 0:
            raise ConfigurationError("size must be >= 0")
        columns = rng.integers(self._prob.size, size=size)
        keep = rng.random(size)
        take_alias = keep >= self._prob[columns]
        out = np.where(take_alias, self._alias[columns], columns)
        return out.astype(np.int64)


# ---------------------------------------------------------------------------
# Per-topology tables (memoized like the spectral profile)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class KernelTables:
    """Plain-python adjacency of one topology, shaped for the hot loop.

    ``neighbors[p]`` is peer ``p``'s neighbors as a tuple in CSR order
    (so ``neighbors[p][k] == indices[indptr[p] + k]``) and
    ``degrees[p]`` its length.
    Scalar indexing of a python sequence per peer beats both numpy
    scalar indexing and flat-list ``indptr`` arithmetic on this loop.

    The objects are *pooled*: every row entry naming peer ``q`` is the
    same ``int`` object, and every peer of degree ``d`` shares one
    ``float``.  A served walk is a few hundred hops begun after a
    batch visit's array passes have flushed the cache, so a hop costs
    what it has to fetch, and that grows with the network — one
    ``int`` per CSR entry, one ``float`` and one ``list`` (header plus
    item array) per peer were 5.7 MB at 22,556 peers (95,007 ``int``
    and 22,556 ``float`` objects) against 2.8 MB pooled (22,556 and
    85; a tuple's items sit inline in its header).  Tuples of ints
    are also untracked by the cyclic GC.

    ``degrees`` holds *floats*: every hop multiplies the degree by a
    uniform, and CPython's float-float multiply is measurably faster
    than float-int while producing the identical double (int-to-double
    conversion is exact for any degree below 2**53, and that conversion
    is exactly what a float-int multiply performs anyway).  Comparisons
    against these degrees are exact for the same reason.
    """

    neighbors: List[Tuple[int, ...]]
    degrees: List[float]


# Topologies are immutable; churn epochs freeze *new* Topology objects
# (LiveNetwork.snapshot), so weak keying both shares tables across every
# walker on one epoch and invalidates them with the epoch.
_TABLE_CACHE: "weakref.WeakKeyDictionary[Topology, KernelTables]" = (
    weakref.WeakKeyDictionary()
)

_ALIAS_CACHE: (
    "weakref.WeakKeyDictionary[Topology, dict[str, AliasTable]]"
) = weakref.WeakKeyDictionary()


def _memoize_tables(
    topology: Topology, indptr: np.ndarray, indices: np.ndarray
) -> KernelTables:
    """Build ``topology``'s tables from a CSR pair and memoize them."""
    # One ``int`` per peer id and one ``float`` per distinct degree,
    # shared by every row that names them (see :class:`KernelTables`):
    # gathering from an object array copies references, not ints.
    ids = np.arange(topology.num_peers).astype(object)
    flat = ids[indices].tolist()
    neighbors = [
        tuple(flat[start:stop])
        for start, stop in itertools.pairwise(indptr.tolist())
    ]
    top = max(map(len, neighbors))
    floats = [float(degree) for degree in range(top + 1)]
    tables = KernelTables(
        neighbors=neighbors,
        degrees=[floats[len(row)] for row in neighbors],
    )
    _TABLE_CACHE[topology] = tables
    return tables


def kernel_tables(topology: Topology) -> KernelTables:
    """The (memoized) kernel tables for ``topology``."""
    cached = _TABLE_CACHE.get(topology)
    if cached is not None:
        return cached
    return _memoize_tables(topology, topology.indptr, topology.indices)


def prime_kernel_tables(
    topology: Topology,
    indptr: np.ndarray,
    indices: np.ndarray,
) -> KernelTables:
    """Build and memoize ``topology``'s tables from external CSR arrays.

    Sharded-service workers attach the parent's CSR arrays from shared
    memory (:mod:`repro.service.shm`) and prime the table cache from
    *those* instead of re-reading ``topology``'s own (fork-inherited,
    copy-on-write) arrays — the resulting python tables are
    necessarily per-process either way, but the source pages stay
    shared.  The arrays must be the same CSR the topology describes;
    the tables are keyed on the topology object exactly like
    :func:`kernel_tables`, so subsequent kernel lookups hit this cache.
    """
    cached = _TABLE_CACHE.get(topology)
    if cached is not None:
        return cached
    if indptr.size != topology.num_peers + 1:
        raise ConfigurationError(
            f"indptr has {indptr.size} entries, topology needs "
            f"{topology.num_peers + 1}"
        )
    if indices.size != int(indptr[-1]):
        raise ConfigurationError(
            f"indices has {indices.size} entries, indptr ends at "
            f"{int(indptr[-1])}"
        )
    return _memoize_tables(topology, indptr, indices)


def stationary_alias(topology: Topology, variant: str) -> AliasTable:
    """Alias table over ``variant``'s stationary distribution.

    Memoized per ``(topology, variant)`` with the same weak-key
    lifetime as the kernel tables.  This is the one place the alias
    method earns its keep: the stationary law is degree-skewed, and
    i.i.d. draws from it are the oracle distribution walks converge to.
    """
    if topology.num_edges == 0:
        raise TopologyError("stationary distribution of an edgeless graph")
    per_topology = _ALIAS_CACHE.setdefault(topology, {})
    cached = per_topology.get(variant)
    if cached is not None:
        return cached
    degrees = topology.degrees.astype(float)
    if variant == "self-inclusive":
        weights = degrees + 1.0
    elif variant == "metropolis-uniform":
        weights = np.ones(topology.num_peers, dtype=float)
    elif variant in ("simple", "lazy"):
        weights = degrees
    else:
        raise ConfigurationError(f"unknown walk variant {variant!r}")
    table = AliasTable(weights)
    per_topology[variant] = table
    return table


# ---------------------------------------------------------------------------
# Fused hop loops (one per variant — the only code that advances a walk)
# ---------------------------------------------------------------------------
#
# Each loop iterates one chunk of uniforms directly (``for r in randoms``
# is the cheapest sequential access CPython offers — measurably faster
# than a bound ``__next__``) and implements jump-thinning as a countdown
# stride: ``left`` hops remain until the next selection, reset to
# ``jump`` after each.  ``(current, left)`` is returned so the next chunk
# resumes mid-stride.  The float expressions are load-bearing, e.g.
# lazy's ``(r - 0.5) * 2.0`` cannot be rewritten without moving int()
# cutoffs by an ulp (``tests/walk_oracle.py`` is the reference).

_Emit = Callable[[int], None]
_Rows = List[Tuple[int, ...]]
_HopLoop = Callable[
    [_Rows, List[float], List[float], int, int, int, _Emit],
    Tuple[int, int],
]


def _hops_simple(
    nbrs: _Rows,
    degs: List[float],
    randoms: List[float],
    current: int,
    left: int,
    jump: int,
    emit: _Emit,
) -> Tuple[int, int]:
    for r in randoms:
        current = nbrs[current][int(r * degs[current])]
        left -= 1
        if not left:
            emit(current)
            left = jump
    return current, left


def _hops_lazy(
    nbrs: _Rows,
    degs: List[float],
    randoms: List[float],
    current: int,
    left: int,
    jump: int,
    emit: _Emit,
) -> Tuple[int, int]:
    for r in randoms:
        if r >= 0.5:
            r = (r - 0.5) * 2.0
            current = nbrs[current][int(r * degs[current])]
        left -= 1
        if not left:
            emit(current)
            left = jump
    return current, left


def _hops_inclusive(
    nbrs: _Rows,
    degs: List[float],
    randoms: List[float],
    current: int,
    left: int,
    jump: int,
    emit: _Emit,
) -> Tuple[int, int]:
    for r in randoms:
        degree = degs[current]
        pick = int(r * (degree + 1))
        if pick < degree:
            current = nbrs[current][pick]
        left -= 1
        if not left:
            emit(current)
            left = jump
    return current, left


def _hops_metropolis(
    nbrs: _Rows,
    degs: List[float],
    randoms: List[float],
    current: int,
    left: int,
    jump: int,
    emit: _Emit,
) -> Tuple[int, int]:
    pairs = iter(randoms)
    for r in pairs:
        accept = next(pairs)
        degree = degs[current]
        proposal = nbrs[current][int(r * degree)]
        # Accept with min(1, deg(u)/deg(v)): uniform target.
        if accept * degs[proposal] < degree:
            current = proposal
        left -= 1
        if not left:
            emit(current)
            left = jump
    return current, left


def _hops_weighted(
    weights: List[float],
    nbrs: _Rows,
    degs: List[float],
    randoms: List[float],
    current: int,
    left: int,
    jump: int,
    emit: _Emit,
) -> Tuple[int, int]:
    pairs = iter(randoms)
    for r in pairs:
        accept = next(pairs)
        degree = degs[current]
        proposal = nbrs[current][int(r * degree)]
        # accept iff u < (w_v * deg_u) / (w_u * deg_v)
        if (
            accept * weights[current] * degs[proposal]
            < weights[proposal] * degree
        ):
            current = proposal
        left -= 1
        if not left:
            emit(current)
            left = jump
    return current, left


_HOP_LOOPS: Dict[str, _HopLoop] = {
    "simple": _hops_simple,
    "lazy": _hops_lazy,
    "self-inclusive": _hops_inclusive,
    "metropolis-uniform": _hops_metropolis,
}

# Uniforms per RNG draw.  A constant, not an option: splitting a draw
# never changes the stream, it only bounds the float list a long walk
# holds at once.  Even, so a Metropolis (propose, accept) pair never
# straddles two draws.
_CHUNK = 1 << 16


def _discard(peer: int) -> None:
    """Selection sink of a bare segment."""


class WalkKernel:
    """Every hop of one walker's RNG stream.

    A walk of ``hops`` hops draws exactly ``per_hop * hops`` uniforms
    — as one ``rng.random`` call when they fit in a chunk, in
    fixed-size chunks otherwise — and runs them through the variant's
    fused loop.  :meth:`take` is the sampling walk (burn-in, then every
    ``jump``-th visit), :meth:`advance` a bare segment and
    :meth:`trace` every visit; all three are the same loop with a
    different stride.  Passing ``weights`` selects the weighted
    Metropolis–Hastings accept rule (``variant`` is then unused).
    """

    def __init__(
        self,
        tables: KernelTables,
        rng: np.random.Generator,
        variant: str,
        jump: int,
        burn_in: int,
        weights: Optional[List[float]] = None,
    ):
        if jump < 1 or burn_in < 0:
            raise ConfigurationError("kernel needs jump >= 1, burn_in >= 0")
        self._tables = tables
        self._rng = rng
        self._jump = jump
        self._burn_in = burn_in
        if weights is not None:
            self._loop: _HopLoop = functools.partial(_hops_weighted, weights)
            self._per_hop = 2  # uniforms per hop: propose + accept
        elif variant in _HOP_LOOPS:
            self._loop = _HOP_LOOPS[variant]
            self._per_hop = 2 if variant == "metropolis-uniform" else 1
        else:
            raise ConfigurationError(f"unknown walk variant {variant!r}")

    def _run(
        self, current: int, left: int, jump: int, hops: int, emit: _Emit
    ) -> int:
        """Walk ``hops`` hops from ``current``; returns the endpoint.

        ``emit`` receives the peer reached when the ``left`` countdown
        hits zero and every ``jump`` hops after that.
        """
        nbrs = self._tables.neighbors
        degs = self._tables.degrees
        remaining = self._per_hop * hops
        while remaining:
            size = min(remaining, _CHUNK)
            remaining -= size
            randoms = self._rng.random(size).tolist()
            current, left = self._loop(
                nbrs, degs, randoms, current, left, jump, emit
            )
        return current

    def take(
        self, current: int, count: int, first: bool
    ) -> Tuple[List[int], int]:
        """Select ``count`` peers from ``current``; ``first`` includes
        burn-in and the post-burn-in pending selection.

        Returns ``(selected, hops)``.  ``count`` must be >= 1 (the
        cursor short-circuits empty takes before the kernel).  The
        uniforms run out exactly at the ``count``-th selection.
        """
        if count < 1:
            raise ConfigurationError("kernel take needs count >= 1")
        jump = self._jump
        selected: List[int] = []
        if not first:
            left, hops = jump, count * jump
        elif self._burn_in:
            left, hops = self._burn_in, self._burn_in + (count - 1) * jump
        else:
            # Post-burn-in position is the first selection; with no
            # burn-in that is the start itself, before any hop.
            selected.append(current)
            left, hops = jump, (count - 1) * jump
        self._run(current, left, jump, hops, selected.append)
        return selected, hops

    def advance(self, current: int, hops: int) -> int:
        """The position ``hops`` hops from ``current`` (no selections).

        A zero-hop segment consumes no randomness.
        """
        return self._run(current, hops, hops, hops, _discard)

    def trace(self, current: int, hops: int) -> List[int]:
        """``current`` and every peer visited in ``hops`` hops."""
        visited = [current]
        self._run(current, 1, 1, hops, visited.append)
        return visited

