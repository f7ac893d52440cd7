"""The walk hot path: every hop of every walk runs here.

A walk is sequential — hop ``k+1`` needs hop ``k``'s position — but its
RNG demand is known up front (``per_hop * hops`` uniforms), so
:class:`WalkKernel` draws it in one ``rng.random`` call and hands the
hops to one compiled loop:

* **fused RNG draws** — ``rng.random`` fills exactly the uniforms the
  walk consumes.  For numpy's ``Generator`` (PCG64), ``rng.random(a)``
  followed by ``rng.random(b)`` produces bit-for-bit the same doubles
  as ``rng.random(a + b)`` and leaves the stream in the same state, so
  a walk draws in fixed-size chunks without changing a single hop, and
  ``take(a); take(b)`` is bit-identical to ``take(a + b)``;
* **a compiled hop loop over the topology's CSR** — ``walk_kernel.c``
  (one loop per variant) reads the topology's own ``int64``
  ``indptr`` / ``indices`` arrays and the uniforms, and writes the
  selections into an array.  No per-topology table is built: a churn
  epoch freezes a *new* topology, whose arrays the next walker reads;
* **jump-thinning as a stride** — selections are emitted every
  ``jump``-th visit of the hop loop; a bare segment and a full trace
  are the same loop with stride ``hops + 1`` and stride 1.

The C file is compiled with the package's other C code into one
library (:mod:`repro._native`), on the first import on a machine.

Neighbor *choice* is ``int(r * degree)``: for uniform proposals the
alias method degenerates to direct indexing, so a table would only add
a memory indirection.  See ``docs/performance.md``.

The segment-by-segment reference lives in ``tests/walk_oracle.py``
and ``tests/test_walk_kernel.py`` pins selections, hop counts and RNG
stream position against it.
"""

from __future__ import annotations

import ctypes
import threading
import weakref
from typing import Optional, Tuple

import numpy as np

from .._native import address, bind
from .._util import shallow_copy
from ..errors import ConfigurationError, TopologyError
from .topology import Topology

__all__ = [
    "WalkKernel",
]


# ---------------------------------------------------------------------------
# The compiled hop loop
# ---------------------------------------------------------------------------

class _Walk(ctypes.Structure):
    """``struct walk`` of ``walk_kernel.c``: one walker's loop, its
    buffers and the cursor a chunked walk carries between calls.  The
    call passes only this: each ``ctypes`` argument costs time, and a
    take is a few microseconds."""

    _fields_ = [
        ("indptr", ctypes.c_void_p),
        ("indices", ctypes.c_void_p),
        ("weights", ctypes.c_void_p),
        ("uniforms", ctypes.c_void_p),
        ("out", ctypes.c_void_p),
        ("num_peers", ctypes.c_int64),
        ("variant", ctypes.c_int64),
        ("n", ctypes.c_int64),
        ("jump", ctypes.c_int64),
        ("current", ctypes.c_int64),
        ("left", ctypes.c_int64),
        ("emitted", ctypes.c_int64),
    ]


_walk = bind("repro_walk", _Walk)


# The C loop's variant codes (the enum in walk_kernel.c).
_VARIANTS = {
    "simple": 0,
    "metropolis-uniform": 1,
}
_WEIGHTED = 2

# Uniforms per RNG draw.  A constant, not an option: splitting a draw
# never changes the stream, it only bounds the buffer a long walk
# fills at once.  Even, so a Metropolis (propose, accept) pair never
# straddles two draws.
_CHUNK = 1 << 16


# Each topology's CSR arrays as the loop reads them, with their
# addresses (``ndarray.ctypes`` costs microseconds; a walker is built
# per served query).  Weakly keyed, so it lives as long as the epoch.
_Csr = Tuple[np.ndarray, np.ndarray, int, int]
_CSR: "weakref.WeakKeyDictionary[Topology, _Csr]" = (
    weakref.WeakKeyDictionary()
)


def _csr(topology: Topology) -> _Csr:
    csr = _CSR.get(topology)
    if csr is None:
        indptr = np.ascontiguousarray(topology.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(topology.indices, dtype=np.int64)
        csr = _CSR[topology] = (
            indptr, indices, address(indptr), address(indices),
        )
    return csr


class _Buffers(threading.local):
    """This thread's uniforms and selections, allocated once (the RNG
    fill releases the GIL, so threads get their own)."""

    def __init__(self) -> None:
        self.uniforms = np.empty(_CHUNK)
        self.uniforms_at = address(self.uniforms)
        self.out = np.empty(1024, dtype=np.int64)
        self.out_at = address(self.out)

    def selections(self, count: int) -> np.ndarray:
        """The selections buffer, grown to hold ``count``."""
        if count > self.out.size:
            self.out = np.empty(max(count, 2 * self.out.size), np.int64)
            self.out_at = address(self.out)
        return self.out


_buffers = _Buffers()


class WalkKernel:
    """Every hop of one walker's RNG stream.

    A walk of ``hops`` hops draws exactly ``per_hop * hops`` uniforms
    — as one ``rng.random`` fill when they fit in a chunk, in
    fixed-size chunks otherwise — and runs them through the variant's
    compiled loop.  :meth:`take` is the sampling walk (burn-in, then
    every ``jump``-th visit), :meth:`advance` a bare segment and
    :meth:`trace` every visit; all three are the same loop with a
    different stride.  Passing ``weights`` (one positive float per
    peer) selects the weighted Metropolis–Hastings accept rule
    (``variant`` is then unused).  A kernel built with no ``rng``
    walks nothing; :meth:`reseeded` copies of it do.
    """

    def __init__(
        self,
        topology: Topology,
        rng: Optional[np.random.Generator],
        variant: str,
        jump: int,
        burn_in: int,
        weights: Optional[np.ndarray] = None,
    ):
        if jump < 1 or burn_in < 0:
            raise ConfigurationError("kernel needs jump >= 1, burn_in >= 0")
        self._rng = rng
        self._jump = jump
        self._burn_in = burn_in
        # Held here too: a cursor may outlive every other reference to
        # the topology, and the loop reads these arrays.
        self._csr = indptr, _, indptr_at, indices_at = _csr(topology)
        weights_at = None
        if weights is not None:
            self._weights = np.ascontiguousarray(weights, dtype=float)
            if self._weights.shape != (topology.num_peers,):
                raise ConfigurationError("kernel needs one weight per peer")
            weights_at = address(self._weights)
            code = _WEIGHTED
        elif variant in _VARIANTS:
            code = _VARIANTS[variant]
        else:
            raise ConfigurationError(f"unknown walk variant {variant!r}")
        self._per_hop = 2 if code >= _VARIANTS["metropolis-uniform"] else 1
        self._walk = _Walk(
            indptr_at, indices_at, weights_at,
            num_peers=indptr.size - 1, variant=code,
        )

    def reseeded(self, rng: np.random.Generator) -> "WalkKernel":
        """This kernel drawing from ``rng``: the arrays and the variant
        shared, its own loop struct (a struct is one walk's cursor)."""
        kernel = shallow_copy(self)
        kernel._rng = rng
        kernel._walk = _Walk.from_buffer_copy(self._walk)
        return kernel

    def _run(
        self, current: int, left: int, jump: int, hops: int, emitted: int
    ) -> int:
        """Walk ``hops`` hops from ``current``; returns the endpoint.

        The peer reached when the ``left`` countdown hits zero, and
        every ``jump`` hops after that, is written to this thread's
        selections buffer from index ``emitted`` on.
        """
        buffers = _buffers
        walk = self._walk
        walk.uniforms = buffers.uniforms_at
        walk.out = buffers.out_at
        walk.jump = jump
        walk.current = current
        walk.left = left
        walk.emitted = emitted
        uniforms = buffers.uniforms
        rng = self._rng
        assert rng is not None, "a kernel built with no rng walks nothing"
        remaining = self._per_hop * hops
        while remaining:
            walk.n = size = min(remaining, _CHUNK)
            remaining -= size
            rng.random(out=uniforms[:size])
            current = _walk(walk)
        if current < 0:
            raise TopologyError(
                f"cannot walk from peer {walk.current}: out of range or "
                "isolated"
            )
        return current

    def take(
        self, current: int, count: int, first: bool
    ) -> Tuple[np.ndarray, int]:
        """Select ``count`` peers from ``current``; ``first`` includes
        burn-in and the post-burn-in pending selection.

        Returns ``(selected, hops)``.  ``count`` must be >= 1 (the
        cursor short-circuits empty takes before the kernel).  The
        uniforms run out exactly at the ``count``-th selection.
        """
        if count < 1:
            raise ConfigurationError("kernel take needs count >= 1")
        jump = self._jump
        out = _buffers.selections(count)
        emitted = 0
        if not first:
            left, hops = jump, count * jump
        elif self._burn_in:
            left, hops = self._burn_in, self._burn_in + (count - 1) * jump
        else:
            # Post-burn-in position is the first selection; with no
            # burn-in that is the start itself, before any hop.
            out[0] = current
            emitted = 1
            left, hops = jump, (count - 1) * jump
        self._run(current, left, jump, hops, emitted)
        return out[:count].copy(), hops

    def advance(self, current: int, hops: int) -> int:
        """The position ``hops`` hops from ``current`` (no selections).

        A zero-hop segment consumes no randomness.
        """
        return self._run(current, hops + 1, hops + 1, hops, 0)

    def trace(self, current: int, hops: int) -> np.ndarray:
        """``current`` and every peer visited in ``hops`` hops."""
        out = _buffers.selections(hops + 1)
        out[0] = current
        self._run(current, 1, 1, hops, 1)
        return out[: hops + 1].copy()
