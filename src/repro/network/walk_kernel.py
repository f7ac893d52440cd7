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

The C file is compiled on the first import on a machine, with the
compiler Python was built with (``sysconfig``'s ``CC``), into the
per-user cache (``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``),
keyed by a hash of the source, the flags and the platform, and loaded
through :mod:`ctypes`.  An import that finds the library built starts
no child process.  A missing compiler or an unwritable cache raises
:class:`~repro.errors.KernelBuildError`; there is no second
implementation to fall back to.

Neighbor *choice* stays ``int(r * degree)`` — for uniform proposals
the alias method degenerates to direct indexing (every column of the
alias table keeps probability 1), so the table would only add a
memory indirection.  :class:`AliasTable` (Vose's O(n) construction,
O(1) per draw) is used where the distribution is genuinely non-uniform:
drawing i.i.d. peers from a variant's *stationary* law
(:func:`stationary_alias`), the oracle the convergence suites sample
against.  See ``docs/performance.md``.

The segment-by-segment reference lives in ``tests/walk_oracle.py``
and ``tests/test_walk_kernel.py`` pins selections, hop counts and RNG
stream position against it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import sysconfig
import threading
import weakref
from pathlib import Path
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, KernelBuildError, TopologyError
from .topology import Topology

__all__ = [
    "AliasTable",
    "WalkKernel",
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


_ALIAS_CACHE: (
    "weakref.WeakKeyDictionary[Topology, dict[str, AliasTable]]"
) = weakref.WeakKeyDictionary()


def stationary_alias(topology: Topology, variant: str) -> AliasTable:
    """Alias table over ``variant``'s stationary distribution.

    Memoized per ``(topology, variant)``, weakly keyed on the topology
    (a churn epoch freezes a new one).  This is the one place the alias
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
# The compiled hop loop
# ---------------------------------------------------------------------------

_SOURCE = Path(__file__).with_name("walk_kernel.c")

#: Where built libraries are kept: one per source, flags and platform.
_CACHE_DIR = (
    Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    / "repro"
)

#: The compiler command Python was built with.
_CC = sysconfig.get_config_var("CC") or ""

# -ffp-contract=off: no product may be fused into a multiply-add, or
# an int() cutoff or an accept test moves by an ulp.  No fast-math.
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


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


def _build(library: Path) -> None:
    """Compile ``walk_kernel.c`` to ``library``.

    The compiler writes a name of this process's own, which is then
    renamed into place, so a concurrent first import on the same
    machine only ever loads a complete file.
    """
    import subprocess  # the cold path only: a warm import spawns nothing

    directory = library.parent
    if not _CC:
        raise KernelBuildError(
            f"cannot build the walk kernel into {directory}: Python "
            "names no C compiler (sysconfig CC is empty)"
        )
    partial = directory / f".{library.name}.{os.getpid()}"
    try:
        directory.mkdir(parents=True, exist_ok=True)
        partial.touch()
    except OSError as error:
        raise KernelBuildError(
            f"cannot build the walk kernel with {_CC!r}: the cache "
            f"directory {directory} is not writable ({error})"
        ) from error
    command = [*shlex.split(_CC), *_FLAGS, "-o", str(partial), str(_SOURCE)]
    try:
        subprocess.run(command, check=True, capture_output=True, text=True)
    except OSError as error:
        raise KernelBuildError(
            f"cannot build the walk kernel into {directory}: the C "
            f"compiler {_CC!r} did not run ({error})"
        ) from error
    except subprocess.CalledProcessError as error:
        raise KernelBuildError(
            f"cannot build the walk kernel into {directory}: {_CC!r} "
            f"exited {error.returncode}: {error.stderr.strip()}"
        ) from error
    else:
        os.replace(partial, library)
    finally:
        partial.unlink(missing_ok=True)


def _load() -> Callable[..., int]:
    """The hop loop, built into :data:`_CACHE_DIR` first if it is not
    there yet.  A ``PyDLL`` keeps the GIL over the call: a take is
    microseconds, and its buffers are this thread's."""
    key = hashlib.sha256(_SOURCE.read_bytes())
    key.update(" ".join((sysconfig.get_platform(), *_FLAGS)).encode())
    library = _CACHE_DIR / f"walk_kernel-{key.hexdigest()[:16]}.so"
    if not library.exists():
        _build(library)
    walk = ctypes.PyDLL(str(library)).repro_walk
    walk.argtypes = (ctypes.POINTER(_Walk),)
    walk.restype = ctypes.c_int64
    return walk


_walk = _load()


# The C loop's variant codes (the enum in walk_kernel.c).
_VARIANTS = {
    "simple": 0,
    "lazy": 1,
    "self-inclusive": 2,
    "metropolis-uniform": 3,
}
_WEIGHTED = 4

# Uniforms per RNG draw.  A constant, not an option: splitting a draw
# never changes the stream, it only bounds the buffer a long walk
# fills at once.  Even, so a Metropolis (propose, accept) pair never
# straddles two draws.
_CHUNK = 1 << 16


def _address(array: np.ndarray) -> int:
    return int(array.ctypes.data)


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
            indptr, indices, _address(indptr), _address(indices),
        )
    return csr


class _Buffers(threading.local):
    """This thread's uniforms and selections, allocated once (the RNG
    fill releases the GIL, so threads get their own)."""

    def __init__(self) -> None:
        self.uniforms = np.empty(_CHUNK)
        self.uniforms_at = _address(self.uniforms)
        self.out = np.empty(1024, dtype=np.int64)
        self.out_at = _address(self.out)

    def selections(self, count: int) -> np.ndarray:
        """The selections buffer, grown to hold ``count``."""
        if count > self.out.size:
            self.out = np.empty(max(count, 2 * self.out.size), np.int64)
            self.out_at = _address(self.out)
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
    (``variant`` is then unused).
    """

    def __init__(
        self,
        topology: Topology,
        rng: np.random.Generator,
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
            weights_at = _address(self._weights)
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
        remaining = self._per_hop * hops
        while remaining:
            walk.n = size = min(remaining, _CHUNK)
            remaining -= size
            self._rng.random(out=uniforms[:size])
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
