"""Markov-chain random walks on the P2P graph (paper §3.3, §4).

The walk starts at the sink, repeatedly moves to a uniformly random
neighbor, and selects every ``j``-th visited peer for the sample (the
paper's *jump size*, which decorrelates consecutive selections).  After
enough hops the walk's location is distributed close to the stationary
distribution ``prob(p) = deg(p) / (2|E|)``, which is *not* uniform —
the estimators in :mod:`repro.core` divide this skew out.

Walk variants
-------------

``"simple"``
    Uniform over neighbors.  Stationary distribution ``deg/2|E|`` —
    the distribution in the paper's formulas.
``"lazy"``
    With probability 1/2 stay put, else move to a uniform neighbor.
    Same stationary distribution, but aperiodic even on bipartite
    graphs; the classic fix when convergence is in doubt.
``"self-inclusive"``
    Uniform over neighbors *and itself* (the paper's "self loops are
    allowed" phrasing taken literally).  Stationary distribution
    ``(deg+1) / (2|E| + M)``.
``"metropolis-uniform"``
    Metropolis–Hastings correction: propose a uniform neighbor ``v``
    and accept with ``min(1, deg(u)/deg(v))``, else stay.  Stationary
    distribution is exactly *uniform* ``1/M`` — the upgrade suggested
    by the random-peer-sampling literature the paper builds on
    ([14, 21]).  Estimation then needs no degree compensation at all,
    at the price of a somewhat slower walk (rejections).

:meth:`RandomWalker.stationary_probabilities` always matches the chosen
variant so estimation stays unbiased regardless.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

import numpy as np
from numpy.typing import ArrayLike

from .._util import SeedLike, ensure_rng
from ..errors import (
    ConfigurationError,
    PeerCrashedError,
    PeerUnavailableError,
    ProbeTimeoutError,
    TopologyError,
)
from ..metrics.cost import CostLedger
from ..obs.events import RetryEvent, SubstituteEvent, WalkEvent
from ..obs.tracer import active_tracer
from ..query.model import AggregationQuery
from .topology import Topology
from .walk_kernel import WalkKernel, kernel_tables

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .protocol import AggregateReply, TupleReply
    from .simulator import NetworkSimulator

__all__ = [
    "RandomWalkConfig",
    "WalkResult",
    "WalkCursor",
    "RandomWalker",
    "WeightedMetropolisWalker",
    "RetryPolicy",
    "CollectionStats",
    "ResilientCollector",
]

_VARIANTS = ("simple", "lazy", "self-inclusive", "metropolis-uniform")
_KERNELS = ("auto", "stepwise", "vectorized")
_RANDOM_BLOCK = 8192


def _emit_walk(result: WalkResult) -> WalkResult:
    """Trace a completed sampling walk (no-op when tracing is off)."""
    tracer = active_tracer()
    if tracer is not None:
        tracer.emit(
            WalkEvent(
                start=result.start,
                hops=result.hops,
                selected=len(result),
                distinct=result.distinct_peers,
            )
        )
    return result


@dataclasses.dataclass(frozen=True)
class RandomWalkConfig:
    """Parameters of the sampling walk.

    Attributes
    ----------
    jump:
        The paper's ``j``: number of hops between selected peers.  A
        value of 1 (or the paper's degenerate 0, normalized to 1)
        selects every visited peer — the "DFS" baseline of Figure 7.
    burn_in:
        Hops to take before the first selection so the walk forgets
        the sink.  The paper folds this into the fixed walk length; we
        expose it separately (default: one jump's worth).
    variant:
        One of ``"simple"``, ``"lazy"``, ``"self-inclusive"``.
    allow_revisits:
        Peers may be selected multiple times (sampling with
        replacement).  The paper's derivations assume replacement;
        disabling it is available for ablations.
    kernel:
        Walk-generation strategy.  ``"auto"`` (default) uses the
        vectorized kernel whenever it is bit-identical to stepwise
        stepping and falls back silently otherwise; ``"stepwise"``
        forces the per-segment loop; ``"vectorized"`` forces the
        kernel and raises :class:`ConfigurationError` when the
        configuration is ineligible (see
        :meth:`RandomWalker.kernel_ineligibility`).
    """

    jump: int = 10
    burn_in: Optional[int] = None
    variant: str = "simple"
    allow_revisits: bool = True
    kernel: str = "auto"

    def __post_init__(self) -> None:
        if self.jump < 0:
            raise ConfigurationError(f"jump must be >= 0, got {self.jump}")
        if self.burn_in is not None and self.burn_in < 0:
            raise ConfigurationError("burn_in must be >= 0")
        if self.variant not in _VARIANTS:
            raise ConfigurationError(
                f"variant must be one of {_VARIANTS}, got {self.variant!r}"
            )
        if self.kernel not in _KERNELS:
            raise ConfigurationError(
                f"kernel must be one of {_KERNELS}, got {self.kernel!r}"
            )

    @property
    def effective_jump(self) -> int:
        """``jump`` with the degenerate 0 normalized to 1."""
        return max(1, self.jump)

    @property
    def effective_burn_in(self) -> int:
        """``burn_in``, defaulting to one jump's worth of hops."""
        if self.burn_in is None:
            return self.effective_jump
        return self.burn_in


@dataclasses.dataclass(frozen=True)
class WalkResult:
    """Outcome of one sampling walk.

    Attributes
    ----------
    peers:
        Selected peer ids, in selection order (may repeat).
    hops:
        Total hops the walker performed, including burn-in and jumped
        over peers.  This is the message count of the walk.
    start:
        The sink the walk started from.
    """

    peers: np.ndarray
    hops: int
    start: int

    def __len__(self) -> int:
        return int(self.peers.shape[0])

    @property
    def distinct_peers(self) -> int:
        """Number of distinct peers in the selection."""
        return int(np.unique(self.peers).size)


class WalkCursor:
    """A resumable sampling walk — the scheduler's fairness primitive.

    Obtained from :meth:`RandomWalker.cursor`.  Each :meth:`take` call
    continues the *same* walk where the previous call left off:
    burn-in happens exactly once (before the first selection), the
    distinct-peer filter spans all takes, and the walker RNG is
    consumed in exactly the same order as a single
    :meth:`RandomWalker.sample_peers` call for the combined count.
    ``cursor.take(a)`` followed by ``cursor.take(b)`` therefore selects
    bit-identically the peers ``sample_peers(start, a + b)`` would —
    which is what lets a query service interleave walker steps from
    many in-flight queries without perturbing any of them.

    The per-take hop budget mirrors the single-shot budget: generous
    enough that it only trips on pathologically small graphs in
    distinct-peer mode.
    """

    def __init__(
        self,
        start: int,
        segment: Callable[[int, int], int],
        config: RandomWalkConfig,
        kernel: Optional[WalkKernel] = None,
    ):
        self._start = start
        self._segment = segment
        self._config = config
        self._kernel = kernel
        self._current = start
        self._seen: Set[int] = set()
        self._started = False
        self._pending_selection = False
        self._total_hops = 0
        self._total_selected = 0

    @property
    def start(self) -> int:
        """The sink this walk started from."""
        return self._start

    @property
    def position(self) -> int:
        """The walker's current peer."""
        return self._current

    @property
    def total_hops(self) -> int:
        """Hops performed across all takes so far."""
        return self._total_hops

    @property
    def total_selected(self) -> int:
        """Peers selected across all takes so far."""
        return self._total_selected

    def take(self, count: int) -> WalkResult:
        """Select the next ``count`` peers of this walk.

        Returns a :class:`WalkResult` covering only this take: its
        ``hops`` are the hops performed *by this call* (including
        burn-in on the first take), so callers charge each take to the
        ledger as they would a standalone walk.
        """
        if count < 0:
            raise ConfigurationError("count must be >= 0")
        if count == 0:
            return _emit_walk(
                WalkResult(
                    peers=np.empty(0, dtype=np.int64),
                    hops=0,
                    start=self._start,
                )
            )
        if self._kernel is not None:
            return self._take_vectorized(count)
        return self._take(count)

    def _take(self, count: int) -> WalkResult:
        """Stepwise take: advance segment by segment (scalar path)."""
        jump = self._config.effective_jump
        hops = 0
        budget_base = 0
        if not self._started:
            burn_in = self._config.effective_burn_in
            if burn_in:
                self._current = self._segment(self._start, burn_in)
            hops = burn_in
            budget_base = burn_in
            self._started = True
            self._pending_selection = True  # post-burn-in position counts
        selected: List[int] = []
        hop_budget = budget_base + 1000 * jump * max(count, 1) + 10_000
        while len(selected) < count:
            if not self._pending_selection:
                self._current = self._segment(self._current, jump)
                hops += jump
            self._pending_selection = False
            if self._config.allow_revisits or self._current not in self._seen:
                selected.append(self._current)
                self._seen.add(self._current)
            elif hops > hop_budget:
                raise TopologyError(
                    f"walk could not find {count} distinct peers within "
                    f"{hop_budget} hops (graph too small?)"
                )
        self._total_hops += hops
        self._total_selected += count
        return _emit_walk(
            WalkResult(
                peers=np.asarray(selected, dtype=np.int64),
                hops=hops,
                start=self._start,
            )
        )

    def _take_vectorized(self, count: int) -> WalkResult:
        """Kernel take: one fused RNG draw, bit-identical to `_take`.

        The walker establishes eligibility *before* handing a kernel
        to the cursor (``allow_revisits`` on, segments within one RNG
        block, stock stepping), so this path never consults the seen
        set or the hop budget — the stepwise path provably would not
        have either.
        """
        assert self._kernel is not None
        first = not self._started
        selected, hops = self._kernel.take(self._current, count, first)
        self._started = True
        self._pending_selection = False
        self._current = selected[-1]
        if not self._config.allow_revisits:  # pragma: no cover - guarded
            self._seen.update(selected)
        self._total_hops += hops
        self._total_selected += count
        return _emit_walk(
            WalkResult(
                peers=np.asarray(selected, dtype=np.int64),
                hops=hops,
                start=self._start,
            )
        )


class RandomWalker:
    """Runs random walks over a frozen :class:`Topology`.

    Stepping reads the plain-python adjacency memoized per topology by
    :func:`~repro.network.walk_kernel.kernel_tables` (scalar indexing
    of python lists is several times faster than numpy scalar
    indexing, and the walk is inherently sequential).  The tables are
    looked up on the first hop, not at construction, so building a
    walker costs nothing proportional to the graph.
    """

    def __init__(
        self,
        topology: Topology,
        config: Optional[RandomWalkConfig] = None,
        seed: SeedLike = None,
    ):
        self._topology = topology
        self._config = config or RandomWalkConfig()
        self._rng = ensure_rng(seed)
        if topology.num_edges == 0:
            raise TopologyError("cannot walk an edgeless topology")

    @property
    def topology(self) -> Topology:
        """The topology this walker runs on."""
        return self._topology

    @property
    def config(self) -> RandomWalkConfig:
        """The walk configuration."""
        return self._config

    # ------------------------------------------------------------------
    # Stationary distribution matching the variant
    # ------------------------------------------------------------------

    def stationary_probabilities(self) -> np.ndarray:
        """Per-peer stationary probability for the configured variant."""
        degrees = self._topology.degrees.astype(float)
        if self._config.variant == "self-inclusive":
            total = 2.0 * self._topology.num_edges + self._topology.num_peers
            return (degrees + 1.0) / total
        if self._config.variant == "metropolis-uniform":
            return np.full(
                self._topology.num_peers, 1.0 / self._topology.num_peers
            )
        return self._topology.stationary_distribution()

    def stationary_probability(self, peer: int) -> float:
        """Stationary probability of one peer for this variant."""
        return float(self.stationary_probabilities()[peer])

    # ------------------------------------------------------------------
    # Vectorized kernel eligibility
    # ------------------------------------------------------------------

    def _kernel_per_hop(self) -> int:
        """Uniforms the stepwise segment consumes per hop."""
        return 2 if self._config.variant == "metropolis-uniform" else 1

    def _stock_stepping(self) -> bool:
        """Whether stepping is the stock ``RandomWalker`` segment."""
        if "_walk_segment" in self.__dict__:  # instance monkey-patch
            return False
        # reprolint: disable=RL002 -- method-identity probe, no bypass
        stock = RandomWalker._walk_segment
        return type(self)._walk_segment is stock

    def kernel_ineligibility(self) -> Optional[str]:
        """Why the vectorized kernel cannot be used, or ``None``.

        The kernel is bit-identical to stepwise stepping only when:

        * revisits are allowed — distinct-peer mode interleaves hop
          generation with the seen-set filter and the hop budget,
          which cannot be sized up front;
        * every stepwise segment fits in one RNG block
          (``per_hop * hops <= 8192``) — a longer segment refills
          mid-loop and discards the tail of its final block, which a
          fused draw cannot reproduce;
        * stepping is the stock segment — a subclass or monkey-patched
          ``_walk_segment`` carries semantics the kernel does not know.
        """
        if not self._config.allow_revisits:
            return "distinct-peer mode needs the per-hop seen-set filter"
        per_hop = self._kernel_per_hop()
        if per_hop * self._config.effective_jump > _RANDOM_BLOCK:
            return (
                f"jump segment needs more than {_RANDOM_BLOCK} randoms; "
                "stepwise block refills are not reproducible"
            )
        if per_hop * self._config.effective_burn_in > _RANDOM_BLOCK:
            return (
                f"burn-in segment needs more than {_RANDOM_BLOCK} randoms; "
                "stepwise block refills are not reproducible"
            )
        if not self._stock_stepping():
            return "custom _walk_segment stepping cannot be batched"
        return None

    def _make_kernel(self) -> WalkKernel:
        """Build the fused-draw kernel sharing this walker's RNG."""
        return WalkKernel(
            tables=kernel_tables(self._topology),
            rng=self._rng,
            variant=self._config.variant,
            jump=self._config.effective_jump,
            burn_in=self._config.effective_burn_in,
        )

    def _vectorized_kernel(self) -> Optional[WalkKernel]:
        """The kernel the cursor should use, honoring ``config.kernel``."""
        mode = self._config.kernel
        if mode == "stepwise":
            return None
        reason = self.kernel_ineligibility()
        if reason is not None:
            if mode == "vectorized":
                raise ConfigurationError(
                    f"kernel='vectorized' is not available: {reason}"
                )
            return None  # auto: silent stepwise fallback
        return self._make_kernel()

    # ------------------------------------------------------------------
    # Core stepping
    # ------------------------------------------------------------------

    def _check_start(self, start: int) -> None:
        if not 0 <= start < self._topology.num_peers:
            raise TopologyError(f"start peer {start} out of range")
        if self._topology.degree(start) == 0:
            raise TopologyError(
                f"peer {start} is isolated; a walk cannot leave it"
            )

    def step(self, current: int) -> int:
        """Advance one hop from ``current`` and return the next peer."""
        self._check_start(current)
        return self._walk_segment(current, 1)

    def _walk_segment(self, current: int, hops: int) -> int:
        """Advance ``hops`` hops from ``current``; returns the endpoint."""
        tables = kernel_tables(self._topology)
        nbrs = tables.neighbors
        degs = tables.degrees
        variant = self._config.variant
        lazy = variant == "lazy"
        inclusive = variant == "self-inclusive"
        metropolis = variant == "metropolis-uniform"
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
            if lazy:
                if r < 0.5:
                    continue
                r = (r - 0.5) * 2.0
                current = nbrs[current][int(r * degree)]
            elif inclusive:
                pick = int(r * (degree + 1))
                if pick < degree:
                    current = nbrs[current][pick]
            elif metropolis:
                proposal = nbrs[current][int(r * degree)]
                accept = randoms[cursor]
                cursor += 1
                # Accept with min(1, deg(u)/deg(v)): uniform target.
                if accept * degs[proposal] < degree:
                    current = proposal
            else:
                current = nbrs[current][int(r * degree)]
        return current

    # ------------------------------------------------------------------
    # Public walks
    # ------------------------------------------------------------------

    def trace(self, start: int, hops: int) -> np.ndarray:
        """Every peer visited in ``hops`` hops (length ``hops + 1``).

        Mostly useful for diagnostics and convergence tests; the
        sampling path uses :meth:`sample_peers`.
        """
        self._check_start(start)
        if hops < 0:
            raise ConfigurationError("hops must be >= 0")
        out = np.empty(hops + 1, dtype=np.int64)
        out[0] = start
        current = start
        for i in range(hops):
            current = self._walk_segment(current, 1)
            out[i + 1] = current
        return out

    def cursor(self, start: int) -> WalkCursor:
        """A resumable sampling walk from ``start``.

        The cursor selects peers in chunks (:meth:`WalkCursor.take`)
        while consuming this walker's RNG exactly as one
        :meth:`sample_peers` call for the combined count would, so
        chunked collection is bit-identical to single-shot collection.
        The stepping capability is handed to the cursor as a bound
        method, so it works unchanged for subclasses with different
        kernels (e.g. :class:`WeightedMetropolisWalker`).  When the
        configuration is kernel-eligible, the cursor additionally
        receives a fused-draw :class:`WalkKernel` and generates whole
        takes vectorized — bit-identically, sharing the same RNG.
        """
        self._check_start(start)
        return WalkCursor(
            start=start,
            segment=self._walk_segment,
            config=self._config,
            kernel=self._vectorized_kernel(),
        )

    def sample_peers(self, start: int, count: int) -> WalkResult:
        """Select ``count`` peers by walking with the configured jump.

        This is the paper's phase-I/II walk: after ``burn_in`` hops,
        every ``jump``-th visited peer is added to the sample until
        ``count`` peers have been selected.  With ``allow_revisits``
        disabled, hops continue until ``count`` *distinct* peers are
        found (bounded by a generous hop budget).  Implemented as a
        single-take :class:`WalkCursor`.
        """
        return self.cursor(start).take(count)

    def endpoint_after(self, start: int, hops: int) -> int:
        """The walker's position after ``hops`` hops (no selections)."""
        self._check_start(start)
        if hops < 0:
            raise ConfigurationError("hops must be >= 0")
        return self._walk_segment(start, hops)

    def empirical_distribution(
        self, start: int, walks: int, hops: int
    ) -> np.ndarray:
        """Monte-Carlo estimate of the ``hops``-step distribution.

        Runs ``walks`` independent walks of ``hops`` hops from
        ``start`` and histograms the endpoints.  Convergence tests
        compare this against :meth:`stationary_probabilities`.
        """
        if walks <= 0:
            raise ConfigurationError("walks must be positive")
        counts = np.zeros(self._topology.num_peers, dtype=np.int64)
        for _ in range(walks):
            counts[self.endpoint_after(start, hops)] += 1
        return counts / float(walks)


class WeightedMetropolisWalker(RandomWalker):
    """Metropolis–Hastings walk targeting an arbitrary peer weighting.

    Given positive per-peer weights ``w``, the walk proposes a uniform
    neighbor ``v`` of the current peer ``u`` and accepts with

        min(1, (w(v) * deg(u)) / (w(u) * deg(v)))

    which makes the stationary distribution exactly ``w(p) / sum(w)``.
    This is the machinery behind *biased sampling* (the paper's §6
    open problem): weights that correlate with the per-peer aggregate
    concentrate samples where qualifying tuples live.  Uniform weights
    recover the ``"metropolis-uniform"`` variant.

    Only relative weights matter (the normalizer cancels in the accept
    ratio), so peers can compute their own weight locally — no global
    knowledge is required to *run* the walk.  The plain estimator of
    Equation 1 needs normalized probabilities, but the self-normalized
    (Hájek) estimator works from relative weights directly.
    """

    def __init__(
        self,
        topology: Topology,
        weights: ArrayLike,
        config: Optional[RandomWalkConfig] = None,
        seed: SeedLike = None,
    ):
        config = config or RandomWalkConfig()
        # The variant string is ignored by this walker's stepping; pin
        # it so stationary_probabilities below is authoritative.
        super().__init__(
            topology,
            dataclasses.replace(config, variant="simple"),
            seed=seed,
        )
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (topology.num_peers,):
            raise ConfigurationError(
                f"need one weight per peer ({topology.num_peers}), "
                f"got shape {weights.shape}"
            )
        if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
            raise ConfigurationError("weights must be positive and finite")
        self._weights: List[float] = weights.tolist()
        self._weight_total = float(weights.sum())

    @property
    def weights(self) -> np.ndarray:
        """The (unnormalized) target weights."""
        return np.asarray(self._weights)

    def stationary_probabilities(self) -> np.ndarray:
        """``w(p) / sum(w)`` — the walk's exact stationary law."""
        return np.asarray(self._weights) / self._weight_total

    def _kernel_per_hop(self) -> int:
        return 2  # propose + accept

    def _stock_stepping(self) -> bool:
        if "_walk_segment" in self.__dict__:  # instance monkey-patch
            return False
        # reprolint: disable=RL002 -- method-identity probe, no bypass
        stock = WeightedMetropolisWalker._walk_segment
        return type(self)._walk_segment is stock

    def _make_kernel(self) -> WalkKernel:
        return WalkKernel(
            tables=kernel_tables(self._topology),
            rng=self._rng,
            variant=self._config.variant,
            jump=self._config.effective_jump,
            burn_in=self._config.effective_burn_in,
            weights=self._weights,
        )

    def _walk_segment(self, current: int, hops: int) -> int:
        tables = kernel_tables(self._topology)
        nbrs = tables.neighbors
        degs = tables.degrees
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


# ---------------------------------------------------------------------------
# Fault-resilient collection (walk + visit with retry/restart)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How a resilient walker reacts when a probe fails.

    Attributes
    ----------
    max_attempts:
        Probes per target peer, including the first (>= 1).  Lost
        replies and timeouts are retried up to this bound; a crashed
        peer is never retried (it stays down for its whole window).
    backoff_base_ms:
        Wait before the first retry.  Each wait is charged to the
        ledger as sink-side latency.
    backoff_factor:
        Multiplier between consecutive waits (deterministic
        exponential backoff: ``base * factor**retry_index``).
    max_substitutions:
        Cap on restart-from-last-good-peer substitutions per
        collection; ``None`` allows one per requested peer.  The cap is
        what guarantees a collection terminates under a blanket
        outage.
    """

    max_attempts: int = 3
    backoff_base_ms: float = 50.0
    backoff_factor: float = 2.0
    max_substitutions: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base_ms < 0:
            raise ConfigurationError("backoff_base_ms must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff_factor must be >= 1")
        if self.max_substitutions is not None and self.max_substitutions < 0:
            raise ConfigurationError("max_substitutions must be >= 0")

    def backoff_ms(self, retry_index: int) -> float:
        """Wait before retry ``retry_index`` (0-based)."""
        if retry_index < 0:
            raise ConfigurationError("retry_index must be >= 0")
        return self.backoff_base_ms * self.backoff_factor**retry_index


@dataclasses.dataclass(frozen=True)
class CollectionStats:
    """What a resilient collection went through.

    ``received < requested`` means observations were lost despite
    retries and substitutions — the engine's sample has silently
    shrunk, and results built from it must carry a ``degraded`` flag.
    """

    requested: int
    received: int
    attempts: int
    retries: int
    losses: int
    timeouts: int
    crashes: int
    substitutions: int
    backoff_wait_ms: float
    walk_hops: int

    @property
    def degraded(self) -> bool:
        """Whether the sample is smaller than requested."""
        return self.received < self.requested


class _ProbeOutcome(enum.Enum):
    OK = "ok"
    CRASHED = "crashed"
    EXHAUSTED = "exhausted"


_R = TypeVar("_R", "AggregateReply", "TupleReply")


class ResilientCollector:
    """Walk-and-visit with per-probe retry, backoff and restart.

    Wraps a :class:`RandomWalker` and a
    :class:`~repro.network.simulator.NetworkSimulator` and implements
    the recovery discipline the fault subsystem calls for:

    * a lost reply or probe timeout is retried in place, up to
      ``max_attempts`` probes with deterministic exponential backoff
      (each wait charged to the ledger);
    * a *crashed* peer is not retried — the walk restarts from the
      last peer that answered (falling back to the sink before any
      success) and selects a substitute, up to ``max_substitutions``;
    * every failure mode is bounded, so a collection always
      terminates: worst case it returns fewer replies than requested,
      and the caller flags the result as degraded.
    """

    def __init__(
        self,
        walker: RandomWalker,
        simulator: "NetworkSimulator",
        policy: Optional[RetryPolicy] = None,
    ):
        self._walker = walker
        self._simulator = simulator
        self._policy = policy or RetryPolicy()

    @property
    def policy(self) -> RetryPolicy:
        """The retry policy in effect."""
        return self._policy

    # ------------------------------------------------------------------

    def _attempt(
        self,
        peer: int,
        ledger: CostLedger,
        visit: Callable[[int], _R],
        counters: Dict[str, float],
    ) -> Tuple[_ProbeOutcome, Optional[_R]]:
        """Probe one peer up to ``max_attempts`` times."""
        policy = self._policy
        for attempt in range(policy.max_attempts):
            if attempt > 0:
                wait = policy.backoff_ms(attempt - 1)
                ledger.record_wait(wait)
                counters["backoff_wait_ms"] += wait
                counters["retries"] += 1
                tracer = active_tracer()
                if tracer is not None:
                    tracer.emit(
                        RetryEvent(
                            peer=peer, attempt=attempt, backoff_ms=wait
                        )
                    )
            counters["attempts"] += 1
            try:
                return _ProbeOutcome.OK, visit(peer)
            except PeerCrashedError:
                counters["crashes"] += 1
                return _ProbeOutcome.CRASHED, None
            except ProbeTimeoutError:
                counters["timeouts"] += 1
            except PeerUnavailableError:
                counters["losses"] += 1
        return _ProbeOutcome.EXHAUSTED, None

    def _collect(
        self,
        sink: int,
        count: int,
        ledger: CostLedger,
        probe_bytes: int,
        visit: Callable[[int], _R],
    ) -> Tuple[List[_R], CollectionStats]:
        walk = self._walker.sample_peers(sink, count)
        self._simulator.walk_hops(
            walk.hops, ledger, message_bytes=probe_bytes
        )
        policy = self._policy
        jump = self._walker.config.effective_jump
        substitutions_left = (
            count if policy.max_substitutions is None
            else policy.max_substitutions
        )
        counters: Dict[str, float] = {
            "attempts": 0,
            "retries": 0,
            "losses": 0,
            "timeouts": 0,
            "crashes": 0,
            "substitutions": 0,
            "backoff_wait_ms": 0.0,
        }
        walk_hops = walk.hops
        last_good = sink
        replies: List[_R] = []
        for target in walk.peers:
            peer = int(target)
            while True:
                outcome, reply = self._attempt(peer, ledger, visit, counters)
                if outcome is _ProbeOutcome.OK and reply is not None:
                    replies.append(reply)
                    last_good = peer
                    break
                if (
                    outcome is _ProbeOutcome.CRASHED
                    and substitutions_left > 0
                ):
                    # The paper's walk only ever needs a live neighbor
                    # chain: restart from the last peer that answered
                    # and walk one jump to a substitute selection.
                    substitutions_left -= 1
                    counters["substitutions"] += 1
                    failed = peer
                    peer = self._walker.endpoint_after(last_good, jump)
                    self._simulator.walk_hops(
                        jump, ledger, message_bytes=probe_bytes
                    )
                    walk_hops += jump
                    tracer = active_tracer()
                    if tracer is not None:
                        tracer.emit(
                            SubstituteEvent(
                                failed=failed,
                                replacement=peer,
                                hops=jump,
                            )
                        )
                    continue
                break  # exhausted retries or substitution budget: drop
        stats = CollectionStats(
            requested=count,
            received=len(replies),
            attempts=int(counters["attempts"]),
            retries=int(counters["retries"]),
            losses=int(counters["losses"]),
            timeouts=int(counters["timeouts"]),
            crashes=int(counters["crashes"]),
            substitutions=int(counters["substitutions"]),
            backoff_wait_ms=counters["backoff_wait_ms"],
            walk_hops=walk_hops,
        )
        return replies, stats

    # ------------------------------------------------------------------

    def collect_aggregate(
        self,
        sink: int,
        query: AggregationQuery,
        count: int,
        ledger: CostLedger,
        probe_bytes: int,
        tuples_per_peer: int = 0,
        sampling_method: str = "uniform",
        seed: SeedLike = None,
    ) -> Tuple[List["AggregateReply"], CollectionStats]:
        """Collect up to ``count`` aggregate replies, resiliently."""

        def visit(peer: int) -> "AggregateReply":
            return self._simulator.visit_aggregate(
                peer,
                query,
                sink=sink,
                ledger=ledger,
                tuples_per_peer=tuples_per_peer,
                sampling_method=sampling_method,
                seed=seed,
            )

        return self._collect(sink, count, ledger, probe_bytes, visit)

    def collect_values(
        self,
        sink: int,
        query: AggregationQuery,
        count: int,
        ledger: CostLedger,
        probe_bytes: int,
        tuples_per_peer: int = 0,
        ship: str = "median",
        sampling_method: str = "uniform",
        seed: SeedLike = None,
    ) -> Tuple[List["TupleReply"], CollectionStats]:
        """Collect up to ``count`` value/median replies, resiliently."""

        def visit(peer: int) -> "TupleReply":
            return self._simulator.visit_values(
                peer,
                query,
                sink=sink,
                ledger=ledger,
                tuples_per_peer=tuples_per_peer,
                ship=ship,
                sampling_method=sampling_method,
                seed=seed,
            )

        return self._collect(sink, count, ledger, probe_bytes, visit)
