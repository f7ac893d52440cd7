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
import functools
import math
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
from ..obs.tracer import active_tracer, emit_if_tracing
from ..query.model import AggregationQuery
from .visits import AggregateVisits
from .topology import Topology
from .walk_kernel import WalkKernel, kernel_tables

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .protocol import AggregateSample
    from .simulator import NetworkSimulator
    from .visits import Visits

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


def _emit_walk(result: WalkResult) -> WalkResult:
    """Trace a completed sampling walk (no-op when tracing is off)."""
    tracer = active_tracer()
    if tracer is not None:
        tracer.emit(
            WalkEvent, result.start, result.hops, len(result),
            result.distinct_peers,
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
    """

    jump: int = 10
    burn_in: Optional[int] = None
    variant: str = "simple"
    allow_revisits: bool = True

    def __post_init__(self) -> None:
        if self.jump < 0:
            raise ConfigurationError(f"jump must be >= 0, got {self.jump}")
        if self.burn_in is not None and self.burn_in < 0:
            raise ConfigurationError("burn_in must be >= 0")
        if self.variant not in _VARIANTS:
            raise ConfigurationError(
                f"variant must be one of {_VARIANTS}, got {self.variant!r}"
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
        self, start: int, kernel: WalkKernel, config: RandomWalkConfig
    ):
        self._start = start
        self._kernel = kernel
        self._config = config
        self._current = start
        self._seen: Set[int] = set()
        self._started = False
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
        if self._config.allow_revisits:
            selected, hops = self._kernel.take(
                self._current, count, not self._started
            )
            self._started = True
            self._current = selected[-1]
        else:
            selected, hops = self._take_distinct(count)
        self._total_hops += hops
        self._total_selected += count
        return _emit_walk(
            WalkResult(
                peers=np.asarray(selected, dtype=np.int64),
                hops=hops,
                start=self._start,
            )
        )

    def _take_distinct(self, count: int) -> Tuple[List[int], int]:
        """The same walk taken one selection at a time, keeping only
        peers no earlier selection of this cursor returned."""
        jump = self._config.effective_jump
        burn_in = 0 if self._started else self._config.effective_burn_in
        hop_budget = burn_in + 1000 * jump * count + 10_000
        selected: List[int] = []
        hops = 0
        while len(selected) < count:
            (peer,), segment_hops = self._kernel.take(
                self._current, 1, not self._started
            )
            self._started = True
            self._current = peer
            hops += segment_hops
            if peer not in self._seen:
                selected.append(peer)
                self._seen.add(peer)
            elif hops > hop_budget:
                raise TopologyError(
                    f"walk could not find {count} distinct peers within "
                    f"{hop_budget} hops (graph too small?)"
                )
        return selected, hops


class RandomWalker:
    """Runs random walks over a frozen :class:`Topology`.

    Every hop — sampling takes, bare segments, traces — is generated
    by one :class:`~repro.network.walk_kernel.WalkKernel` sharing this
    walker's RNG.  The kernel (and the per-topology adjacency tables it
    reads) is looked up on the first hop, not at construction, so
    building a walker costs nothing proportional to the graph.
    """

    #: Per-peer target weights; set by :class:`WeightedMetropolisWalker`.
    _weights: Optional[List[float]] = None

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
    # Core stepping
    # ------------------------------------------------------------------

    @functools.cached_property
    def _kernel(self) -> WalkKernel:
        return WalkKernel(
            tables=kernel_tables(self._topology),
            rng=self._rng,
            variant=self._config.variant,
            jump=self._config.effective_jump,
            burn_in=self._config.effective_burn_in,
            weights=self._weights,
        )

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
        return self._kernel.advance(current, 1)

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
        return np.asarray(self._kernel.trace(start, hops), dtype=np.int64)

    def cursor(self, start: int) -> WalkCursor:
        """A resumable sampling walk from ``start``.

        The cursor selects peers in chunks (:meth:`WalkCursor.take`)
        while consuming this walker's RNG exactly as one
        :meth:`sample_peers` call for the combined count would, so
        chunked collection is bit-identical to single-shot collection.
        """
        self._check_start(start)
        return WalkCursor(start, self._kernel, self._config)

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
        return self._kernel.advance(start, hops)

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
        # The kernel steps by the weights, not the variant string; pin
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
        self._weights = weights.tolist()
        self._weight_total = float(weights.sum())

    @property
    def weights(self) -> np.ndarray:
        """The (unnormalized) target weights."""
        return np.asarray(self._weights)

    def stationary_probabilities(self) -> np.ndarray:
        """``w(p) / sum(w)`` — the walk's exact stationary law."""
        return np.asarray(self._weights) / self._weight_total


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
        # Chained so NaN fails too: a NaN backoff would poison
        # QueryCost.latency_ms through record_wait.
        if not 0 <= self.backoff_base_ms < math.inf:
            raise ConfigurationError("backoff_base_ms must be finite and >= 0")
        if not 1.0 <= self.backoff_factor < math.inf:
            raise ConfigurationError("backoff_factor must be finite and >= 1")
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


#: What one successful probe yields: the surviving peer's id for a
#: reply of fixed size (its rows are read later), a one-row sample for
#: a reply sized by its rows.
_R = TypeVar("_R")
#: A reply kind's sample.
_S = TypeVar("_S")


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

    One collection serves any reply kind: the loop above decides,
    charges and traces every probe, and a reply of fixed size
    (aggregate, panel) is *fate per probe, data per collection* — the
    surviving peers' rows are read afterwards in one vectorised pass,
    in survival order.  A reply sized by its rows (values, GROUP BY) is
    read as its probe lands: its charge depends on the rows it ships
    (:meth:`~repro.network.simulator.NetworkSimulator.probe_visit`).
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
        """Probe one peer up to ``max_attempts`` times; a probe that
        gets through yields whatever ``visit`` returns."""
        policy = self._policy
        for attempt in range(policy.max_attempts):
            if attempt > 0:
                wait = policy.backoff_ms(attempt - 1)
                ledger.record_wait(wait)
                counters["backoff_wait_ms"] += wait
                counters["retries"] += 1
                emit_if_tracing(RetryEvent, peer, attempt, wait)
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
        collected: List[_R] = []
        for target in walk.peers:
            peer = int(target)
            while True:
                outcome, result = self._attempt(peer, ledger, visit, counters)
                if outcome is _ProbeOutcome.OK and result is not None:
                    collected.append(result)
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
                    emit_if_tracing(SubstituteEvent, failed, peer, jump)
                    continue
                break  # exhausted retries or substitution budget: drop
        stats = CollectionStats(
            requested=count,
            received=len(collected),
            attempts=int(counters["attempts"]),
            retries=int(counters["retries"]),
            losses=int(counters["losses"]),
            timeouts=int(counters["timeouts"]),
            crashes=int(counters["crashes"]),
            substitutions=int(counters["substitutions"]),
            backoff_wait_ms=counters["backoff_wait_ms"],
            walk_hops=walk_hops,
        )
        return collected, stats

    # ------------------------------------------------------------------

    def collect(
        self,
        visits: "Visits[_S]",
        count: int,
        ledger: CostLedger,
        probe_bytes: int,
    ) -> Tuple[_S, CollectionStats]:
        """Collect up to ``count`` replies of any kind, resiliently, as
        one sample in survival order.

        What the whole collection fixes is checked once, before the
        walk (``visits.check()``): a rejected argument raises with no
        hop walked, charged or traced and no clock moved.  Each probe
        is :meth:`~repro.network.simulator.NetworkSimulator.probe_visit`
        and the sample is read from what the probes returned by
        :meth:`~repro.network.simulator.NetworkSimulator.read_visits`.
        """
        visits.check()
        simulator = self._simulator
        probe = functools.partial(
            simulator.probe_visit, visits=visits, ledger=ledger
        )
        parts, stats = self._collect(
            visits.sink, count, ledger, probe_bytes, probe
        )
        return simulator.read_visits(visits, parts), stats

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
    ) -> Tuple["AggregateSample", CollectionStats]:
        """:meth:`collect` of up to ``count`` aggregate replies."""
        return self.collect(
            AggregateVisits(
                self._simulator, query, sink, tuples_per_peer,
                sampling_method, seed,
            ),
            count, ledger, probe_bytes,
        )
