"""The adaptive two-phase sampling engine for COUNT/SUM/AVG (paper §4).

Execution of ``SELECT Agg(Col) FROM T WHERE ...`` with required
accuracy ``Δreq`` proceeds exactly as the paper's pseudocode:

**Phase I** — a random walk from the sink selects ``m`` peers (every
``j``-th visited peer).  Each selected peer executes the query locally
on at most ``t`` sub-sampled tuples, scales the result by
``#tuples / #processedTuples`` and replies directly to the sink with
the scaled aggregate and its degree.

**Sink analysis** — the sink reconstructs stationary probabilities
from degrees, cross-validates the sample (random halving, Theorem 3)
and derives the phase-II size ``m' = (m/2) · (CVError / Δ)²``.

**Phase II** — a second walk collects ``m'`` more peers the same way;
the final answer is the Equation-1 estimate over the collected sample.

The engine pools phase-I and phase-II observations for the final
estimate by default (both phases draw from the same stationary
distribution, so pooling is unbiased and strictly lowers variance);
``pool_phases=False`` reproduces the paper's literal phase-II-only
estimate.

The MEDIAN, GROUP BY and batch engines run this same loop,
:meth:`TwoPhaseEngine.run_stepwise`, each with the strategy for its
query kind (``_PhasedEngine``), under one :class:`PhaseConfig`.

**Plans** (paper §6, open problem 1) — the paper asks: *"Is it
possible to build hybrid solutions that do some amount of
pre-computations of samples, in addition to 'on-the-fly' sampling such
as ours?"*  The answer here is a plan cache: the expensive product of
phase I is not the sample itself (data changes quickly, which is why
pre-computed samples go stale) but the *sampling statistics* — the
cross-validated error level and the normalization scale for a query
signature.  Those drift far more slowly than individual tuples, so
they are cached; tuples never are.  Any engine given a
:class:`PlanCache` plans through it: a repeat signature is one
plan-sized phase I whose own analysis refreshes the plan with
exponential decay.  Entries expire after ``max_age`` warm runs, and a
lookup against a different peer/edge population (a churn epoch) is a
cold miss, so plans never silently survive churn.  A query service
shares one cache across its per-query engines, so repeat signatures go
warm whichever engine instance serves them.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections import OrderedDict
from typing import (
    Any,
    Callable,
    ClassVar,
    Generator,
    Generic,
    List,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)

import numpy as np
from numpy.typing import NDArray

from .._util import SeedLike, ensure_rng, seed_sequence, shallow_copy
from ..errors import ConfigurationError, SamplingError
from ..metrics.cost import CostLedger, QueryCost
from ..network.protocol import AggregateSample, WalkerProbe
from ..network.simulator import NetworkSimulator
from ..network.visits import AggregateVisits, Visits
from ..network.walker import (
    RandomWalkConfig,
    RandomWalker,
    ResilientCollector,
    RetryPolicy,
)
from ..obs.events import DeltaReuseEvent, EstimateEvent, PhaseEvent
from ..obs.tracer import emit_if_tracing
from ..query.model import AggregationQuery
from ..sim.timing import QueryTiming
from .confidence import ConfidenceInterval, query_confidence_interval
from .estimators import estimate_query, make_estimator
from .planner import (
    PhaseOneAnalysis,
    analyze_phase_one,
    cross_validated_scale,
)
from .result import ApproximateResult, MedianResult, PhaseReport, _Sample

__all__ = [
    "CachedPlan",
    "PLAN_CACHE_ENTRIES",
    "PhaseConfig",
    "PlanCache",
    "RetainedSample",
    "StepCheckpoint",
    "TwoPhaseConfig",
    "TwoPhaseEngine",
    "drain_steps",
]


@dataclasses.dataclass(frozen=True)
class StepCheckpoint:
    """One scheduling point inside a stepwise query execution.

    Stepwise engines (:meth:`TwoPhaseEngine.run_stepwise` and the
    engines that inherit it) yield one of these after every chunk of
    network work.  A scheduler uses the checkpoint to interleave
    queries fairly and to enforce per-query cost budgets: ``ledger`` is
    the query's live ledger, so ``ledger.snapshot()`` at a checkpoint
    is the query's exact cost so far.  The checkpoint stream is a pure
    function of the engine seed — it carries nothing
    scheduling-dependent.

    Attributes
    ----------
    engine:
        Which engine yielded (``"two-phase"``, ``"median"``,
        ``"group-by"`` or ``"batch"``).
    phase:
        The phase the work belongs to: ``one``/``analysis``/``two``,
        or ``warm``/``delta`` for a phase I sized from a cached plan.
    collected:
        Replies gathered so far *within the current phase*.
    ledger:
        The query's cost ledger (live; snapshot to inspect).
    """

    engine: str
    phase: str
    collected: int
    ledger: CostLedger


_ReturnT = TypeVar("_ReturnT")


def check_chunk_peers(chunk_peers: Optional[int]) -> None:
    """Reject a take size the chunk loop could never finish with.

    A take of zero selections leaves ``remaining`` where it was, so the
    loop in :meth:`TwoPhaseEngine._walk_and_visit` would yield empty
    checkpoints forever.  Every public stepwise entry point calls this
    first thing on its first advance — before the plan cache, an RNG,
    a ledger or the tracer has been touched.
    """
    if chunk_peers is not None and chunk_peers < 1:
        raise ConfigurationError("chunk_peers must be >= 1")


def drain_steps(
    steps: Generator[StepCheckpoint, None, _ReturnT],
) -> _ReturnT:
    """Run a stepwise execution to completion, discarding checkpoints.

    The one-query case of the scheduler loop: ``execute()`` is exactly
    ``drain_steps(run_stepwise(...))``, which is what makes serial and
    scheduled execution trivially bit-identical.
    """
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value  # type: ignore[no-any-return]


@dataclasses.dataclass(frozen=True)
class PhaseConfig:
    """The tunables every two-phase engine runs under (the paper's
    predefined values): COUNT/SUM/AVG, MEDIAN/QUANTILE, GROUP BY and
    batches alike.

    Attributes
    ----------
    phase_one_peers:
        ``m`` — peers to visit in phase I.
    tuples_per_peer:
        ``t`` — sub-sampling budget per visited peer (0 = scan all).
    jump:
        ``j`` — hops between selected peers in the walk.
    walk_variant:
        Walk flavour (see :class:`~repro.network.walker.RandomWalkConfig`).
    burn_in:
        Hops before the first selection; defaults to one jump.
    cross_validation_rounds:
        Halvings averaged by the sink analysis.
    max_phase_two_peers:
        Optional cost cap on ``m'``.
    pool_phases:
        Answer from phase I + II (default) or, when phase II answered,
        from phase II alone (the paper's literal pseudocode).
    retry_policy:
        When set, probes run through a
        :class:`~repro.network.walker.ResilientCollector`: lost
        replies and probe timeouts are retried with deterministic
        exponential backoff, and crashed peers are replaced by
        restarting the walk from the last good peer.  When ``None``
        (default) failed probes are simply dropped.
    """

    phase_one_peers: int = 40
    tuples_per_peer: int = 25
    jump: int = 10
    walk_variant: str = "simple"
    burn_in: Optional[int] = None
    cross_validation_rounds: int = 5
    max_phase_two_peers: Optional[int] = None
    pool_phases: bool = True
    retry_policy: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        if self.phase_one_peers < 4:
            raise ConfigurationError(
                "phase_one_peers must be >= 4 for cross-validation"
            )
        if self.tuples_per_peer < 0:
            raise ConfigurationError("tuples_per_peer must be >= 0")
        if self.cross_validation_rounds < 1:
            raise ConfigurationError("cross_validation_rounds must be >= 1")
        if self.max_phase_two_peers is not None and self.max_phase_two_peers < 0:
            raise ConfigurationError("max_phase_two_peers must be >= 0")

    def walk_config(self) -> RandomWalkConfig:
        """The walk configuration this engine config implies."""
        return RandomWalkConfig(
            jump=self.jump, burn_in=self.burn_in, variant=self.walk_variant
        )


@dataclasses.dataclass(frozen=True)
class TwoPhaseConfig(PhaseConfig):
    """Tunables of the two-phase algorithm: the fields every two-phase
    engine runs under (``phase_one_peers`` … ``retry_policy``) and
    these, read by the COUNT/SUM/AVG and batch engines; the rest run
    under them unread — so one config serves every query kind.

    Attributes
    ----------
    sampling_method:
        Local sub-sampling flavour: ``"uniform"`` or ``"block"``.
    confidence:
        Confidence level of the reported interval.
    estimator:
        ``"hajek"`` (default) — the self-normalized variant of
        Equation 1, which uses the network size ``M`` (known from
        pre-processing per §1/§3.3) to cancel degree noise; or
        ``"ht"`` — the paper's literal Equation 1.
    """

    sampling_method: str = "uniform"
    confidence: float = 0.95
    estimator: str = "hajek"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.sampling_method not in ("uniform", "block"):
            raise ConfigurationError(
                f"unknown sampling_method {self.sampling_method!r}"
            )
        if self.estimator not in ("ht", "hajek"):
            raise ConfigurationError(
                f"unknown estimator {self.estimator!r}"
            )

    @classmethod
    def from_initial_sample_size(
        cls, initial_sample_size: int, tuples_per_peer: int = 25, **kwargs: object
    ) -> "TwoPhaseConfig":
        """Build a config from the paper's ``r_orig`` parameter.

        The experiments specify phase I by the initial number of
        *tuples* ``r_orig``; with ``t`` tuples per peer this visits
        ``m = r_orig / t`` peers.
        """
        if tuples_per_peer <= 0:
            raise ConfigurationError(
                "tuples_per_peer must be positive to derive m from r_orig"
            )
        m = max(4, initial_sample_size // tuples_per_peer)
        return cls(
            phase_one_peers=m, tuples_per_peer=tuples_per_peer, **kwargs
        )


_S = TypeVar("_S", bound=_Sample)
#: Row indices into a sample: a walk's selected peers, a halving's half.
_Rows = NDArray[np.int64]
_C = TypeVar("_C", bound=PhaseConfig)
_Q = TypeVar("_Q")
_R = TypeVar("_R")


@dataclasses.dataclass(frozen=True)
class RetainedSample:
    """A run's sample, keyed by stable labels, for churn-delta top-up.

    This retains per-peer *sufficient statistics* — each row carries
    one peer's locally scaled aggregate, variance and degree — not
    tuples, so it stays within the doctrine that pre-computed tuple
    samples are impractical in P2P systems while slow-changing
    parameters are fair game.  Labels come from
    :attr:`~repro.network.simulator.NetworkSimulator.peer_labels`:
    vertex ids are compacted per churn epoch, so the stable label is
    the only identity that survives into the next epoch, where the
    delta path filters this sample against the new live set.
    """

    sink_label: int
    labels: Tuple[int, ...]
    replies: AggregateSample

    def survivors(
        self, vertex_of: Mapping[int, int], degrees: "NDArray[np.int64]"
    ) -> AggregateSample:
        """The rows whose peer is still live (its label is a key of
        ``vertex_of``) and connected (``degrees`` by vertex) in a new
        epoch, remapped onto that epoch's vertex ids.

        The remapped degree feeds the stationary probability, which
        must describe the *new* topology for the estimator to stay
        unbiased — so the result carries no probabilities.
        """
        vertices = np.asarray(
            [vertex_of.get(label, -1) for label in self.labels],
            dtype=np.int64,
        )
        # A departed label's -1 reads some vertex's degree; the first
        # test masks it out.
        keep = np.flatnonzero((vertices >= 0) & (degrees[vertices] > 0))
        vertices = vertices[keep]
        return self.replies.take(keep).replace(
            source=vertices, degree=degrees[vertices]
        )


@dataclasses.dataclass
class CachedPlan:
    """Cached phase-I statistics for one query signature.

    Attributes
    ----------
    mean_squared_cv_error:
        Exponentially-decayed mean of the squared cross-validation
        error at ``half_size``.
    half_size:
        The half-sample size the CV error is anchored to.
    scale:
        Decayed normalization scale ``Δreq`` is read on (N-hat or
        total-sum estimate; 1 for a rank or a total-variation
        distance).
    uses:
        Warm executions served from this entry.
    num_peers, num_edges:
        The population the plan was learned against.  A lookup from a
        simulator with different counts (a churn epoch happened) is
        treated as a cold miss — the statistics were cross-validated
        for a network that no longer exists.  Zero means "unknown"
        (entries constructed by hand); unknown populations never
        mismatch, preserving the pre-churn-tracking behaviour.
    retained:
        The most recent run's sample keyed by stable labels, kept only
        when the owning engine runs with delta re-estimation.  On a
        churn mismatch it lets the lookup hand the stale plan back for
        a delta top-up instead of dropping it.
    """

    mean_squared_cv_error: float
    half_size: int
    scale: float = 1.0
    uses: int = 0
    num_peers: int = 0
    num_edges: int = 0
    retained: Optional[RetainedSample] = None

    def refresh(
        self, squared_cv: float, scale: float, decay: float
    ) -> None:
        """Blend fresh statistics in with exponential decay."""
        self.mean_squared_cv_error = (
            decay * self.mean_squared_cv_error + (1 - decay) * squared_cv
        )
        self.scale = decay * self.scale + (1 - decay) * scale

    def matches_population(self, num_peers: int, num_edges: int) -> bool:
        """Whether this plan was learned on the given population."""
        if self.num_peers == 0 and self.num_edges == 0:
            return True
        return self.num_peers == num_peers and self.num_edges == num_edges


#: The most entries a :class:`PlanCache` keeps: past it, the least
#: recently used (looked up warm or stored) goes, retained sample and
#: all.
PLAN_CACHE_ENTRIES = 1024


class PlanCache:
    """Signature-keyed store of :class:`CachedPlan` entries, shareable
    across engines of any kind (see the module docstring).  At most
    :data:`PLAN_CACHE_ENTRIES` entries are kept, in LRU order, so a
    stream of one-off signatures cannot grow it without bound.

    The engines given this cache serve under its plan policy:
    ``max_age`` warm runs per entry, ``decay`` for refreshes, and
    ``delta_reestimation`` — when on and the simulator carries
    ``peer_labels`` (a churn snapshot), runs retain their sample keyed
    by stable labels, and after a churn epoch a COUNT/SUM/AVG plan is
    topped up from the survivors (a delta run) instead of dropped.

    Its lookups are counted: ``hits`` (served warm), ``misses`` (ran
    cold: absent, aged or churn-invalidated), ``expirations`` (misses
    by ``max_age``), ``churn_invalidations`` (entries dropped because
    the population changed under them) and ``delta_hits`` (churn
    mismatches salvaged by a retained sample).
    """

    def __init__(
        self,
        max_age: int = 25,
        decay: float = 0.7,
        delta_reestimation: bool = False,
    ) -> None:
        if max_age < 1:
            raise ConfigurationError("max_age must be >= 1")
        if not 0.0 <= decay < 1.0:
            raise ConfigurationError("decay must be in [0, 1)")
        self.max_age = max_age
        self.decay = decay
        self.delta_reestimation = delta_reestimation
        self._entries: OrderedDict[str, CachedPlan] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.expirations = 0
        self.churn_invalidations = 0
        self.delta_hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, signature: str) -> Optional[CachedPlan]:
        """The raw entry for ``signature`` (no aging/population checks,
        no statistics side effects)."""
        return self._entries.get(signature)

    def store(self, signature: str, plan: CachedPlan) -> None:
        """Insert or replace the entry for ``signature``, as the most
        recently used; the least recently used goes past the bound."""
        self._entries[signature] = plan
        self._entries.move_to_end(signature)
        if len(self._entries) > PLAN_CACHE_ENTRIES:
            self._entries.popitem(last=False)

    def lookup(
        self,
        signature: str,
        num_peers: int,
        num_edges: int,
        max_age: int,
        allow_delta: bool = False,
    ) -> Optional[CachedPlan]:
        """A servable plan for ``signature``, or ``None`` (cold miss).

        ``None`` means the caller must run cold: there is no entry,
        the entry has served ``max_age`` warm runs (left in place —
        the cold run replaces it), or the entry was learned on a
        different population (dropped on the spot).

        With ``allow_delta``, a population-mismatched entry that still
        carries a retained sample (and is not aged out) is *returned*
        instead of dropped — the caller must check
        :meth:`CachedPlan.matches_population` and run the delta top-up
        path when it reports a mismatch.
        """
        plan = self._entries.get(signature)
        if plan is None:
            self.misses += 1
            return None
        if not plan.matches_population(num_peers, num_edges):
            if not (
                allow_delta
                and plan.retained is not None
                and plan.uses < max_age
            ):
                del self._entries[signature]
                self.churn_invalidations += 1
                self.misses += 1
                return None
            self.delta_hits += 1
        elif plan.uses >= max_age:
            self.expirations += 1
            self.misses += 1
            return None
        else:
            self.hits += 1
        self._entries.move_to_end(signature)
        return plan

    def invalidate(self, signature: Optional[str] = None) -> None:
        """Drop one signature's entry, or every entry."""
        if signature is None:
            self._entries.clear()
        else:
            self._entries.pop(signature, None)


@dataclasses.dataclass(frozen=True)
class _Run(Generic[_S]):
    """A finished run, as the loop hands it to the engine's
    ``_result``: ``plan`` is what ``_analyze`` kept, ``error`` its
    cross-validation error, ``planned_scale`` the scale a warm or
    delta run's plan sized it on (``None`` on a cold run), ``final``
    the replies the answer is read from — both phases' back to back,
    or phase II's alone under ``pool_phases=False`` when it answered
    — and ``requested`` the planned ``m + m'``."""

    query: Any
    sink: int
    delta_req: float
    plan: Any
    error: float
    planned_scale: Optional[float]
    final: _S
    phase_one: PhaseReport
    phase_two: Optional[PhaseReport]
    requested: int
    received: int
    degraded: bool
    cost: QueryCost
    timing: Optional[QueryTiming]

    def answer(
        self, query: AggregationQuery, estimate: float,
        interval: ConfidenceInterval, analysis: Any,
    ) -> ApproximateResult:
        """This run's COUNT/SUM/AVG result for ``query``: ``analysis``
        is its sink analysis.  A warm or delta run reports no analysis
        and the scale its plan sized it on, so ``result.scale *
        delta_req`` is the walk's absolute target exactly."""
        warm = self.planned_scale is not None
        return ApproximateResult(
            query=query, estimate=estimate, delta_req=self.delta_req,
            scale=self.planned_scale if warm else analysis.scale,
            confidence_interval=interval,
            phase_one=self.phase_one, phase_two=self.phase_two,
            cost=self.cost, analysis=None if warm else analysis,
            requested_sample_size=self.requested,
            effective_sample_size=self.received, degraded=self.degraded,
            timing=self.timing,
        )


@dataclasses.dataclass(frozen=True)
class _Prior:
    """How a run starts: phase I's label, sink and size, the plan
    cache's key for the query (``None`` when nothing is cached), the
    rows phase I already ``held`` (only the rest are collected) and
    the plan a warm or delta run is sized from (``None`` when cold)."""

    phase: str
    sink: int
    size: int
    signature: Optional[str]
    held: Any = None
    plan: Optional[CachedPlan] = None


class _PhasedEngine(Generic[_C, _Q, _R]):
    """What every two-phase engine shares: a seeded walker and visit
    stream, the chunked walk-and-visit loop, the cross-validation
    halvings, the phase I → analysis → phase II loop itself
    (:meth:`run_stepwise`) and, given a plan cache, the plans that
    size repeat runs.  A subclass is the strategy for its query kind:
    ``_collect`` (a phase's replies), ``_phase_estimate`` (what one
    phase's sample gives; ``None`` when the answer is not one number),
    ``_analyze`` (``m'``, the plan of the statistics it was sized from,
    and what the result needs) and ``_result``; ``_check`` rejects a
    query before anything is drawn.

    Given a ``cache``, a repeat signature runs *warm*: phase I
    (``"warm"``) sized from its plan, ``m' = half · CV² / (Δreq ·
    scale)²`` (at least ``m``, at most the phase-II cap), whose own
    analysis refreshes the plan instead of ordering a phase II; a
    *delta* run's phase I (``"delta"``) starts with the survivors of the
    plan's retained sample after churn.  A cold run stores the plan its
    analysis learned.  Cold runs draw from the seed's first child, warm
    and delta runs their sinks and refreshes from the seed's own
    stream."""

    #: The engine's name in phase events and checkpoints.
    _name: ClassVar[str]
    #: The configuration an engine built without one runs.
    _default_config: ClassVar[Callable[[], Any]]
    #: Runs that ran the full two-phase algorithm, were served from a
    #: cached plan, and were served by churn-delta re-estimation.
    cold_runs = 0
    warm_runs = 0
    delta_runs = 0

    def __init__(
        self,
        simulator: NetworkSimulator,
        config: Optional[_C] = None,
        seed: SeedLike = None,
        *,
        cache: Optional[PlanCache] = None,
    ):
        self._bound(simulator, config or self._default_config())
        self._start(simulator, seed, cache)

    @classmethod
    def for_snapshot(cls, simulator: NetworkSimulator, config: _C) -> Any:
        """An engine bound to ``simulator``'s snapshot that runs no
        query itself (it holds no simulator and no stream): what its
        :meth:`for_query` copies share, built once."""
        return cls.__new__(cls)._bound(simulator, config)

    def for_query(
        self, simulator: NetworkSimulator, seed: SeedLike,
        cache: Optional[PlanCache],
    ) -> Any:
        """A copy of this engine over ``simulator`` (a session of the
        snapshot it is bound to) planning in ``cache``, its streams
        started from ``seed`` as a new engine's are."""
        return shallow_copy(self)._start(simulator, seed, cache)

    def _bound(self, simulator: NetworkSimulator, config: _C) -> Any:
        self._config: _C = config
        self._bind(simulator)
        return self

    def _bind(self, simulator: NetworkSimulator) -> None:
        """What the engine keeps per snapshot: the walk (its config and
        compiled loop; the stream comes per query) and the stationary
        probabilities the sink reconstructs."""
        self._walker = RandomWalker(
            simulator.topology, config=self._config.walk_config()
        )
        self._probabilities = self._walker.stationary_probabilities()

    def _start(
        self, simulator: NetworkSimulator, seed: SeedLike,
        cache: Optional[PlanCache],
    ) -> Any:
        """Point the engine at ``simulator`` and ``cache``, its run
        counts at zero and its streams at ``seed`` (under a cache the
        seed's own stream plans warm runs, its first child is the cold
        streams'); returns the engine."""
        self.cold_runs = self.warm_runs = self.delta_runs = 0
        self._simulator = simulator
        self._cache = cache
        # Runs retain their sample for a churn-delta top-up when the
        # cache's policy asks and this engine's samples can cross an
        # epoch.
        self._retaining = False
        if cache is not None:
            self._plan_seq = seed_sequence(seed)
            self.__dict__.pop("_plan_rng", None)
            if isinstance(seed, np.random.Generator):
                self._plan_rng = seed
            seed = self._plan_seq.spawn(1)[0]
            self._retaining = (
                cache.delta_reestimation and self._carries_samples
            )
        self._seed(seed)
        return self

    def _seed(self, seed: SeedLike) -> None:
        """(Re)start the cold streams, the walk and the visits from
        ``seed`` (built ``Generator``\\ s are dropped); each is built on
        its first draw."""
        self._seed_seq = seed_sequence(seed)
        self.__dict__.pop("_rng", None)
        self.__dict__.pop("_visit_rng", None)
        if isinstance(seed, np.random.Generator):
            self._rng = seed
        walk_seed, self._visit_seq = self._seed_seq.spawn(2)
        self._walker = self._walker.reseeded(walk_seed)
        self._collector: Optional[ResilientCollector] = None
        if self._config.retry_policy is not None:
            self._collector = ResilientCollector(
                self._walker, self._simulator,
                policy=self._config.retry_policy,
            )

    @functools.cached_property
    def _rng(self) -> np.random.Generator:
        """The engine's own stream (sinks, cross-validation halvings),
        built on its first draw."""
        return ensure_rng(self._seed_seq)

    @functools.cached_property
    def _visit_rng(self) -> np.random.Generator:
        """The engine's stream for local sub-sampling at visited peers,
        so executions are deterministic given the engine seed."""
        return ensure_rng(self._visit_seq)

    @functools.cached_property
    def _plan_rng(self) -> np.random.Generator:
        """The stream of warm and delta runs (sinks, refresh
        halvings), built on its first draw — a cold run never draws
        from it."""
        return ensure_rng(self._plan_seq)

    @property
    def config(self) -> _C:
        """The engine configuration."""
        return self._config

    @property
    def cache(self) -> Optional[PlanCache]:
        """The plan cache this engine plans through (``None``: every
        run is cold)."""
        return self._cache

    def cached_plan(self, query: _Q) -> Optional[CachedPlan]:
        """The cache entry for ``query``'s signature, if any."""
        if self._cache is None:
            return None
        signature = self._signature(query)
        return None if signature is None else self._cache.get(signature)

    def rebind(
        self, simulator: NetworkSimulator, seed: SeedLike = None
    ) -> None:
        """Point this engine at a new network snapshot (churn epoch).

        Rebuilds the walker, the cold streams (from the seed's next
        child unless ``seed`` is given) and the engine's view of the
        population against the new topology.  The plan cache is kept:
        entries for the old population cold-miss on their own (or,
        under delta re-estimation, are topped up from the survivors).
        """
        if seed is None:
            parent = self._seed_seq if self._cache is None else self._plan_seq
            seed = parent.spawn(1)[0]
        self._simulator = simulator
        self._bind(simulator)
        self._seed(seed)

    # ------------------------------------------------------------------
    # The strategy
    # ------------------------------------------------------------------

    #: Whether a sample carried over from an earlier churn epoch can be
    #: reweighed onto the current topology (:meth:`_reweigh`), so a
    #: plan can be topped up by a delta run.
    _carries_samples: ClassVar[bool] = False

    def _check(self, query: _Q) -> None:
        pass

    def _signature(self, query: _Q) -> Optional[str]:
        """The plan cache's key for ``query`` (``None``: never cached)."""
        return query.to_sql()  # type: ignore[attr-defined, no-any-return]

    def _collect(
        self, sink: int, query: _Q, count: int, ledger: CostLedger,
        chunk_peers: Optional[int], phase: str,
    ) -> Generator[StepCheckpoint, None, Any]:
        raise NotImplementedError

    def _phase_estimate(self, query: _Q, sample: Any) -> Optional[float]:
        return None

    def _answers(self, sample: Any) -> bool:
        """Whether an answer can be read from ``sample`` alone: under
        ``pool_phases=False`` a phase II that can is answered from
        instead of both phases pooled."""
        return len(sample) > 0

    def _analyze(
        self, query: _Q, sample: Any, delta_req: float,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[int, CachedPlan, Any]:
        """``m'``, the plan of the statistics it was sized from and
        what the result needs; the halvings draw from ``rng`` when
        given (a warm refresh), from the engine's own streams
        otherwise."""
        raise NotImplementedError

    def _replan(
        self, query: _Q, sample: Any, delta_req: float
    ) -> Tuple[CachedPlan, Any]:
        """A warm refresh's plan of ``sample``'s statistics (drawn from
        the plan stream) and what the result needs: by default the
        cold analysis's."""
        _, fresh, kept = self._analyze(query, sample, delta_req, self._plan_rng)
        return fresh, kept

    def _result(self, run: _Run[Any]) -> _R:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Plans
    # ------------------------------------------------------------------

    def _prior(
        self, query: _Q, delta_req: float, sink: Optional[int]
    ) -> _Prior:
        """How a run of ``query`` starts: warm or delta from a servable
        plan, otherwise cold from ``sink`` (a uniformly random peer
        when omitted)."""
        plan = None
        signature = None if self._cache is None else self._signature(query)
        if signature is not None:
            assert self._cache is not None
            topology = self._simulator.topology
            labels = (
                self._simulator.peer_labels if self._retaining else None
            )
            plan = self._cache.lookup(
                signature, topology.num_peers, topology.num_edges,
                self._cache.max_age, allow_delta=labels is not None,
            )
        if plan is None:
            self.cold_runs += 1
            if sink is None:
                sink = int(self._rng.integers(self._simulator.num_peers))
            return _Prior("one", sink, self._config.phase_one_peers, signature)
        plan.uses += 1
        m_prime = (
            plan.half_size * plan.mean_squared_cv_error
            / (delta_req * plan.scale) ** 2
        )
        # Floor at the phase-I size: cached statistics are noisy, so a
        # warm run never samples less than a cold phase I would — the
        # cache saves the planning round-trip and the pooled phase-II
        # visits, not the statistical minimum.
        peers = max(self._config.phase_one_peers, int(math.ceil(m_prime)))
        if self._config.max_phase_two_peers is not None:
            peers = min(peers, max(4, self._config.max_phase_two_peers))
        held = None
        if plan.matches_population(topology.num_peers, topology.num_edges):
            self.warm_runs += 1
        else:
            # Churn delta: the retained sample, filtered against the
            # new epoch's live set and remapped onto its vertex ids,
            # with the new topology's probabilities.
            retained = plan.retained
            assert retained is not None and labels is not None
            self.delta_runs += 1
            vertex_of = {label: v for v, label in enumerate(labels)}
            held = self._reweigh(
                retained.survivors(vertex_of, topology.degrees)
            )
            emit_if_tracing(
                DeltaReuseEvent, len(held), len(retained.replies) - len(held),
                max(0, peers - len(held)),
            )
            if sink is None:
                sink = vertex_of.get(retained.sink_label)
                if sink is not None and topology.degree(sink) == 0:
                    sink = None  # the sink itself churned out
        if sink is None:
            sink = int(self._plan_rng.integers(self._simulator.num_peers))
        return _Prior(
            "warm" if held is None else "delta", sink, peers, signature,
            held, plan,
        )

    def _refresh(
        self, prior: _Prior, query: _Q, sample: Any, delta_req: float
    ) -> Tuple[float, Any]:
        """A warm or delta run's stand-in for phase II: fold the
        phase's own statistics back into its plan (so it tracks data
        drift without a cold restart) and retain the sample.  Returns
        the refreshed CV error and what :meth:`_replan` kept."""
        plan, cache = prior.plan, self._cache
        assert plan is not None and cache is not None
        fresh, kept = self._replan(query, sample, delta_req)
        # Rescale the fresh CVError² from this sample's half size to the
        # cached anchor (CVError² ~ 1/half).
        squared = fresh.mean_squared_cv_error
        plan.refresh(
            squared * fresh.half_size / plan.half_size
            if plan.half_size else squared,
            fresh.scale, cache.decay,
        )
        if self._retaining:
            self._retain(plan, sample, prior.sink)
        if prior.held is not None:
            # A delta run: the statistics now describe the new epoch,
            # so the next lookup is an ordinary warm hit.
            topology = self._simulator.topology
            plan.num_peers = topology.num_peers
            plan.num_edges = topology.num_edges
        return math.sqrt(plan.mean_squared_cv_error), kept

    def _retain(self, plan: CachedPlan, sample: Any, sink: int) -> None:
        """Record a run's sample on its plan, keyed by stable labels
        (none known: nothing could be matched across epochs anyway)."""
        labels = self._simulator.peer_labels
        if labels is None or not sample:
            return
        plan.retained = RetainedSample(
            sink_label=labels[sink],
            labels=tuple(labels[v] for v in sample["source"].tolist()),
            replies=sample,
        )

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _walk_and_visit(
        self, count: int, ledger: CostLedger, chunk_peers: Optional[int],
        phase: str, query_text: str, visits: Visits[_S],
    ) -> Generator[StepCheckpoint, None, _S]:
        """Walk from ``visits.sink`` to ``count`` peers and visit them,
        a :class:`~repro.network.walker.WalkCursor` take of
        ``chunk_peers`` selections (one of ``count`` when ``None``) and
        a checkpoint at a time — bit-identical replies for any
        chunking: the cursor consumes the walker RNG exactly as one
        take does, the visits consume ``self._visit_rng`` peer by peer
        in selection order.  The loop relies on the public entry
        points' ``chunk_peers >= 1`` (:func:`check_chunk_peers`).
        Under a retry policy the engine's collector runs the whole
        collection instead, in one piece (it owns its
        retry/substitution loop) and one checkpoint."""
        sink = visits.sink
        probe_bytes = WalkerProbe(
            source=sink, destination=sink, sink=sink, query_text=query_text,
            tuples_per_peer=self._config.tuples_per_peer,
        ).size_bytes()
        if self._collector is not None:
            sample, _ = visits.collect(
                self._collector, count, ledger, probe_bytes
            )
            yield StepCheckpoint(self._name, phase, len(sample), ledger)
            return sample
        cursor = self._walker.cursor(sink)
        chunks: List[_S] = []
        collected = 0
        remaining = count
        while True:
            take = remaining if chunk_peers is None else min(
                chunk_peers, remaining
            )
            walk = cursor.take(take)
            self._simulator.walk_hops(
                walk.hops, ledger, message_bytes=probe_bytes
            )
            chunks.append(visits.visit(walk.peers, ledger))
            collected += len(chunks[-1])
            remaining -= take
            yield StepCheckpoint(self._name, phase, collected, ledger)
            if remaining <= 0:
                return type(chunks[0]).concat(chunks)

    def _reweigh(self, sample: _S) -> _S:
        """``sample`` with the stationary probabilities of this
        engine's walk on its topology attached (what
        :func:`~repro.core.estimators.observations_from_replies`
        computes from each row's degree)."""
        return sample.with_probability(self._probabilities[sample["source"]])

    def _cross_validate(
        self, size: int, squared_error: Callable[[_Rows, _Rows], float],
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """The mean of ``squared_error(first, second)`` over
        ``cross_validation_rounds`` random halvings of ``size`` rows
        (one sits out when ``size`` is odd), each half given as row
        indices; ``rng`` (the engine's stream when omitted) draws one
        permutation per round."""
        if size < 4:
            raise SamplingError(
                f"{self._name} cross-validation needs >= 4 phase-I "
                f"replies, got {size}"
            )
        if rng is None:
            rng = self._rng
        half = size // 2
        squared = []
        for _ in range(self._config.cross_validation_rounds):
            order = rng.permutation(size)
            squared.append(squared_error(order[:half], order[half: 2 * half]))
        return float(np.mean(squared))

    def _tv_plan(
        self, size: int, estimate: Callable[[_Rows], NDArray[Any]],
        delta_req: float, rng: Optional[np.random.Generator],
    ) -> Tuple[int, CachedPlan]:
        """``m' = (m/2) · CV² / Δreq²`` (none below one peer, at most
        the cap) and the plan of the mean ``CV²`` it was sized from,
        for CV the total-variation distance between the normalized
        vectors two halves' rows ``estimate`` (1 when either total is
        not positive); ``rng`` as for :meth:`_cross_validate`."""

        def squared_tv(first: _Rows, second: _Rows) -> float:
            one, two = estimate(first), estimate(second)
            total_one, total_two = one.sum(), two.sum()
            if total_one <= 0 or total_two <= 0:
                return 1.0
            tv = 0.5 * float(np.abs(one / total_one - two / total_two).sum())
            return tv**2

        cv_squared = self._cross_validate(size, squared_tv, rng)
        m_prime = size // 2 * cv_squared / delta_req**2
        additional = int(math.ceil(m_prime)) if m_prime >= 1.0 else 0
        cap = self._config.max_phase_two_peers
        if cap is not None:
            additional = min(additional, cap)
        return additional, CachedPlan(cv_squared, size // 2)

    def _phase(
        self, phase: str, sink: int, query: _Q, count: int,
        ledger: CostLedger, chunk_peers: Optional[int], held: Any = None,
    ) -> Generator[StepCheckpoint, None, Tuple[Any, PhaseReport]]:
        """One phase of the loop: ``count`` peers' replies — the
        ``held`` rows and as many collected as they fall short —
        bracketed by its phase events; returns them and its report."""
        hops_before = ledger.snapshot().hops
        emit_if_tracing(
            PhaseEvent, self._name, phase, "start", count, 0, None, None
        )
        sample = held
        deficit = count - (0 if held is None else len(held))
        if deficit > 0:
            fresh = yield from self._collect(
                sink, query, deficit, ledger, chunk_peers, phase
            )
            sample = fresh if held is None else held.concat([held, fresh])
        hops = ledger.snapshot().hops - hops_before
        try:
            estimate = self._phase_estimate(query, sample)
        except SamplingError:
            if phase != "two":
                raise
            # Diagnostic only: a phase-II sample of a few peers may see
            # no matching tuple while the pooled sample does.
            estimate = None
        emit_if_tracing(
            PhaseEvent, self._name, phase, "end", count, len(sample),
            estimate, None,
        )
        return sample, PhaseReport.of_sample(sample, hops, estimate)

    # ------------------------------------------------------------------
    # The algorithm
    # ------------------------------------------------------------------

    def execute(
        self, query: _Q, delta_req: float, sink: Optional[int] = None
    ) -> _R:
        """Answer ``query`` within ``delta_req``.

        ``sink`` is the peer where the query is introduced; a uniformly
        random peer is chosen when omitted (queries can originate
        anywhere in a P2P network).  Runs the stepwise form to
        completion in one go (:func:`drain_steps`), so serial execution
        and a scheduler driving :meth:`run_stepwise` are bit-identical
        by construction.
        """
        return drain_steps(self.run_stepwise(query, delta_req, sink=sink))

    def run_stepwise(
        self,
        query: _Q,
        delta_req: float,
        sink: Optional[int] = None,
        chunk_peers: Optional[int] = None,
    ) -> Generator[StepCheckpoint, None, _R]:
        """The two-phase algorithm as a resumable generator.

        Yields a :class:`StepCheckpoint` after every ``chunk_peers``
        peer visits (and after the sink analysis), returning the
        result — the *same* result :meth:`execute` produces, for any
        chunking.  A query service advances many of these generators
        round-robin to interleave queries; budget enforcement happens
        between chunks, so a query can overshoot its budget by at most
        one chunk.
        """
        check_chunk_peers(chunk_peers)
        self._check(query)
        if not 0.0 < delta_req <= 1.0:
            raise SamplingError(f"delta_req must be in (0, 1], got {delta_req}")
        prior = self._prior(query, delta_req, sink)
        sink = prior.sink
        ledger = self._simulator.new_ledger()
        timing_token = self._simulator.begin_timing()
        requested = prior.size
        sample_one, phase_one = yield from self._phase(
            prior.phase, sink, query, requested, ledger, chunk_peers,
            prior.held,
        )
        plan = prior.plan
        if plan is None:
            additional, learned, kept = self._analyze(
                query, sample_one, delta_req
            )
            error = math.sqrt(learned.mean_squared_cv_error)
            planned_scale = None
        else:
            additional, planned_scale = 0, plan.scale
            error, kept = self._refresh(prior, query, sample_one, delta_req)
        emit_if_tracing(
            PhaseEvent, self._name, "analysis", "end", additional, 0, None,
            error,
        )

        phase_two: Optional[PhaseReport] = None
        pooled = final = sample_one
        if additional > 0:
            # A scheduler may stop an over-budget query here, before
            # it pays for the second walk (with no phase II, nothing
            # has moved since the last checkpoint).
            yield StepCheckpoint(
                self._name, "analysis", len(sample_one), ledger
            )
            requested += additional
            sample_two, phase_two = yield from self._phase(
                "two", sink, query, additional, ledger, chunk_peers
            )
            pooled = final = type(sample_one).concat([sample_one, sample_two])
            if not self._config.pool_phases and self._answers(sample_two):
                final = sample_two  # the paper's phase-II-only form

        run = _Run(
            query, sink, delta_req, kept, error, planned_scale, final,
            phase_one, phase_two, requested, len(pooled),
            len(pooled) < requested, ledger.snapshot(),
            self._simulator.finish_timing(timing_token),
        )
        result = self._result(run)
        if plan is None and self._cache is not None and prior.signature:
            # What a cold run's analysis learned becomes the plan.
            topology = self._simulator.topology
            learned.num_peers = topology.num_peers
            learned.num_edges = topology.num_edges
            if self._retaining:
                self._retain(learned, pooled, sink)
            self._cache.store(prior.signature, learned)
        if isinstance(result, (ApproximateResult, MedianResult)):
            emit_if_tracing(
                EstimateEvent, self._name, result.query.agg.value,
                result.estimate, requested, run.received, run.degraded,
            )
        return result


def _analyze_aggregate(
    config: TwoPhaseConfig, query: AggregationQuery, sample: AggregateSample,
    delta_req: float, seed: SeedLike, num_peers: int,
) -> PhaseOneAnalysis:
    """:func:`~repro.core.planner.analyze_phase_one` under ``config``."""
    return analyze_phase_one(
        query, sample, delta_req=delta_req,
        tuples_per_peer=config.tuples_per_peer,
        cross_validation_rounds=config.cross_validation_rounds,
        max_phase_two_peers=config.max_phase_two_peers,
        seed=seed, estimator=config.estimator, num_peers=num_peers,
    )


class TwoPhaseEngine(
    _PhasedEngine[TwoPhaseConfig, AggregationQuery, ApproximateResult]
):
    """Answers COUNT/SUM/AVG queries approximately over a simulator."""

    _name = "two-phase"
    _default_config = TwoPhaseConfig

    def _bind(self, simulator: NetworkSimulator) -> None:
        super()._bind(simulator)
        self._point, self._variance = make_estimator(
            self._config.estimator, simulator.topology.num_peers
        )

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _final_estimate(
        self, query: AggregationQuery, sample: AggregateSample
    ) -> float:
        """The configured estimator under the one estimate rule."""
        return estimate_query(query, sample, self._point)

    def confidence_interval(
        self,
        query: AggregationQuery,
        sample: AggregateSample,
        estimate: float,
    ) -> ConfidenceInterval:
        """The CLT interval around ``estimate`` — cold, warm and delta
        runs all report this one."""
        return query_confidence_interval(
            query, sample, estimate,
            self._point, self._variance, self._config.confidence,
        )

    def collect_observations_stepwise(
        self,
        sink: int,
        query: AggregationQuery,
        count: int,
        ledger: CostLedger,
        chunk_peers: Optional[int] = None,
        phase: str = "collect",
    ) -> Generator[StepCheckpoint, None, AggregateSample]:
        """Walk, visit ``count`` peers, and return the sample: the
        replies with the stationary probabilities the sink reconstructs
        for this engine's walk attached.  Yields checkpoints between
        chunks of ``chunk_peers`` visits.

        A batch visit covers a take's peers in one vectorized pass;
        under fault injection it resolves each probe's fate on its own,
        dropping lost replies either way.
        """
        check_chunk_peers(chunk_peers)
        config = self._config
        sample = yield from self._walk_and_visit(
            count, ledger, chunk_peers, phase, query.to_sql(),
            AggregateVisits(
                self._simulator, query, sink, config.tuples_per_peer,
                config.sampling_method, self._visit_rng,
            ),
        )
        return self._reweigh(sample)

    def analyze_only(
        self,
        query: AggregationQuery,
        delta_req: float,
        sink: Optional[int] = None,
    ) -> PhaseOneAnalysis:
        """Run phase I and the sink analysis without phase II.

        Useful for planner-focused experiments (Figures 4/5 report the
        planned sample sizes).
        """
        if sink is None:
            sink = int(self._rng.integers(self._simulator.num_peers))
        sample = drain_steps(self._collect(
            sink, query, self._config.phase_one_peers,
            self._simulator.new_ledger(), None, "one",
        ))
        return self._analyze(query, sample, delta_req)[2]

    # ------------------------------------------------------------------
    # The strategy: the configured estimator per phase, phase II
    # planned by analyze_phase_one
    # ------------------------------------------------------------------

    def _check(self, query: AggregationQuery) -> None:
        if not query.agg.supports_pushdown:
            raise ConfigurationError(
                f"{query.agg.value} queries are answered by MedianEngine"
            )
        if query.group_by is not None:
            raise ConfigurationError(
                "GROUP BY queries are answered by GroupByEngine"
            )

    _collect = collect_observations_stepwise

    def _phase_estimate(
        self, query: AggregationQuery, sample: AggregateSample
    ) -> Optional[float]:
        return self._final_estimate(query, sample)

    def _analyze(
        self, query: AggregationQuery, sample: AggregateSample,
        delta_req: float, rng: Optional[np.random.Generator] = None,
    ) -> Tuple[int, CachedPlan, PhaseOneAnalysis]:
        analysis = _analyze_aggregate(
            self._config, query, sample, delta_req,
            self._seed_seq.spawn(1)[0] if rng is None else rng,
            self._simulator.topology.num_peers,
        )
        return (
            analysis.plan.additional_peers,
            CachedPlan(
                analysis.cross_validation.mean_squared_error,
                analysis.cross_validation.half_size, analysis.scale,
            ),
            analysis,
        )

    def _replan(
        self, query: AggregationQuery, sample: AggregateSample,
        delta_req: float,
    ) -> Tuple[CachedPlan, None]:
        # A warm answer reports no analysis: only what the plan keeps.
        cv, scale = cross_validated_scale(
            query, sample, self._config.cross_validation_rounds,
            self._plan_rng, self._point,
        )
        return CachedPlan(cv.mean_squared_error, cv.half_size, scale), None

    _carries_samples = True

    def _result(self, run: _Run[AggregateSample]) -> ApproximateResult:
        # With no phase II the final sample is phase I's, whose
        # estimate the loop has taken (and raised on, if undefined).
        estimate = run.phase_one.estimate
        if run.phase_two is not None:
            estimate = self._final_estimate(run.query, run.final)
        assert estimate is not None
        return run.answer(
            run.query, estimate,
            self.confidence_interval(run.query, run.final, estimate),
            run.plan,
        )
