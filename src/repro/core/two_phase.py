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

The MEDIAN, histogram, GROUP BY and batch engines run this same loop,
:meth:`TwoPhaseEngine.run_stepwise`, each with the strategy for its
query kind (``_PhasedEngine``).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import (
    Any,
    Callable,
    ClassVar,
    Generator,
    Generic,
    List,
    Optional,
    Tuple,
    TypeVar,
)

import numpy as np
from numpy.typing import NDArray

from .._util import SeedLike, ensure_rng, seed_sequence
from ..errors import ConfigurationError, SamplingError
from ..metrics.cost import CostLedger, QueryCost
from ..network.protocol import AggregateSample, ValueSample, WalkerProbe
from ..network.simulator import NetworkSimulator
from ..network.visits import AggregateVisits, ValueVisits, Visits
from ..network.walker import (
    RandomWalkConfig,
    RandomWalker,
    ResilientCollector,
    RetryPolicy,
)
from ..obs.events import EstimateEvent, PhaseEvent
from ..obs.tracer import emit_if_tracing
from ..query.model import AggregationQuery
from ..sim.timing import QueryTiming
from .confidence import ConfidenceInterval, query_confidence_interval
from .estimators import (
    estimate_query,
    make_estimator,
    observations_from_replies,
)
from .planner import PhaseOneAnalysis, analyze_phase_one
from .result import ApproximateResult, MedianResult, PhaseReport, _Sample


__all__ = [
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
        Which engine yielded (``"two-phase"`` — a
        :class:`~repro.core.hybrid.HybridEngine` too — ``"median"``,
        ``"histogram"``, ``"group-by"`` or ``"batch"``).
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


#: Type of a stepwise execution: yields checkpoints, returns the result.
StepwiseRun = Generator[StepCheckpoint, None, ApproximateResult]

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
class _PhaseConfig:
    """The tunables every two-phase engine shares (the paper's
    predefined values).

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
    """

    phase_one_peers: int = 40
    tuples_per_peer: int = 25
    jump: int = 10
    walk_variant: str = "simple"
    burn_in: Optional[int] = None
    cross_validation_rounds: int = 5
    max_phase_two_peers: Optional[int] = None

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
class TwoPhaseConfig(_PhaseConfig):
    """Tunables of the two-phase algorithm: the shared fields of every
    two-phase engine (``phase_one_peers`` … ``max_phase_two_peers``)
    and these.

    Attributes
    ----------
    pool_phases:
        Use phase I + II observations for the final estimate (default)
        or phase II only (the paper's literal pseudocode).
    distinct_peers:
        Sample peers without replacement (the walk keeps going until
        fresh peers are found).  The paper's theory assumes *with*
        replacement; without-replacement is never worse statistically
        but costs extra hops — exposed for ablations.
    sampling_method:
        Local sub-sampling flavour: ``"uniform"`` or ``"block"``.
    confidence:
        Confidence level of the reported interval.
    estimator:
        ``"hajek"`` (default) — the self-normalized variant of
        Equation 1, which uses the network size ``M`` (known from
        pre-processing per §1/§3.3) to cancel degree noise; or
        ``"ht"`` — the paper's literal Equation 1.
    retry_policy:
        When set, probes run through a
        :class:`~repro.network.walker.ResilientCollector`: lost
        replies and probe timeouts are retried with deterministic
        exponential backoff, and crashed peers are replaced by
        restarting the walk from the last good peer.  When ``None``
        (default) failed probes are simply dropped, as before.
    """

    pool_phases: bool = True
    sampling_method: str = "uniform"
    confidence: float = 0.95
    estimator: str = "hajek"
    distinct_peers: bool = False
    retry_policy: Optional[RetryPolicy] = None

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

    def walk_config(self) -> RandomWalkConfig:
        """The walk configuration this engine config implies (built
        once, not as the base's and a replaced copy: an engine is built
        per served query)."""
        return RandomWalkConfig(
            jump=self.jump, burn_in=self.burn_in, variant=self.walk_variant,
            allow_revisits=not self.distinct_peers,
        )


_S = TypeVar("_S", bound=_Sample)
#: Row indices into a sample: a walk's selected peers, a halving's half.
_Rows = NDArray[np.int64]
_C = TypeVar("_C", bound=_PhaseConfig)
_Q = TypeVar("_Q")
_R = TypeVar("_R")


@dataclasses.dataclass(frozen=True)
class _Run(Generic[_S]):
    """A finished run, as the loop hands it to the engine's
    ``_result``: ``plan`` is what ``_analyze`` kept, ``error`` its
    cross-validation error, ``pooled`` both phases' replies back to
    back, ``requested`` the planned ``m + m'``."""

    query: Any
    sink: int
    delta_req: float
    plan: Any
    error: float
    sample_two: Optional[_S]
    pooled: _S
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
        is its sink analysis, or what stood in for one (a plan, whose
        scale the result reports, with no analysis)."""
        return ApproximateResult(
            query=query, estimate=estimate, delta_req=self.delta_req,
            scale=analysis.scale, confidence_interval=interval,
            phase_one=self.phase_one, phase_two=self.phase_two,
            cost=self.cost,
            analysis=(
                analysis if isinstance(analysis, PhaseOneAnalysis) else None
            ),
            requested_sample_size=self.requested,
            effective_sample_size=self.received, degraded=self.degraded,
            timing=self.timing,
        )


@dataclasses.dataclass(frozen=True)
class _Prior:
    """What a run knows before its phase I, from an earlier run: the
    phase's label, sink and size, the rows it already ``held`` (only
    the rest are collected) and what stands in for the sink analysis
    (``_analyze``'s signature)."""

    phase: str
    sink: int
    size: int
    held: Any = None
    analyze: Optional[Callable[..., Tuple[int, float, Any]]] = None


class _PhasedEngine(Generic[_C, _Q, _R]):
    """What every two-phase engine shares: a seeded walker and visit
    stream, the chunked walk-and-visit loop, the cross-validation
    halvings and the phase I → analysis → phase II loop itself
    (:meth:`run_stepwise`).  A subclass is the strategy for its query
    kind: ``_collect`` (a phase's replies), ``_phase_estimate`` (what
    one phase's sample gives; ``None`` when the answer is not one
    number), ``_analyze`` (``m'``, the cross-validation error it was
    sized from, and what the result needs) and ``_result``;
    ``_check`` rejects a query before anything is drawn, and
    ``_prior`` supplies what an earlier run already revealed."""

    #: The engine's name in phase events and checkpoints.
    _name: ClassVar[str]
    #: The configuration an engine built without one runs.
    _default_config: ClassVar[Callable[[], Any]]

    def __init__(
        self,
        simulator: NetworkSimulator,
        config: Optional[_C] = None,
        seed: SeedLike = None,
    ):
        self._config: _C = config or self._default_config()
        self._bind(simulator, seed)

    def _bind(self, simulator: NetworkSimulator, seed: SeedLike) -> None:
        """(Re)build the engine's streams (a built ``_rng`` is dropped),
        walker and collector over ``simulator`` from ``seed``."""
        self._simulator = simulator
        self._seed_seq = seed_sequence(seed)
        self.__dict__.pop("_rng", None)
        if isinstance(seed, np.random.Generator):
            self._rng = seed
        walk_seed, visit_seed = self._seed_seq.spawn(2)
        self._walker = RandomWalker(
            simulator.topology, config=self._config.walk_config(),
            seed=walk_seed,
        )
        # Engine-owned stream for local sub-sampling at visited peers,
        # so executions are deterministic given the engine seed.
        self._visit_rng = ensure_rng(visit_seed)
        self._collector: Optional[ResilientCollector] = None
        retry_policy = getattr(self._config, "retry_policy", None)
        if retry_policy is not None:
            self._collector = ResilientCollector(
                self._walker, simulator, policy=retry_policy
            )

    @functools.cached_property
    def _rng(self) -> np.random.Generator:
        """The engine's own stream (sinks, cross-validation halvings),
        built on its first draw."""
        return ensure_rng(self._seed_seq)

    @property
    def config(self) -> _C:
        """The engine configuration."""
        return self._config

    @property
    def simulator(self) -> NetworkSimulator:
        """The network this engine queries."""
        return self._simulator

    # ------------------------------------------------------------------
    # The strategy
    # ------------------------------------------------------------------

    def _check(self, query: _Q) -> None:
        pass

    def _prior(
        self, query: _Q, delta_req: float, sink: Optional[int]
    ) -> Optional[_Prior]:
        return None

    def _collect(
        self, sink: int, query: _Q, count: int, ledger: CostLedger,
        chunk_peers: Optional[int], phase: str,
    ) -> Generator[StepCheckpoint, None, Any]:
        raise NotImplementedError

    def _phase_estimate(self, query: _Q, sample: Any) -> Optional[float]:
        return None

    def _analyze(
        self, query: _Q, sample: Any, delta_req: float
    ) -> Tuple[int, float, Any]:
        raise NotImplementedError

    def _result(self, run: _Run[Any]) -> _R:
        raise NotImplementedError

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

    def _collect_values(
        self, sink: int, query: AggregationQuery, count: int,
        ledger: CostLedger, chunk_peers: Optional[int], phase: str,
        ship: str, query_text: str,
    ) -> Generator[StepCheckpoint, None, ValueSample]:
        """:meth:`_walk_and_visit` for the engines answering from
        shipped values: what ``count`` peers ``ship``, as one
        :class:`ValueSample` with stationary probabilities attached."""
        sample = yield from self._walk_and_visit(
            count, ledger, chunk_peers, phase, query_text,
            ValueVisits(
                self._simulator, query, sink, self._config.tuples_per_peer,
                seed=self._visit_rng, ship=ship,
            ),
        )
        probabilities = self._walker.stationary_probabilities()
        return sample.with_probability(probabilities[sample["source"]])

    def _cross_validate(
        self, size: int, squared_error: Callable[[_Rows, _Rows], float]
    ) -> float:
        """The mean of ``squared_error(first, second)`` over
        ``cross_validation_rounds`` random halvings of ``size`` rows
        (one sits out when ``size`` is odd), each half given as row
        indices; the engine's stream draws one permutation per round."""
        if size < 4:
            raise SamplingError(
                f"{self._name} cross-validation needs >= 4 phase-I "
                f"replies, got {size}"
            )
        half = size // 2
        squared = []
        for _ in range(self._config.cross_validation_rounds):
            order = self._rng.permutation(size)
            squared.append(squared_error(order[:half], order[half: 2 * half]))
        return float(np.mean(squared))

    def _tv_plan(
        self, size: int, estimate: Callable[[_Rows], NDArray[Any]],
        delta_req: float,
    ) -> Tuple[int, float]:
        """``m' = (m/2) · CV² / Δreq²`` (none below one peer, at most
        the cap) and the RMS ``CV``, for CV the total-variation distance
        between the normalized vectors two halves' rows ``estimate`` (1
        when either total is not positive)."""

        def squared_tv(first: _Rows, second: _Rows) -> float:
            one, two = estimate(first), estimate(second)
            total_one, total_two = one.sum(), two.sum()
            if total_one <= 0 or total_two <= 0:
                return 1.0
            tv = 0.5 * float(np.abs(one / total_one - two / total_two).sum())
            return tv**2

        cv_squared = self._cross_validate(size, squared_tv)
        m_prime = size // 2 * cv_squared / delta_req**2
        additional = int(math.ceil(m_prime)) if m_prime >= 1.0 else 0
        cap = self._config.max_phase_two_peers
        if cap is not None:
            additional = min(additional, cap)
        return additional, math.sqrt(cv_squared)

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

    def _phase_one_only(
        self, query: _Q, sink: Optional[int]
    ) -> Tuple[Any, CostLedger]:
        """Phase I alone, in one piece and on a fresh ledger, from
        ``sink`` (a uniformly random peer when omitted): ``m`` peers'
        replies and what they cost."""
        if sink is None:
            sink = int(self._rng.integers(self._simulator.num_peers))
        ledger = self._simulator.new_ledger()
        sample = drain_steps(self._collect(
            sink, query, self._config.phase_one_peers, ledger, None, "one"
        ))
        return sample, ledger

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
        if prior is None:
            if sink is None:
                sink = int(self._rng.integers(self._simulator.num_peers))
            prior = _Prior("one", sink, self._config.phase_one_peers)
        sink = prior.sink
        ledger = self._simulator.new_ledger()
        timing_token = self._simulator.begin_timing()
        requested = prior.size
        sample_one, phase_one = yield from self._phase(
            prior.phase, sink, query, requested, ledger, chunk_peers,
            prior.held,
        )
        analyze = prior.analyze or self._analyze
        additional, error, plan = analyze(query, sample_one, delta_req)
        emit_if_tracing(
            PhaseEvent, self._name, "analysis", "end", additional, 0, None,
            error,
        )

        sample_two: Any = None
        phase_two: Optional[PhaseReport] = None
        pooled = sample_one
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
            pooled = type(sample_one).concat([sample_one, sample_two])

        run = _Run(
            query, sink, delta_req, plan, error, sample_two, pooled,
            phase_one, phase_two, requested, len(pooled),
            len(pooled) < requested, ledger.snapshot(),
            self._simulator.finish_timing(timing_token),
        )
        result = self._result(run)
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

    def _bind(self, simulator: NetworkSimulator, seed: SeedLike) -> None:
        super()._bind(simulator, seed)
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

    def collect_observations(
        self,
        sink: int,
        query: AggregationQuery,
        count: int,
        ledger: CostLedger,
    ) -> AggregateSample:
        """Walk, visit ``count`` peers, and return the sample.

        Public so tools (:func:`~repro.core.explain.explain`) can
        reuse the walk+visit+reply pipeline.
        """
        return drain_steps(
            self.collect_observations_stepwise(sink, query, count, ledger)
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
        """Stepwise :meth:`collect_observations` — yields checkpoints
        between chunks of ``chunk_peers`` visits, returns the same
        sample: the replies with the stationary probabilities the sink
        reconstructs for this engine's walk attached.

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
        return observations_from_replies(
            sample,
            num_edges=self._simulator.topology.num_edges,
            num_peers=self._simulator.topology.num_peers,
            variant=config.walk_variant,
        )

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
        sample, _ = self._phase_one_only(query, sink)
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

    _collect = collect_observations_stepwise

    def _phase_estimate(
        self, query: AggregationQuery, sample: AggregateSample
    ) -> Optional[float]:
        return self._final_estimate(query, sample)

    def _analyze(
        self, query: AggregationQuery, sample: AggregateSample,
        delta_req: float,
    ) -> Tuple[int, float, PhaseOneAnalysis]:
        analysis = _analyze_aggregate(
            self._config, query, sample, delta_req,
            self._seed_seq.spawn(1)[0], self._simulator.topology.num_peers,
        )
        return (
            analysis.plan.additional_peers,
            analysis.cross_validation.rms_error,
            analysis,
        )

    def _result(self, run: _Run[AggregateSample]) -> ApproximateResult:
        # With no phase II the pooled sample is phase I's, whose
        # estimate the loop has taken (and raised on, if undefined).
        final, estimate = run.pooled, run.phase_one.estimate
        if run.sample_two is not None:
            if not self._config.pool_phases and len(run.sample_two):
                final = run.sample_two  # the paper's phase-II-only form
            estimate = self._final_estimate(run.query, final)
        assert estimate is not None
        return run.answer(
            run.query, estimate,
            self.confidence_interval(run.query, final, estimate), run.plan,
        )
