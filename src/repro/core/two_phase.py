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
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Generator, List, Optional, TypeVar

import numpy as np

from .._util import SeedLike, ensure_rng, seed_sequence
from ..errors import ConfigurationError, SamplingError
from ..metrics.cost import CostLedger
from ..network.protocol import AggregateSample, WalkerProbe
from ..network.simulator import NetworkSimulator
from ..network.walker import (
    RandomWalkConfig,
    RandomWalker,
    ResilientCollector,
    RetryPolicy,
)
from ..obs.events import EstimateEvent, PhaseEvent
from ..obs.tracer import emit_if_tracing
from ..query.model import AggregationQuery
from .confidence import ConfidenceInterval, query_confidence_interval
from .estimators import (
    estimate_query,
    make_estimator,
    observations_from_replies,
)
from .planner import PhaseOneAnalysis, analyze_phase_one
from .result import ApproximateResult, PhaseReport


__all__ = [
    "StepCheckpoint",
    "TwoPhaseConfig",
    "TwoPhaseEngine",
    "drain_steps",
]


@dataclasses.dataclass(frozen=True)
class StepCheckpoint:
    """One scheduling point inside a stepwise query execution.

    Stepwise engines (:meth:`TwoPhaseEngine.run_stepwise`,
    :meth:`~repro.core.hybrid.HybridEngine.run_stepwise`) yield one of
    these after every chunk of network work.  A scheduler uses the
    checkpoint to interleave queries fairly and to enforce per-query
    cost budgets: ``ledger`` is the query's live ledger, so
    ``ledger.snapshot()`` at a checkpoint is the query's exact cost so
    far.  The checkpoint stream is a pure function of the engine seed
    — it carries nothing scheduling-dependent.

    Attributes
    ----------
    engine:
        Which engine yielded (``"two-phase"`` or ``"hybrid"``).
    phase:
        The phase the work belongs to: ``one``/``analysis``/``two``
        for the two-phase engine, ``warm`` for hybrid warm runs.
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
    loop in :meth:`TwoPhaseEngine._collect_stepwise` would yield empty
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
class TwoPhaseConfig:
    """Tunables of the two-phase algorithm (paper's predefined values).

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

    phase_one_peers: int = 40
    tuples_per_peer: int = 25
    jump: int = 10
    walk_variant: str = "simple"
    burn_in: Optional[int] = None
    cross_validation_rounds: int = 5
    max_phase_two_peers: Optional[int] = None
    pool_phases: bool = True
    sampling_method: str = "uniform"
    confidence: float = 0.95
    estimator: str = "hajek"
    distinct_peers: bool = False
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
        """The walk configuration this engine config implies."""
        return RandomWalkConfig(
            jump=self.jump,
            burn_in=self.burn_in,
            variant=self.walk_variant,
            allow_revisits=not self.distinct_peers,
        )


class TwoPhaseEngine:
    """Answers COUNT/SUM/AVG queries approximately over a simulator."""

    def __init__(
        self,
        simulator: NetworkSimulator,
        config: Optional[TwoPhaseConfig] = None,
        seed: SeedLike = None,
    ):
        self._simulator = simulator
        self._config = config or TwoPhaseConfig()
        self._seed_seq = seed_sequence(seed)
        if isinstance(seed, np.random.Generator):
            self._rng = seed
        walk_seed, visit_seed = self._seed_seq.spawn(2)
        self._walker = RandomWalker(
            simulator.topology,
            config=self._config.walk_config(),
            seed=walk_seed,
        )
        # Engine-owned stream for local sub-sampling at visited peers,
        # so executions are deterministic given the engine seed.
        self._visit_rng = ensure_rng(visit_seed)
        self._point, self._variance = make_estimator(
            self._config.estimator, simulator.topology.num_peers
        )
        self._collector: Optional[ResilientCollector] = None
        if self._config.retry_policy is not None:
            self._collector = ResilientCollector(
                self._walker, simulator, policy=self._config.retry_policy
            )
        self._last_replies: Optional[AggregateSample] = None
        self._last_sink: Optional[int] = None

    @functools.cached_property
    def _rng(self) -> np.random.Generator:
        """The engine's own stream (sinks), built on its first draw."""
        return ensure_rng(self._seed_seq)

    @property
    def config(self) -> TwoPhaseConfig:
        """The engine configuration."""
        return self._config

    @property
    def simulator(self) -> NetworkSimulator:
        """The network this engine queries."""
        return self._simulator

    @property
    def last_replies(self) -> Optional[AggregateSample]:
        """The pooled sample of the most recent full run (diagnostic).

        Lets composed engines (delta re-estimation) retain a run's
        sample without re-walking; ``None`` before the first run.
        Purely observational — recording it consumes no randomness.
        """
        return self._last_replies

    @property
    def last_sink(self) -> Optional[int]:
        """The sink of the most recent full run (diagnostic)."""
        return self._last_sink

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _collect_stepwise(
        self,
        sink: int,
        query: AggregationQuery,
        count: int,
        ledger: CostLedger,
        chunk_peers: Optional[int],
        phase: str,
    ) -> Generator[StepCheckpoint, None, AggregateSample]:
        """Walk, visit and gather the sample, yielding between chunks.

        The walk runs through a :class:`~repro.network.walker.
        WalkCursor` in takes of ``chunk_peers`` selections (one take of
        ``count`` when ``None``), yielding a checkpoint after each —
        bit-identical replies for any chunking, because the cursor
        consumes the walker RNG exactly as one take does and the batch
        visits consume ``self._visit_rng`` peer by peer in selection
        order.  ``chunk_peers >= 1`` is the public entry points' check
        (:func:`check_chunk_peers`); the loop relies on it to finish.
        """
        probe = WalkerProbe(
            source=sink,
            destination=sink,
            sink=sink,
            query_text=query.to_sql(),
            tuples_per_peer=self._config.tuples_per_peer,
        )
        if self._collector is not None:
            # The resilient collector owns its retry/substitution loop;
            # it collects in one piece and checkpoints once.
            sample, _stats = self._collector.collect_aggregate(
                sink,
                query,
                count,
                ledger,
                probe_bytes=probe.size_bytes(),
                tuples_per_peer=self._config.tuples_per_peer,
                sampling_method=self._config.sampling_method,
                seed=self._visit_rng,
            )
            yield StepCheckpoint("two-phase", phase, len(sample), ledger)
            return sample
        cursor = self._walker.cursor(sink)
        chunks: List[AggregateSample] = []
        collected = 0
        remaining = count
        while True:
            take = remaining if chunk_peers is None else min(
                chunk_peers, remaining
            )
            walk = cursor.take(take)
            self._simulator.walk_hops(
                walk.hops, ledger, message_bytes=probe.size_bytes()
            )
            # The batch fast path visits all selected peers in one
            # vectorized pass; under fault injection it degrades to the
            # per-peer loop internally, dropping lost replies either way.
            chunks.append(
                self._simulator.visit_aggregate_batch(
                    walk.peers,
                    query,
                    sink=sink,
                    ledger=ledger,
                    tuples_per_peer=self._config.tuples_per_peer,
                    sampling_method=self._config.sampling_method,
                    seed=self._visit_rng,
                )
            )
            collected += len(chunks[-1])
            remaining -= take
            yield StepCheckpoint("two-phase", phase, collected, ledger)
            if remaining <= 0:
                return AggregateSample.concat(chunks)

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

        Public so composed engines (hybrid pre-computation, biased
        sampling) can reuse the walk+visit+reply pipeline.
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
        reconstructs for this engine's walk attached."""
        check_chunk_peers(chunk_peers)
        sample = yield from self._collect_stepwise(
            sink, query, count, ledger, chunk_peers, phase
        )
        return observations_from_replies(
            sample,
            num_edges=self._simulator.topology.num_edges,
            num_peers=self._simulator.topology.num_peers,
            variant=self._config.walk_variant,
        )

    def final_estimate(
        self, query: AggregationQuery, sample: AggregateSample
    ) -> float:
        """The engine's configured estimator over ``sample``."""
        return self._final_estimate(query, sample)

    # ------------------------------------------------------------------
    # The algorithm
    # ------------------------------------------------------------------

    def execute(
        self,
        query: AggregationQuery,
        delta_req: float,
        sink: Optional[int] = None,
    ) -> ApproximateResult:
        """Answer ``query`` within ``delta_req`` (normalized error).

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
        query: AggregationQuery,
        delta_req: float,
        sink: Optional[int] = None,
        chunk_peers: Optional[int] = None,
    ) -> StepwiseRun:
        """The two-phase algorithm as a resumable generator.

        Yields a :class:`StepCheckpoint` after every ``chunk_peers``
        peer visits (and after the sink analysis), returning the final
        :class:`~repro.core.result.ApproximateResult` — the *same*
        result :meth:`execute` produces, for any chunking.  A query
        service advances many of these generators round-robin to
        interleave queries; budget enforcement happens between chunks,
        so a query can overshoot its budget by at most one chunk.
        """
        check_chunk_peers(chunk_peers)
        if not query.agg.supports_pushdown:
            raise ConfigurationError(
                f"{query.agg.value} queries are answered by MedianEngine"
            )
        if sink is None:
            sink = int(self._rng.integers(self._simulator.num_peers))
        ledger = self._simulator.new_ledger()
        timing_token = self._simulator.begin_timing()

        # Phase I --------------------------------------------------------
        phase_one_hops_before = 0
        emit_if_tracing(
            PhaseEvent,
            engine="two-phase",
            phase="one",
            status="start",
            requested=self._config.phase_one_peers,
        )
        sample_one = yield from self.collect_observations_stepwise(
            sink, query, self._config.phase_one_peers, ledger,
            chunk_peers, "one",
        )
        hops_one = ledger.snapshot().hops - phase_one_hops_before
        estimate_one = self._final_estimate(query, sample_one)
        emit_if_tracing(
            PhaseEvent,
            engine="two-phase",
            phase="one",
            status="end",
            requested=self._config.phase_one_peers,
            received=len(sample_one),
            estimate=estimate_one,
        )
        analysis = analyze_phase_one(
            query,
            sample_one,
            delta_req=delta_req,
            tuples_per_peer=self._config.tuples_per_peer,
            cross_validation_rounds=self._config.cross_validation_rounds,
            max_phase_two_peers=self._config.max_phase_two_peers,
            seed=self._seed_seq.spawn(1)[0],
            estimator=self._config.estimator,
            num_peers=self._simulator.topology.num_peers,
        )
        emit_if_tracing(
            PhaseEvent,
            engine="two-phase",
            phase="analysis",
            status="end",
            requested=(
                analysis.plan.additional_peers
                if analysis.plan.phase_two_needed
                else 0
            ),
            error=analysis.cross_validation.rms_error,
        )
        # A checkpoint between analysis and phase II lets a scheduler
        # stop an over-budget query before it pays for the second walk.
        yield StepCheckpoint("two-phase", "analysis", len(sample_one), ledger)
        phase_one = PhaseReport.of_sample(sample_one, hops_one, estimate_one)

        # Phase II -------------------------------------------------------
        requested = self._config.phase_one_peers
        phase_two: Optional[PhaseReport] = None
        pooled = final = sample_one
        if analysis.plan.phase_two_needed:
            requested += analysis.plan.additional_peers
            hops_before = ledger.snapshot().hops
            emit_if_tracing(
                PhaseEvent,
                engine="two-phase",
                phase="two",
                status="start",
                requested=analysis.plan.additional_peers,
            )
            sample_two = yield from self.collect_observations_stepwise(
                sink, query, analysis.plan.additional_peers, ledger,
                chunk_peers, "two",
            )
            hops_two = ledger.snapshot().hops - hops_before
            # Diagnostic only: a phase-II sample of a few peers may see
            # no matching tuple while the pooled sample does.
            estimate_two: Optional[float]
            try:
                estimate_two = self._final_estimate(query, sample_two)
            except SamplingError:
                estimate_two = None
            emit_if_tracing(
                PhaseEvent,
                engine="two-phase",
                phase="two",
                status="end",
                requested=analysis.plan.additional_peers,
                received=len(sample_two),
                estimate=estimate_two,
            )
            phase_two = PhaseReport.of_sample(
                sample_two, hops_two, estimate_two
            )
            pooled = final = AggregateSample.concat([sample_one, sample_two])
            if not self._config.pool_phases and len(sample_two):
                final = sample_two  # the paper's literal phase-II-only form

        # Final estimate ---------------------------------------------------
        estimate = self._final_estimate(query, final)
        interval = self.confidence_interval(query, final, estimate)

        effective = len(pooled)
        self._last_replies = pooled
        self._last_sink = sink
        emit_if_tracing(
            EstimateEvent,
            engine="two-phase",
            agg=query.agg.value,
            estimate=estimate,
            requested=requested,
            received=effective,
            degraded=effective < requested,
        )
        return ApproximateResult(
            query=query,
            estimate=estimate,
            delta_req=delta_req,
            scale=analysis.scale,
            confidence_interval=interval,
            phase_one=phase_one,
            phase_two=phase_two,
            cost=ledger.snapshot(),
            analysis=analysis,
            requested_sample_size=requested,
            effective_sample_size=effective,
            degraded=effective < requested,
            timing=self._simulator.finish_timing(timing_token),
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
        if sink is None:
            sink = int(self._rng.integers(self._simulator.num_peers))
        ledger = self._simulator.new_ledger()
        return analyze_phase_one(
            query,
            self.collect_observations(
                sink, query, self._config.phase_one_peers, ledger
            ),
            delta_req=delta_req,
            tuples_per_peer=self._config.tuples_per_peer,
            cross_validation_rounds=self._config.cross_validation_rounds,
            max_phase_two_peers=self._config.max_phase_two_peers,
            seed=self._seed_seq.spawn(1)[0],
            estimator=self._config.estimator,
            num_peers=self._simulator.topology.num_peers,
        )
