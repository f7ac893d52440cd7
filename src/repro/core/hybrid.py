"""Hybrid pre-computed + on-the-fly sampling (paper §6, open problem 1).

The paper asks: *"Is it possible to build hybrid solutions that do some
amount of pre-computations of samples, in addition to 'on-the-fly'
sampling such as ours?"*  This module answers with a plan cache: the
expensive product of phase I is not the sample itself (data changes
quickly, which is why pre-computed samples go stale) but the *sampling
statistics* — the cross-validated error level and the normalization
scale for a query signature.  Those drift far more slowly than
individual tuples, so they can be cached:

* the first execution of a query signature runs the full two-phase
  algorithm and stores ``(mean CVError², half size, scale)``;
* a repeat execution is one plan-sized phase I: the cached statistics
  size a single walk of ``m' = half · CVError²/Δ²`` peers, saving the
  analysis round-trip and the pooled phase-II visits;
* every warm execution folds its fresh sample's statistics back into
  the cache with exponential decay, so the plan tracks data drift;
* entries expire after ``max_age`` uses (or on explicit
  :meth:`HybridEngine.invalidate`), falling back to a cold run;
* every entry records the population it was planned against
  (peer/edge counts), and a lookup against a *different* population —
  a churn epoch added or removed peers — is a cold miss.  Plans never
  silently survive churn.

The cache itself (:class:`PlanCache`) is a standalone object so a
query service can share one across many engines: repeat signatures in
a workload go warm regardless of which engine instance serves them.

The cache stores statistics, never tuples — consistent with the
paper's argument that pre-computed *samples* are impractical in P2P
systems while slow-changing *parameters* are fair game.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections import OrderedDict
from typing import Mapping, Optional, Tuple

import numpy as np
from numpy.typing import NDArray

from .._util import SeedLike, ensure_rng, seed_sequence
from ..errors import ConfigurationError
from ..network.protocol import AggregateSample
from ..network.simulator import NetworkSimulator
from ..obs.events import DeltaReuseEvent
from ..obs.tracer import emit_if_tracing
from ..query.model import AggregationQuery
from .crossval import cross_validate
from .estimators import observations_from_replies
from .planner import PhaseOneAnalysis, estimate_scale
from .result import ApproximateResult
from .two_phase import TwoPhaseConfig, TwoPhaseEngine, _Prior, _Run


__all__ = [
    "CachedPlan",
    "PLAN_CACHE_ENTRIES",
    "PlanCache",
    "RetainedSample",
    "HybridEngine",
]

#: The most entries a :class:`PlanCache` keeps: past it, the least
#: recently used (looked up warm or stored) goes, retained sample and
#: all.
PLAN_CACHE_ENTRIES = 1024


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
        Decayed normalization scale (N-hat or total-sum estimate).
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
    scale: float
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


class PlanCache:
    """Signature-keyed store of :class:`CachedPlan` entries.

    Shareable across :class:`HybridEngine` instances — a query service
    hands one cache to every per-query engine so a workload's repeat
    signatures go warm no matter which engine serves them.  Lookups
    are churn-epoch aware: an entry recorded against a different
    peer/edge population is dropped and reported as a miss, so plans
    never outlive the network they were learned on.  At most
    :data:`PLAN_CACHE_ENTRIES` entries are kept, in LRU order, so a
    stream of one-off signatures cannot grow it without bound.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[str, CachedPlan] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._expirations = 0
        self._churn_invalidations = 0
        self._delta_hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hits(self) -> int:
        """Lookups served warm."""
        return self._hits

    @property
    def misses(self) -> int:
        """Lookups that fell back to a cold run (absent, aged, or
        churn-invalidated)."""
        return self._misses

    @property
    def expirations(self) -> int:
        """Misses caused by ``max_age`` expiry."""
        return self._expirations

    @property
    def churn_invalidations(self) -> int:
        """Entries dropped because the population changed under them."""
        return self._churn_invalidations

    @property
    def delta_hits(self) -> int:
        """Churn mismatches salvaged by a retained sample (delta
        top-up instead of a cold restart)."""
        return self._delta_hits

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
            self._misses += 1
            return None
        if not plan.matches_population(num_peers, num_edges):
            if not (
                allow_delta
                and plan.retained is not None
                and plan.uses < max_age
            ):
                del self._entries[signature]
                self._churn_invalidations += 1
                self._misses += 1
                return None
            self._delta_hits += 1
        elif plan.uses >= max_age:
            self._expirations += 1
            self._misses += 1
            return None
        else:
            self._hits += 1
        self._entries.move_to_end(signature)
        return plan

    def invalidate(self, signature: Optional[str] = None) -> None:
        """Drop one signature's entry, or every entry."""
        if signature is None:
            self._entries.clear()
        else:
            self._entries.pop(signature, None)


class HybridEngine(TwoPhaseEngine):
    """Two-phase engine with a warm plan cache.

    A run is the two-phase loop (:meth:`TwoPhaseEngine.run_stepwise`)
    with what the cache already knows supplied to it.  A cold run (no
    servable plan) is the loop as is, and its phase-I statistics become
    the signature's plan.  A warm run's phase I (``"warm"``) is sized
    from the plan, and its analysis is the plan refresh, which orders
    no phase II.  A delta run (``"delta"``) is a warm run whose phase I
    starts with the retained sample's survivors.

    Parameters
    ----------
    simulator, config, seed:
        As for :class:`TwoPhaseEngine`.  Cold runs draw from the
        seed's first child; warm and delta runs draw their sinks and
        refresh halvings from the seed's own stream.
    max_age:
        Warm executions before an entry is considered stale and a cold
        (full two-phase) run refreshes it.
    decay:
        Exponential blending factor for refreshing cached statistics
        from warm samples (closer to 1 = slower adaptation).
    cache:
        The plan cache to serve from.  Private by default; pass a
        shared :class:`PlanCache` to pool plans across engines (the
        query service does this for its whole workload).
    delta_reestimation:
        Off by default.  When on — and the simulator carries
        ``peer_labels`` (it came from a churn snapshot) — every run
        retains its sample keyed by stable labels, and a churn-epoch
        cache invalidation re-estimates incrementally: the retained
        sample is filtered against the new epoch's live set, surviving
        replies are remapped onto the new topology, and only the
        deficit is collected by a fresh walk.  Default-off keeps every
        existing execution path (and its traces) byte-identical.
    """

    def __init__(
        self,
        simulator: NetworkSimulator,
        config: Optional[TwoPhaseConfig] = None,
        seed: SeedLike = None,
        max_age: int = 25,
        decay: float = 0.7,
        cache: Optional[PlanCache] = None,
        delta_reestimation: bool = False,
    ):
        if max_age < 1:
            raise ConfigurationError("max_age must be >= 1")
        if not 0.0 <= decay < 1.0:
            raise ConfigurationError("decay must be in [0, 1)")
        self._plan_seq = seed_sequence(seed)
        if isinstance(seed, np.random.Generator):
            self._plan_rng = seed
        super().__init__(simulator, config, self._plan_seq.spawn(1)[0])
        self._max_age = max_age
        self._decay = decay
        self._cache = cache if cache is not None else PlanCache()
        self._delta_reestimation = delta_reestimation
        self._cold_runs = 0
        self._warm_runs = 0
        self._delta_runs = 0

    @functools.cached_property
    def _plan_rng(self) -> np.random.Generator:
        """The stream of warm and delta runs (sinks, refresh
        halvings), built on its first draw — a cold run never draws
        from it."""
        return ensure_rng(self._plan_seq)

    # ------------------------------------------------------------------

    @property
    def cold_runs(self) -> int:
        """Executions that ran the full two-phase algorithm."""
        return self._cold_runs

    @property
    def warm_runs(self) -> int:
        """Executions served from the plan cache."""
        return self._warm_runs

    @property
    def delta_runs(self) -> int:
        """Executions served by churn-delta re-estimation."""
        return self._delta_runs

    @property
    def delta_reestimation(self) -> bool:
        """Whether churn-delta re-estimation is enabled."""
        return self._delta_reestimation

    @property
    def cache(self) -> PlanCache:
        """The plan cache this engine serves from."""
        return self._cache

    def cached_plan(self, query: AggregationQuery) -> Optional[CachedPlan]:
        """The cache entry for ``query``'s signature, if any."""
        return self._cache.get(query.to_sql())

    def invalidate(self, query: Optional[AggregationQuery] = None) -> None:
        """Drop one signature's entry, or the whole cache.

        Churn is handled automatically (entries record their
        population and mismatches cold-miss); this remains useful for
        bulk data loads or manual experiments.
        """
        self._cache.invalidate(None if query is None else query.to_sql())

    def rebind(
        self, simulator: NetworkSimulator, seed: SeedLike = None
    ) -> None:
        """Point this engine at a new network snapshot (churn epoch).

        Rebuilds the walker, the cold streams (from the seed's next
        child unless ``seed`` is given) and the estimator against the
        new topology — the previous estimator baked the old
        ``num_peers`` into the Hájek estimate, which is exactly the
        staleness the per-entry population check guards against.  The
        plan cache is kept: entries for the old population cold-miss
        on their own.
        """
        self._bind(
            simulator, self._plan_seq.spawn(1)[0] if seed is None else seed
        )

    # ------------------------------------------------------------------
    # The strategy: the cache supplies phase I, cold runs fill it
    # ------------------------------------------------------------------

    def _prior(
        self, query: AggregationQuery, delta_req: float, sink: Optional[int]
    ) -> Optional[_Prior]:
        """The plan-sized phase I of a warm or delta run, or ``None``
        (a cold run) when the cache has no servable plan."""
        topology = self._simulator.topology
        labels = self._simulator.peer_labels
        plan = self._cache.lookup(
            query.to_sql(), topology.num_peers, topology.num_edges,
            self._max_age,
            allow_delta=self._delta_reestimation and labels is not None,
        )
        if plan is None:
            self._cold_runs += 1
            return None
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
        held: Optional[AggregateSample] = None
        if plan.matches_population(topology.num_peers, topology.num_edges):
            self._warm_runs += 1
        else:
            # Churn delta: the retained sample, filtered against the
            # new epoch's live set and remapped onto its vertex ids,
            # with the new topology's probabilities.
            retained = plan.retained
            assert retained is not None and labels is not None
            self._delta_runs += 1
            vertex_of = {label: v for v, label in enumerate(labels)}
            held = observations_from_replies(
                retained.survivors(vertex_of, topology.degrees),
                num_edges=topology.num_edges,
                num_peers=topology.num_peers,
                variant=self._config.walk_variant,
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
            "warm" if held is None else "delta", sink, peers, held,
            functools.partial(self._refresh, plan, sink),
        )

    def _refresh(
        self, plan: CachedPlan, sink: int, query: AggregationQuery,
        sample: AggregateSample, delta_req: float,
    ) -> Tuple[int, float, CachedPlan]:
        """A warm or delta run's stand-in for the sink analysis: fold
        the sample's statistics back into ``plan`` (so it tracks data
        drift without a cold restart), retain the sample, and order no
        phase II.  The result reports the plan as it was when it sized
        the run, so ``result.scale * delta_req`` is the walk's absolute
        target exactly."""
        planned = dataclasses.replace(plan)
        if len(sample) >= 4:
            cv = cross_validate(
                sample,
                rounds=self._config.cross_validation_rounds,
                seed=self._plan_rng,
                estimator=self._point,
            )
            # Rescale the fresh CVError² from this sample's half size
            # to the cached anchor (CVError² ~ 1/half).
            rescaled = (
                cv.mean_squared_error * cv.half_size / plan.half_size
                if plan.half_size
                else cv.mean_squared_error
            )
            fresh_scale = estimate_scale(query, sample, self._point)
            plan.refresh(rescaled, fresh_scale, self._decay)
        self._retain(plan, sample, sink)
        topology = self._simulator.topology
        if not plan.matches_population(topology.num_peers, topology.num_edges):
            # A delta run: the statistics now describe the new epoch,
            # so the next lookup is an ordinary warm hit.
            plan.num_peers = topology.num_peers
            plan.num_edges = topology.num_edges
        return 0, math.sqrt(plan.mean_squared_cv_error), planned

    def _result(self, run: _Run[AggregateSample]) -> ApproximateResult:
        result = super()._result(run)
        analysis = result.analysis
        if isinstance(analysis, PhaseOneAnalysis):
            # A cold run: its phase-I statistics become the plan.
            topology = self._simulator.topology
            plan = CachedPlan(
                mean_squared_cv_error=(
                    analysis.cross_validation.mean_squared_error
                ),
                half_size=analysis.cross_validation.half_size,
                scale=analysis.scale,
                num_peers=topology.num_peers,
                num_edges=topology.num_edges,
            )
            self._retain(plan, run.pooled, run.sink)
            self._cache.store(run.query.to_sql(), plan)
        return result

    def _retain(
        self, plan: CachedPlan, replies: AggregateSample, sink: int
    ) -> None:
        """Record a run's sample on its plan, keyed by stable labels.

        No-op unless delta re-estimation is on and the simulator knows
        its peers' stable labels — in that case nothing could be
        matched across epochs anyway.  Consumes no randomness.
        """
        labels = self._simulator.peer_labels
        if not self._delta_reestimation or labels is None or not replies:
            return
        plan.retained = RetainedSample(
            sink_label=labels[sink],
            labels=tuple(labels[v] for v in replies["source"].tolist()),
            replies=replies,
        )
