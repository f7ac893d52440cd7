"""Hybrid pre-computed + on-the-fly sampling (paper §6, open problem 1).

The paper asks: *"Is it possible to build hybrid solutions that do some
amount of pre-computations of samples, in addition to 'on-the-fly'
sampling such as ours?"*  This module answers with a plan cache: the
expensive product of phase I is not the sample itself (data changes
quickly, which is why pre-computed samples go stale) but the *sampling
statistics* — the cross-validated error level and the normalization
scale for a query signature.  Those drift far more slowly than
individual tuples, so they are cached; tuples never are.

Any two-phase engine given a :class:`PlanCache` plans through it —
COUNT/SUM/AVG, MEDIAN/QUANTILE, histograms and GROUP BY alike (the
two-phase loop in :mod:`repro.core.two_phase` runs cold, warm and
delta runs): a repeat signature is one plan-sized phase I whose own
analysis refreshes the plan with exponential decay.  Entries expire after ``max_age`` warm runs, and a
lookup against a different peer/edge population (a churn epoch) is a
cold miss, so plans never silently survive churn.  A query service
shares one cache across its per-query engines, so repeat signatures go
warm whichever engine instance serves them.  :class:`HybridEngine` is
the COUNT/SUM/AVG engine with a cache.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from .._util import SeedLike
from ..errors import ConfigurationError
from ..network.simulator import NetworkSimulator
from ..query.model import AggregationQuery
from .two_phase import CachedPlan, RetainedSample, TwoPhaseConfig, TwoPhaseEngine


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


class PlanCache:
    """Signature-keyed store of :class:`CachedPlan` entries.

    Shareable across engines of any kind — a query service hands one
    cache to every per-query engine so a workload's repeat signatures
    go warm no matter which engine serves them.  Lookups are
    churn-epoch aware: an entry recorded against a different peer/edge
    population is dropped and reported as a miss, so plans never
    outlive the network they were learned on.  At most
    :data:`PLAN_CACHE_ENTRIES` entries are kept, in LRU order, so a
    stream of one-off signatures cannot grow it without bound.

    The engines given this cache serve under its plan policy (see
    :class:`HybridEngine`): ``max_age`` warm runs per entry, ``decay``
    for refreshes, and ``delta_reestimation`` (honoured by the
    COUNT/SUM/AVG engine, whose samples can cross a churn epoch).

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


class HybridEngine(TwoPhaseEngine):
    """The COUNT/SUM/AVG engine with a plan cache.

    A :class:`TwoPhaseEngine` given a cache — its own, under the plan
    policy below, unless a shared ``cache`` (whose policy the policy
    arguments must then match) is passed: cold runs store their
    statistics, warm runs are sized from them and refresh them, delta
    runs top up a retained sample after churn (the loop's plans, see
    :class:`~repro.core.two_phase.TwoPhaseEngine`).

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
        retains its sample keyed by stable labels, and after a churn
        epoch a plan is topped up from the survivors (a delta run)
        instead of dropped.
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
        if cache is None:
            cache = PlanCache(max_age, decay, delta_reestimation)
        elif (max_age, decay, delta_reestimation) != (
            cache.max_age, cache.decay, cache.delta_reestimation
        ):
            raise ConfigurationError(
                "a shared PlanCache carries the plan policy; pass "
                "max_age, decay and delta_reestimation to it"
            )
        super().__init__(simulator, config, seed, cache=cache)

    @property
    def delta_reestimation(self) -> bool:
        """Whether churn-delta re-estimation is enabled."""
        return self._retaining

    @property
    def cache(self) -> PlanCache:
        """The plan cache this engine serves from."""
        assert self._cache is not None
        return self._cache

    def cached_plan(self, query: AggregationQuery) -> Optional[CachedPlan]:
        """The cache entry for ``query``'s signature, if any."""
        return self.cache.get(query.to_sql())

    def invalidate(self, query: Optional[AggregationQuery] = None) -> None:
        """Drop one signature's entry, or the whole cache.

        Churn is handled automatically (entries record their
        population and mismatches cold-miss); this remains useful for
        bulk data loads or manual experiments.
        """
        self.cache.invalidate(None if query is None else query.to_sql())

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
