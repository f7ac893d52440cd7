"""Multi-trial experiment execution (paper §5.5).

"All of our results were generated from five independent experiments
and averaged for each individual parameter configuration" — this module
is that loop.  :func:`run_trials` executes one engine flavour several
times with independent seeds (and sinks), scores each run against the
exact answer with the paper's normalization, and returns per-trial
outcomes ready for averaging.

Trials are statistically independent (trial ``i`` always derives its
engine from ``seed + i``, never from shared mutable state), so with
``workers > 1`` they execute on a fork-based process pool — results
are identical to the serial loop, element for element, regardless of
worker count.  Fault-injected networks (a bound
:class:`~repro.network.faults.FaultPlan`) share the simulator's fault
clock across trials, so those always run serially to keep the
injected failures exactly reproducible.
"""

from __future__ import annotations

import dataclasses
import math
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from .. import _pool
from ..core.median import MedianEngine
from ..core.two_phase import PhaseConfig, TwoPhaseConfig, TwoPhaseEngine
from ..errors import ConfigurationError
from ..metrics.accuracy import median_rank_error
from ..obs.manifest import (
    RunManifest,
    canonical_config,
    config_digest,
    git_revision,
    manifest_filename,
    write_manifest,
)
from ..obs.tracer import active_tracer
from ..query.exact import evaluate_exact, rank_of_value
from ..query.model import AggregateOp, AggregationQuery
from ..sampling.baselines import BFSEngine, dfs_engine
from ..service import CostBudget, QueryService
from .configs import NetworkBundle, default_workers

__all__ = [
    "TrialOutcome",
    "WorkloadOutcome",
    "run_trials",
    "run_workload",
    "build_manifest",
    "mean_error",
    "mean_sample_size",
    "mean_peers",
]

_ENGINES = ("two-phase", "bfs", "dfs", "median")


@dataclasses.dataclass(frozen=True)
class TrialOutcome:
    """One trial's result, scored against ground truth.

    ``error`` is on the paper's normalized scale: COUNT ÷ N, SUM ÷
    total sum, AVG ÷ true average, MEDIAN as rank distance from N/2
    over N.
    """

    estimate: float
    truth: float
    error: float
    tuples_sampled: int
    peers_visited: int
    hops: int
    messages: int
    latency_ms: float


def _score(
    bundle: NetworkBundle,
    query: AggregationQuery,
    estimate: float,
    truth: float,
) -> float:
    if query.agg is AggregateOp.COUNT:
        return abs(estimate - truth) / bundle.num_tuples
    if query.agg is AggregateOp.SUM:
        total = bundle.dataset.total_sum()
        return abs(estimate - truth) / total
    if query.agg is AggregateOp.AVG:
        return abs(estimate - truth) / abs(truth)
    # MEDIAN / QUANTILE: rank distance from the target rank.
    rank = rank_of_value(estimate, bundle.flat_dataset, query.column)
    if query.agg is AggregateOp.MEDIAN or math.isclose(
        query.quantile_fraction, 0.5
    ):
        return median_rank_error(rank, bundle.num_tuples)
    target = query.quantile_fraction * bundle.num_tuples
    return abs(rank - target) / bundle.num_tuples


def _run_single_trial(
    bundle: NetworkBundle,
    query: AggregationQuery,
    delta_req: float,
    engine: str,
    config: PhaseConfig,
    truth: float,
    trial_seed: int,
) -> TrialOutcome:
    """Execute and score one trial — the unit both the serial loop and
    the process pool run, so results cannot depend on the executor."""
    if engine == "two-phase":
        runner = TwoPhaseEngine(
            bundle.simulator, config=config, seed=trial_seed
        )
        result = runner.execute(query, delta_req)
    elif engine == "dfs":
        runner = dfs_engine(
            bundle.simulator, config=config, seed=trial_seed
        )
        result = runner.execute(query, delta_req)
    elif engine == "bfs":
        runner = BFSEngine(
            bundle.simulator, config=config, seed=trial_seed
        )
        result = runner.execute(query, delta_req)
    else:
        runner = MedianEngine(
            bundle.simulator, config=config, seed=trial_seed
        )
        result = runner.execute(query, delta_req)

    cost = result.cost
    return TrialOutcome(
        estimate=result.estimate,
        truth=truth,
        error=_score(bundle, query, result.estimate, truth),
        tuples_sampled=result.total_tuples_sampled,
        peers_visited=result.total_peers_visited,
        hops=cost.hops,
        messages=cost.messages,
        latency_ms=cost.latency_ms,
    )


def build_manifest(
    query: AggregationQuery,
    delta_req: float,
    engine: str,
    config: PhaseConfig,
    seed: int,
    trials: int,
    outcomes: Sequence[TrialOutcome],
) -> RunManifest:
    """The run manifest for one completed :func:`run_trials` call.

    Captures everything needed to re-run or audit the run — engine,
    query SQL, canonical config plus its hash, base seed, git revision,
    per-trial outcomes, summary aggregates, and the metrics snapshot of
    the active tracer (empty when tracing is off).
    """
    config_data = canonical_config(config)
    assert isinstance(config_data, dict)
    tracer = active_tracer()
    metrics: Dict[str, object] = (
        tracer.registry.snapshot() if tracer is not None else {}
    )
    summary: Dict[str, object] = {
        "mean_error": mean_error(outcomes),
        "mean_sample_size": mean_sample_size(outcomes),
        "mean_peers": mean_peers(outcomes),
    }
    return RunManifest(
        engine=engine,
        query=query.to_sql(),
        delta_req=delta_req,
        seed=seed,
        trials=trials,
        config=config_data,
        config_digest=config_digest(config),
        git_revision=git_revision(),
        outcomes=[dataclasses.asdict(outcome) for outcome in outcomes],
        summary=summary,
        metrics=metrics,
    )


def _manifest_target(
    manifest_path: Optional[Union[str, Path]],
    engine: str,
    config: PhaseConfig,
    seed: int,
) -> Optional[Path]:
    """Where this run's manifest goes, or ``None`` for no manifest.

    An explicit ``manifest_path`` wins; pointing it at a directory (or
    setting ``REPRO_MANIFEST_DIR``) selects the conventional
    ``run_<engine>_<confighash>_s<seed>.json`` name inside it.
    """
    if manifest_path is not None:
        target = Path(manifest_path)
        if not target.is_dir():
            return target
    else:
        directory = os.environ.get("REPRO_MANIFEST_DIR")
        if not directory:
            return None
        target = Path(directory)
    return target / manifest_filename(engine, config_digest(config), seed)


def run_trials(
    bundle: NetworkBundle,
    query: AggregationQuery,
    delta_req: float,
    engine: str = "two-phase",
    trials: int = 3,
    config: Optional[PhaseConfig] = None,
    seed: int = 1000,
    workers: Optional[int] = None,
    manifest_path: Optional[Union[str, Path]] = None,
) -> List[TrialOutcome]:
    """Run ``trials`` independent executions and score each.

    Parameters
    ----------
    bundle:
        The evaluation network.
    query:
        The aggregation query.
    delta_req:
        Required accuracy on the normalized scale.
    engine:
        ``"two-phase"`` (the paper's method), ``"bfs"``, ``"dfs"``
        (Figure 7 baselines) or ``"median"`` (§5.6).
    trials:
        Independent repetitions, each with its own seed and sink.
    config:
        Engine configuration (a :class:`TwoPhaseConfig`; the median
        engine takes any :class:`PhaseConfig`).  A sane default with a
        phase-II cost cap is used when omitted.
    seed:
        Base seed; trial ``i`` uses ``seed + i``.
    workers:
        Process-pool size; defaults to ``REPRO_WORKERS`` (1 = serial).
        Per-trial seed derivation is unchanged, so any worker count
        returns exactly the serial results.  The pool is capped at the
        machine's core count (extra forks only add overhead);
        fault-injected bundles (a bound fault plan) always run
        serially, and platforms without ``fork`` fall back to the
        serial loop.
    manifest_path:
        Where to write the run manifest (config hash, seed, git
        revision, per-trial outcomes, metrics snapshot).  A directory
        selects the conventional per-run filename inside it.  When
        omitted, the ``REPRO_MANIFEST_DIR`` environment variable (set
        by the benchmark harness next to figure outputs) is consulted;
        with neither, no manifest is written.
    """
    if engine not in _ENGINES:
        raise ConfigurationError(
            f"engine must be one of {_ENGINES}, got {engine!r}"
        )
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    workers = default_workers() if workers is None else workers
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")

    # The median engine runs any phase config; the others read the
    # COUNT/SUM/AVG fields too.
    needed = PhaseConfig if engine == "median" else TwoPhaseConfig
    engine_config = config or needed(max_phase_two_peers=2 * bundle.num_peers)
    if not isinstance(engine_config, needed):
        raise ConfigurationError(
            f"{engine} engine needs a {needed.__name__}"
        )

    truth = evaluate_exact(query, bundle.flat_dataset)
    seeds = [seed + trial for trial in range(trials)]

    # Forking more workers than cores only adds overhead (results are
    # identical either way), so the pool is capped at the machine size
    # — with the shared once-per-process warning (repro._pool), the
    # same one the sharded QueryService backend emits, so REPRO_WORKERS
    # oversubscription never *looks* parallel silently.
    effective_workers = _pool.effective_workers(
        workers, jobs=trials, cap=True, label="run_trials"
    )
    serial_reason = _pool.shared_fault_serial_reason(bundle.simulator)
    parallel = (
        effective_workers > 1
        and serial_reason is None
        and _pool.fork_available()
    )
    if not parallel:
        outcomes = [
            _run_single_trial(
                bundle, query, delta_req, engine, engine_config, truth, s
            )
            for s in seeds
        ]
    else:
        # The big trial context (bundle, query, config) is captured by
        # the closure and travels to the forked workers copy-on-write;
        # only seeds and TrialOutcomes cross the queues.
        def trial_handler(trial_seed: int) -> TrialOutcome:
            return _run_single_trial(
                bundle, query, delta_req, engine, engine_config, truth,
                trial_seed,
            )

        outcomes = _pool.run_forked_map(
            trial_handler, seeds, effective_workers, name="repro-trials"
        )

    target = _manifest_target(manifest_path, engine, engine_config, seed)
    if target is not None:
        write_manifest(
            target,
            build_manifest(
                query, delta_req, engine, engine_config, seed, trials,
                outcomes,
            ),
        )
    return outcomes


@dataclasses.dataclass(frozen=True)
class WorkloadOutcome:
    """One served query's result, scored against ground truth.

    ``error`` is ``nan`` unless the query completed (``status ==
    "done"``); budget-stopped and failed queries keep their status and
    ``detail`` so workload summaries can count them.
    """

    query_id: int
    sql: str
    status: str
    estimate: float
    truth: float
    error: float
    detail: str
    peers_visited: int
    hops: int
    messages: int
    latency_ms: float


def run_workload(
    bundle: NetworkBundle,
    queries: Sequence[AggregationQuery],
    delta_req: float,
    config: Optional[TwoPhaseConfig] = None,
    seed: int = 1000,
    max_in_flight: int = 4,
    chunk_peers: Optional[int] = 8,
    budget: Optional[CostBudget] = None,
) -> List[WorkloadOutcome]:
    """Serve ``queries`` concurrently over ``bundle`` and score each.

    The workload runs through a :class:`~repro.service.QueryService`
    (shared plan cache, round-robin interleaving, per-query sessions),
    so repeated query signatures exercise the plans' warm path exactly
    as a long-lived deployment would.  Results are independent of
    ``max_in_flight`` — the service's determinism invariant — so this
    is safe to use for accuracy experiments at any concurrency.

    Parameters
    ----------
    bundle:
        The evaluation network.
    queries:
        The workload, scored in submission order.
    delta_req:
        Required accuracy on the normalized scale (shared by all
        queries).
    config:
        Two-phase configuration; the same phase-II-capped default as
        :func:`run_trials` when omitted.
    seed:
        Service seed; per-query streams are spawned from it in
        submission order.
    max_in_flight:
        Concurrency ceiling (does not affect results).
    chunk_peers:
        Visits between two checks of ``budget`` (the service's
        enforcement quantum); without a ceiling every phase is one
        step and this has no effect.
    budget:
        Optional per-query cost ceiling applied to every query.
    """
    if not queries:
        raise ConfigurationError("queries must be non-empty")
    cap = 2 * bundle.num_peers
    engine_config = config or TwoPhaseConfig(max_phase_two_peers=cap)
    service = QueryService(
        bundle.simulator,
        engine_config,
        seed=seed,
        max_in_flight=max_in_flight,
        max_queue=max(len(queries), 1),
        chunk_peers=chunk_peers,
        default_budget=budget,
    )
    tickets = [service.submit(query, delta_req) for query in queries]
    service.run()

    scored: List[WorkloadOutcome] = []
    for ticket in tickets:
        outcome = service.outcome(ticket)
        assert outcome is not None
        if outcome.ok and outcome.result is not None:
            truth = evaluate_exact(ticket.query, bundle.flat_dataset)
            estimate = outcome.result.estimate
            error = _score(bundle, ticket.query, estimate, truth)
        else:
            truth = math.nan
            estimate = math.nan
            error = math.nan
        cost = outcome.cost
        scored.append(
            WorkloadOutcome(
                query_id=ticket.query_id,
                sql=ticket.signature,
                status=outcome.status,
                estimate=estimate,
                truth=truth,
                error=error,
                detail=outcome.detail,
                peers_visited=cost.peers_visited if cost else 0,
                hops=cost.hops if cost else 0,
                messages=cost.messages if cost else 0,
                latency_ms=cost.latency_ms if cost else 0.0,
            )
        )
    return scored


def mean_error(outcomes: Sequence[TrialOutcome]) -> float:
    """Average normalized error across trials."""
    return float(np.mean([o.error for o in outcomes]))


def mean_sample_size(outcomes: Sequence[TrialOutcome]) -> float:
    """Average total tuples sampled across trials (the paper's
    latency surrogate)."""
    return float(np.mean([o.tuples_sampled for o in outcomes]))


def mean_peers(outcomes: Sequence[TrialOutcome]) -> float:
    """Average peers visited across trials."""
    return float(np.mean([o.peers_visited for o in outcomes]))
