"""One function per paper figure (Figures 2–16, §5.5–§5.6).

Each ``figureNN_*`` function runs the corresponding experiment at the
configured scale and returns a :class:`FigureResult` whose rows are the
series the paper plots.  Figures that share a sweep (error + sample
size over the same runs, e.g. 8/9, 10/11, 13/14, 15/16) share a cached
sweep so benchmark suites do not recompute the runs.

Absolute numbers depend on the substrate (and the scale factor); what
must match the paper is the *shape* of every series — EXPERIMENTS.md
records both.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple


from ..core.two_phase import PhaseConfig, TwoPhaseConfig
from ..query.model import AggregateOp, AggregationQuery, Between
from .configs import (
    NetworkBundle,
    default_scale,
    default_trials,
    gnutella_bundle,
    synthetic_bundle,
)
from .runner import mean_error, mean_sample_size, run_trials

__all__ = [
    "DELTA_SWEEP",
    "DELTA_SWEEP_FINE",
    "SELECTIVITY_SWEEP",
    "CLUSTER_SWEEP",
    "SKEW_SWEEP",
    "FigureResult",
    "figure02_required_accuracy",
    "figure03_selectivity",
    "figure04_sample_size_synthetic",
    "figure05_sample_size_gnutella",
    "figure06_samples_per_peer",
    "figure07_baselines",
    "figure08_clustering_error",
    "figure09_clustering_sample_size",
    "figure10_skew_error",
    "figure11_skew_sample_size",
    "figure12_cut_vs_jump",
    "figure13_sum_clustering_error",
    "figure14_sum_clustering_sample_size",
    "figure15_median_clustering_error",
    "figure16_median_clustering_sample_size",
    "FIGURES",
]

DELTA_SWEEP = (0.25, 0.20, 0.15, 0.10)
DELTA_SWEEP_FINE = (0.25, 0.20, 0.15, 0.10, 0.05)
SELECTIVITY_SWEEP = (0.025, 0.05, 0.10, 0.20, 0.40)
CLUSTER_SWEEP = (0.0, 0.25, 0.50, 0.75, 1.0)
SKEW_SWEEP = (0.0, 0.5, 1.0, 1.5, 2.0)


@dataclasses.dataclass(frozen=True)
class FigureResult:
    """A regenerated paper figure as tabular data.

    Attributes
    ----------
    figure_id:
        Paper figure number (2–16).
    title:
        The paper's caption, abbreviated.
    parameters:
        The fixed workload parameters of the sweep.
    columns:
        Column names; the first is the swept variable.
    rows:
        One row per swept value.
    expectation:
        The qualitative shape the paper reports (checked by tests).
    """

    figure_id: int
    title: str
    parameters: Dict[str, object]
    columns: List[str]
    rows: List[List[float]]
    expectation: str

    def column(self, name: str) -> List[float]:
        """Extract one column by name."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]


def _count_query(
    selectivity: float, skew: float, num_values: int = 100
) -> AggregationQuery:
    """A COUNT range query with the requested selectivity under
    Zipf(skew)."""
    from ..data.zipf import ZipfDistribution

    low, high = ZipfDistribution(
        num_values=num_values, skew=skew
    ).range_for_selectivity(selectivity)
    return AggregationQuery(
        agg=AggregateOp.COUNT,
        column="A",
        predicate=Between(column="A", low=low, high=high),
    )


def _sum_query() -> AggregationQuery:
    """The paper's SUM workload: SUM of all tuples (selectivity 1)."""
    return AggregationQuery(agg=AggregateOp.SUM, column="A")


def _median_query() -> AggregationQuery:
    """MEDIAN of all tuples."""
    return AggregationQuery(agg=AggregateOp.MEDIAN, column="A")


def _config(jump: int = 10, tuples_per_peer: int = 25, peers: int = 40,
            cap: Optional[int] = None) -> TwoPhaseConfig:
    return TwoPhaseConfig(
        phase_one_peers=peers,
        tuples_per_peer=tuples_per_peer,
        jump=jump,
        max_phase_two_peers=cap,
    )


# ---------------------------------------------------------------------------
# Figure 2 — required accuracy vs error %, COUNT, both topologies
# ---------------------------------------------------------------------------

def figure02_required_accuracy(
    scale: Optional[float] = None,
    trials: Optional[int] = None,
    seed: int = 200,
) -> FigureResult:
    """Figure 2: error stays within the required accuracy as Δreq
    varies (COUNT, CL=0.25, Z=0.2, j=10, selectivity 30%)."""
    scale = default_scale() if scale is None else scale
    trials = default_trials() if trials is None else trials
    synthetic = synthetic_bundle(scale=scale, cluster_level=0.25, skew=0.2)
    gnutella = gnutella_bundle(scale=scale, cluster_level=0.25, skew=0.2)
    query = _count_query(selectivity=0.30, skew=0.2)
    rows = []
    for delta in DELTA_SWEEP:
        row = [delta]
        for bundle in (synthetic, gnutella):
            outcomes = run_trials(
                bundle, query, delta,
                engine="two-phase",
                trials=trials,
                config=_config(cap=2 * bundle.num_peers),
                seed=seed,
            )
            row.append(mean_error(outcomes))
        rows.append(row)
    return FigureResult(
        figure_id=2,
        title="Required accuracy vs error % (COUNT)",
        parameters={
            "CL": 0.25, "Z": 0.2, "j": 10, "selectivity": 0.30,
            "scale": scale, "trials": trials,
        },
        columns=["delta_req", "error_synthetic", "error_gnutella"],
        rows=rows,
        expectation="measured error <= delta_req for every point",
    )


# ---------------------------------------------------------------------------
# Figure 3 — selectivity vs error %, COUNT
# ---------------------------------------------------------------------------

def figure03_selectivity(
    scale: Optional[float] = None,
    trials: Optional[int] = None,
    seed: int = 300,
) -> FigureResult:
    """Figure 3: error across query selectivities at Δreq = 0.1."""
    scale = default_scale() if scale is None else scale
    trials = default_trials() if trials is None else trials
    synthetic = synthetic_bundle(scale=scale, cluster_level=0.25, skew=0.2)
    gnutella = gnutella_bundle(scale=scale, cluster_level=0.25, skew=0.2)
    rows = []
    for selectivity in SELECTIVITY_SWEEP:
        query = _count_query(selectivity=selectivity, skew=0.2)
        row = [selectivity * 100]
        for bundle in (synthetic, gnutella):
            outcomes = run_trials(
                bundle, query, 0.10,
                engine="two-phase",
                trials=trials,
                config=_config(cap=2 * bundle.num_peers),
                seed=seed,
            )
            row.append(mean_error(outcomes))
        rows.append(row)
    return FigureResult(
        figure_id=3,
        title="Selectivity vs error % (COUNT)",
        parameters={
            "delta_req": 0.10, "Z": 0.2, "j": 10,
            "scale": scale, "trials": trials,
        },
        columns=["selectivity_pct", "error_synthetic", "error_gnutella"],
        rows=rows,
        expectation="error <= 0.10 at every selectivity",
    )


# ---------------------------------------------------------------------------
# Figures 4/5 — Δreq × initial sample size × final sample size
# ---------------------------------------------------------------------------

def _sample_size_surface(
    bundle: NetworkBundle,
    trials: int,
    seed: int,
) -> List[List[float]]:
    query = _count_query(selectivity=0.30, skew=0.2)
    rows = []
    for initial in (1000, 2000, 3000):
        for delta in DELTA_SWEEP_FINE:
            config = TwoPhaseConfig.from_initial_sample_size(
                initial,
                tuples_per_peer=25,
                jump=10,
                max_phase_two_peers=2 * bundle.num_peers,
            )
            outcomes = run_trials(
                bundle, query, delta,
                engine="two-phase",
                trials=trials,
                config=config,
                seed=seed,
            )
            rows.append(
                [initial, delta,
                 mean_sample_size(outcomes), mean_error(outcomes)]
            )
    return rows


def figure04_sample_size_synthetic(
    scale: Optional[float] = None,
    trials: Optional[int] = None,
    seed: int = 400,
) -> FigureResult:
    """Figure 4: required accuracy × initial sample size × final
    sample size (synthetic topology, 50 tuples per peer)."""
    scale = default_scale() if scale is None else scale
    trials = default_trials() if trials is None else trials
    bundle = synthetic_bundle(
        scale=scale, cluster_level=0.25, skew=0.2, tuples_per_peer=50
    )
    return FigureResult(
        figure_id=4,
        title="Δreq × initial sample × final sample size (synthetic)",
        parameters={
            "tuples_per_peer": 50, "t": 25, "j": 10,
            "scale": scale, "trials": trials,
        },
        columns=["initial_sample", "delta_req", "sample_size", "error"],
        rows=_sample_size_surface(bundle, trials, seed),
        expectation=(
            "sample size grows ~1/delta^2; nearly flat in initial size"
        ),
    )


def figure05_sample_size_gnutella(
    scale: Optional[float] = None,
    trials: Optional[int] = None,
    seed: int = 500,
) -> FigureResult:
    """Figure 5: the Figure-4 surface on the Gnutella topology."""
    scale = default_scale() if scale is None else scale
    trials = default_trials() if trials is None else trials
    bundle = gnutella_bundle(
        scale=scale, cluster_level=0.25, skew=0.2, tuples_per_peer=50
    )
    return FigureResult(
        figure_id=5,
        title="Δreq × initial sample × final sample size (Gnutella)",
        parameters={
            "tuples_per_peer": 50, "t": 25, "j": 10,
            "scale": scale, "trials": trials,
        },
        columns=["initial_sample", "delta_req", "sample_size", "error"],
        rows=_sample_size_surface(bundle, trials, seed),
        expectation=(
            "sample size grows ~1/delta^2; nearly flat in initial size"
        ),
    )


# ---------------------------------------------------------------------------
# Figure 6 — samples per peer (t) vs error %
# ---------------------------------------------------------------------------

def figure06_samples_per_peer(
    scale: Optional[float] = None,
    trials: Optional[int] = None,
    seed: int = 600,
) -> FigureResult:
    """Figure 6: raising ``t`` barely improves accuracy — intra-peer
    correlation caps the value of extra local tuples."""
    scale = default_scale() if scale is None else scale
    trials = default_trials() if trials is None else trials
    # Local databases must exceed the largest t so sub-sampling always
    # takes place (as in the paper's experiments).
    bundle = synthetic_bundle(
        scale=scale, cluster_level=0.25, skew=0.2, tuples_per_peer=300
    )
    query = _count_query(selectivity=0.30, skew=0.2)
    rows = []
    for tuples in (50, 100, 150, 200, 250):
        outcomes = run_trials(
            bundle, query, 0.10,
            engine="two-phase",
            trials=trials,
            config=_config(
                tuples_per_peer=tuples, cap=2 * bundle.num_peers
            ),
            seed=seed,
        )
        rows.append([tuples, mean_error(outcomes), mean_sample_size(outcomes)])
    return FigureResult(
        figure_id=6,
        title="Samples per peer vs error % (COUNT, synthetic)",
        parameters={
            "delta_req": 0.10, "Z": 0.2, "j": 10,
            "scale": scale, "trials": trials,
        },
        columns=["samples_per_peer", "error", "sample_size"],
        rows=rows,
        expectation="error roughly flat in t (all points within Δreq)",
    )


# ---------------------------------------------------------------------------
# Figure 7 — random walk vs BFS vs DFS
# ---------------------------------------------------------------------------

def figure07_baselines(
    scale: Optional[float] = None,
    trials: Optional[int] = None,
    seed: int = 700,
) -> FigureResult:
    """Figure 7: only the jump random walk meets the requirement on a
    clustered two-sub-graph topology; BFS and DFS overshoot."""
    scale = default_scale() if scale is None else scale
    trials = default_trials() if trials is None else trials
    cut = max(2, round(1000 * scale))
    bundle = synthetic_bundle(
        scale=scale,
        cluster_level=0.25,
        skew=0.2,
        num_subgraphs=2,
        cut_edges=cut,
    )
    query = _count_query(selectivity=0.30, skew=0.2)
    rows = []
    for delta in DELTA_SWEEP_FINE:
        row = [delta]
        for engine in ("two-phase", "bfs", "dfs"):
            outcomes = run_trials(
                bundle, query, delta,
                engine=engine,
                trials=trials,
                config=_config(cap=2 * bundle.num_peers),
                seed=seed,
            )
            row.append(mean_error(outcomes))
        rows.append(row)
    return FigureResult(
        figure_id=7,
        title="Random walk vs BFS vs DFS (COUNT, clustered topology)",
        parameters={
            "CL": 0.25, "Z": 0.2, "j": 10, "subgraphs": 2,
            "cut_edges": cut, "scale": scale, "trials": trials,
        },
        columns=["delta_req", "error_random_walk", "error_bfs", "error_dfs"],
        rows=rows,
        expectation="random walk error << BFS and DFS errors",
    )


# ---------------------------------------------------------------------------
# Shared sweeps (clustering / skew), feeding figure pairs
# ---------------------------------------------------------------------------

_SWEEP_CACHE: Dict[Tuple, List[List[float]]] = {}


def _clustering_sweep(
    agg: str,
    scale: float,
    trials: int,
    seed: int,
) -> List[List[float]]:
    """Rows: [CL, err_synth, size_synth, err_gnut, size_gnut]."""
    key = ("clustering", agg, scale, trials, seed)
    if key in _SWEEP_CACHE:
        return _SWEEP_CACHE[key]
    if agg == "count":
        query = _count_query(selectivity=0.30, skew=0.2)
        engine = "two-phase"
    elif agg == "sum":
        query = _sum_query()
        engine = "two-phase"
    else:
        query = _median_query()
        engine = "median"
    rows = []
    for cluster_level in CLUSTER_SWEEP:
        row = [cluster_level]
        for builder in (synthetic_bundle, gnutella_bundle):
            bundle = builder(
                scale=scale, cluster_level=cluster_level, skew=0.2
            )
            if engine == "median":
                config: PhaseConfig = PhaseConfig(
                    max_phase_two_peers=2 * bundle.num_peers
                )
            else:
                config = _config(cap=2 * bundle.num_peers)
            outcomes = run_trials(
                bundle, query, 0.10,
                engine=engine,
                trials=trials,
                config=config,
                seed=seed,
            )
            row.extend([mean_error(outcomes), mean_sample_size(outcomes)])
        rows.append(row)
    _SWEEP_CACHE[key] = rows
    return rows


def _skew_sweep(scale: float, trials: int, seed: int) -> List[List[float]]:
    """Rows: [Z, err_synth, size_synth, err_gnut, size_gnut]."""
    key = ("skew", scale, trials, seed)
    if key in _SWEEP_CACHE:
        return _SWEEP_CACHE[key]
    # The range is held fixed across skews (the paper's standard
    # [1, 30] query): as skew rises, mass concentrates in the low
    # values, the selection's frequent values dominate, and the count
    # becomes easier to estimate — which is the effect Figures 10/11
    # report.
    query = _count_query(selectivity=0.30, skew=0.0)
    rows = []
    for skew in SKEW_SWEEP:
        row = [skew]
        for builder in (synthetic_bundle, gnutella_bundle):
            bundle = builder(scale=scale, cluster_level=0.25, skew=skew)
            outcomes = run_trials(
                bundle, query, 0.10,
                engine="two-phase",
                trials=trials,
                config=_config(cap=2 * bundle.num_peers),
                seed=seed,
            )
            row.extend([mean_error(outcomes), mean_sample_size(outcomes)])
        rows.append(row)
    _SWEEP_CACHE[key] = rows
    return rows


def _pair_figure(
    figure_id: int,
    title: str,
    sweep_rows: List[List[float]],
    x_name: str,
    metric: str,
    parameters: Dict[str, object],
    expectation: str,
) -> FigureResult:
    """Project a shared sweep onto one figure (error or sample size)."""
    if metric == "error":
        columns = [x_name, "error_synthetic", "error_gnutella"]
        rows = [[r[0], r[1], r[3]] for r in sweep_rows]
    else:
        columns = [x_name, "sample_size_synthetic", "sample_size_gnutella"]
        rows = [[r[0], r[2], r[4]] for r in sweep_rows]
    return FigureResult(
        figure_id=figure_id,
        title=title,
        parameters=parameters,
        columns=columns,
        rows=rows,
        expectation=expectation,
    )


def figure08_clustering_error(
    scale: Optional[float] = None,
    trials: Optional[int] = None,
    seed: int = 800,
) -> FigureResult:
    """Figure 8: clustering (CL) vs error %, COUNT."""
    scale = default_scale() if scale is None else scale
    trials = default_trials() if trials is None else trials
    rows = _clustering_sweep("count", scale, trials, seed)
    return _pair_figure(
        8, "Clustering vs error % (COUNT)", rows, "cluster_level", "error",
        {"delta_req": 0.10, "Z": 0.2, "j": 10, "selectivity": 0.30,
         "scale": scale, "trials": trials},
        "error within Δreq at every CL",
    )


def figure09_clustering_sample_size(
    scale: Optional[float] = None,
    trials: Optional[int] = None,
    seed: int = 800,
) -> FigureResult:
    """Figure 9: clustering (CL) vs sample size, COUNT — more
    clustered data (CL→0) needs more samples."""
    scale = default_scale() if scale is None else scale
    trials = default_trials() if trials is None else trials
    rows = _clustering_sweep("count", scale, trials, seed)
    return _pair_figure(
        9, "Clustering vs sample size (COUNT)", rows, "cluster_level",
        "sample_size",
        {"delta_req": 0.10, "Z": 0.2, "j": 10, "selectivity": 0.30,
         "scale": scale, "trials": trials},
        "sample size decreases as CL rises (less clustered)",
    )


def figure10_skew_error(
    scale: Optional[float] = None,
    trials: Optional[int] = None,
    seed: int = 1000,
) -> FigureResult:
    """Figure 10: skew (Z) vs error %, COUNT."""
    scale = default_scale() if scale is None else scale
    trials = default_trials() if trials is None else trials
    rows = _skew_sweep(scale, trials, seed)
    return _pair_figure(
        10, "Skew vs error % (COUNT)", rows, "skew", "error",
        {"delta_req": 0.10, "CL": 0.25, "j": 10,
         "scale": scale, "trials": trials},
        "error within Δreq at every skew",
    )


def figure11_skew_sample_size(
    scale: Optional[float] = None,
    trials: Optional[int] = None,
    seed: int = 1000,
) -> FigureResult:
    """Figure 11: skew (Z) vs sample size, COUNT — higher skew needs
    fewer samples (frequent values are easy to estimate)."""
    scale = default_scale() if scale is None else scale
    trials = default_trials() if trials is None else trials
    rows = _skew_sweep(scale, trials, seed)
    return _pair_figure(
        11, "Skew vs sample size (COUNT)", rows, "skew", "sample_size",
        {"delta_req": 0.10, "CL": 0.25, "j": 10,
         "scale": scale, "trials": trials},
        "sample size decreases as skew rises",
    )


# ---------------------------------------------------------------------------
# Figure 12 — cut size × jump size vs error %, SUM
# ---------------------------------------------------------------------------

def figure12_cut_vs_jump(
    scale: Optional[float] = None,
    trials: Optional[int] = None,
    seed: int = 1200,
    jumps: Optional[Sequence[int]] = None,
    cuts: Optional[Sequence[int]] = None,
) -> FigureResult:
    """Figure 12: error falls as either the cut size or the jump size
    grows; they trade off inversely (SUM, two sub-graphs)."""
    scale = default_scale() if scale is None else scale
    trials = default_trials() if trials is None else trials
    if jumps is None:
        jumps = (1, 10, 100, 1000) if scale < 0.5 else (1, 10, 100, 1000, 10000)
    if cuts is None:
        cuts = tuple(
            max(2, round(c * scale)) for c in (10, 1000, 10000)
        )
    query = _sum_query()
    rows = []
    for cut in cuts:
        bundle = synthetic_bundle(
            scale=scale,
            cluster_level=0.0,  # fully clustered: the hard case
            skew=0.2,
            num_subgraphs=2,
            cut_edges=cut,
        )
        for jump in jumps:
            outcomes = run_trials(
                bundle, query, 0.10,
                engine="two-phase",
                trials=trials,
                config=_config(jump=jump, cap=bundle.num_peers),
                seed=seed,
            )
            rows.append([cut, jump, mean_error(outcomes)])
    return FigureResult(
        figure_id=12,
        title="Cut size × jump size vs error % (SUM, 2 sub-graphs)",
        parameters={
            "delta_req": 0.10, "Z": 0.2, "CL": 0.0, "subgraphs": 2,
            "scale": scale, "trials": trials,
        },
        columns=["cut_size", "jump_size", "error"],
        rows=rows,
        expectation=(
            "error decreases along both the cut and the jump axes"
        ),
    )


# ---------------------------------------------------------------------------
# Figures 13/14 — SUM clustering sweep
# ---------------------------------------------------------------------------

def figure13_sum_clustering_error(
    scale: Optional[float] = None,
    trials: Optional[int] = None,
    seed: int = 1300,
) -> FigureResult:
    """Figure 13: clustering vs error %, SUM (selectivity = 1)."""
    scale = default_scale() if scale is None else scale
    trials = default_trials() if trials is None else trials
    rows = _clustering_sweep("sum", scale, trials, seed)
    return _pair_figure(
        13, "Clustering vs error % (SUM)", rows, "cluster_level", "error",
        {"delta_req": 0.10, "Z": 0.2, "j": 10, "selectivity": 1.0,
         "scale": scale, "trials": trials},
        "error within Δreq at every CL",
    )


def figure14_sum_clustering_sample_size(
    scale: Optional[float] = None,
    trials: Optional[int] = None,
    seed: int = 1300,
) -> FigureResult:
    """Figure 14: clustering vs sample size, SUM."""
    scale = default_scale() if scale is None else scale
    trials = default_trials() if trials is None else trials
    rows = _clustering_sweep("sum", scale, trials, seed)
    return _pair_figure(
        14, "Clustering vs sample size (SUM)", rows, "cluster_level",
        "sample_size",
        {"delta_req": 0.10, "Z": 0.2, "j": 10, "selectivity": 1.0,
         "scale": scale, "trials": trials},
        "sample size decreases as CL rises",
    )


# ---------------------------------------------------------------------------
# Figures 15/16 — MEDIAN clustering sweep
# ---------------------------------------------------------------------------

def figure15_median_clustering_error(
    scale: Optional[float] = None,
    trials: Optional[int] = None,
    seed: int = 1500,
) -> FigureResult:
    """Figure 15: clustering vs rank error %, MEDIAN."""
    scale = default_scale() if scale is None else scale
    trials = default_trials() if trials is None else trials
    rows = _clustering_sweep("median", scale, trials, seed)
    return _pair_figure(
        15, "Clustering vs error % (MEDIAN)", rows, "cluster_level", "error",
        {"delta_req": 0.10, "Z": 0.2, "j": 10,
         "scale": scale, "trials": trials},
        "rank error around or below Δreq at every CL",
    )


def figure16_median_clustering_sample_size(
    scale: Optional[float] = None,
    trials: Optional[int] = None,
    seed: int = 1500,
) -> FigureResult:
    """Figure 16: clustering vs sample size, MEDIAN."""
    scale = default_scale() if scale is None else scale
    trials = default_trials() if trials is None else trials
    rows = _clustering_sweep("median", scale, trials, seed)
    return _pair_figure(
        16, "Clustering vs sample size (MEDIAN)", rows, "cluster_level",
        "sample_size",
        {"delta_req": 0.10, "Z": 0.2, "j": 10,
         "scale": scale, "trials": trials},
        "more clustered data needs more samples",
    )


#: Registry of every reproduced figure, keyed by paper figure number.
FIGURES: Dict[int, Callable[..., FigureResult]] = {
    2: figure02_required_accuracy,
    3: figure03_selectivity,
    4: figure04_sample_size_synthetic,
    5: figure05_sample_size_gnutella,
    6: figure06_samples_per_peer,
    7: figure07_baselines,
    8: figure08_clustering_error,
    9: figure09_clustering_sample_size,
    10: figure10_skew_error,
    11: figure11_skew_sample_size,
    12: figure12_cut_vs_jump,
    13: figure13_sum_clustering_error,
    14: figure14_sum_clustering_sample_size,
    15: figure15_median_clustering_error,
    16: figure16_median_clustering_sample_size,
}
