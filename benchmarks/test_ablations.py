"""Ablation benchmarks for the design choices behind the engine.

Each ablation flips one knob and reports the effect on accuracy/cost,
printing a small table alongside the timing:

* estimator: plain Equation 1 (HT) vs self-normalized (Hájek);
* local sub-sampling: uniform rows vs block-level;
* phase pooling: pooled estimate vs the paper's phase-II-only;
* walk variant: simple vs Metropolis-uniform, the cell that keeps
  exactly these two walk laws;
* hybrid plan cache: cold vs warm execution cost;
* biased sampling: probe-weighted walk vs plain walk on a selective
  query.
"""


import numpy as np

from repro.core.biased import BiasedConfig, biased_engine_for_query
from repro.core.two_phase import PlanCache, TwoPhaseConfig, TwoPhaseEngine
from repro.experiments.configs import gnutella_bundle, synthetic_bundle
from repro.experiments.runner import run_trials
from repro.query.exact import evaluate_exact
from repro.query.parser import parse_query

COUNT_30 = parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30")
SELECTIVE = parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 3")

SCALE = 0.08
TRIALS = 3


def _mean(values):
    return float(np.mean(values))


def test_ablation_estimator_ht_vs_hajek(benchmark):
    """Hájek needs fewer samples on skewed-degree topologies because
    it cancels the common 1/prob factor."""

    def run():
        bundle = gnutella_bundle(scale=SCALE, cluster_level=0.25, skew=2.0)
        rows = {}
        for estimator in ("ht", "hajek"):
            config = TwoPhaseConfig(
                estimator=estimator,
                max_phase_two_peers=2 * bundle.num_peers,
            )
            outcomes = run_trials(
                bundle, COUNT_30, 0.1,
                trials=TRIALS, config=config, seed=50,
            )
            rows[estimator] = (
                _mean([o.error for o in outcomes]),
                _mean([o.tuples_sampled for o in outcomes]),
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nestimator  mean_error  mean_sample_size")
    for name, (error, size) in rows.items():
        print(f"{name:<9} {error:10.4f}  {size:16.0f}")
    assert rows["hajek"][1] <= rows["ht"][1]
    assert rows["hajek"][0] <= 0.1


def test_ablation_uniform_vs_block_sampling(benchmark):
    """Block-level sampling inflates within-peer correlation on
    clustered data; cross-validation absorbs it by visiting more
    peers, so cost rises while accuracy holds."""

    def run():
        bundle = synthetic_bundle(scale=SCALE, cluster_level=0.0, skew=0.2)
        rows = {}
        for method in ("uniform", "block"):
            config = TwoPhaseConfig(
                sampling_method=method,
                max_phase_two_peers=2 * bundle.num_peers,
            )
            outcomes = run_trials(
                bundle, COUNT_30, 0.1,
                trials=TRIALS, config=config, seed=51,
            )
            rows[method] = (
                _mean([o.error for o in outcomes]),
                _mean([o.peers_visited for o in outcomes]),
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nmethod    mean_error  mean_peers")
    for name, (error, peers) in rows.items():
        print(f"{name:<8} {error:10.4f}  {peers:10.1f}")
    # Both meet the requirement on average.
    assert rows["uniform"][0] <= 0.12
    assert rows["block"][0] <= 0.15


def test_ablation_phase_pooling(benchmark):
    """Pooling phase I+II cannot hurt: same cost, more observations."""

    def run():
        bundle = synthetic_bundle(scale=SCALE, cluster_level=0.25, skew=0.2)
        rows = {}
        for pooled in (True, False):
            config = TwoPhaseConfig(
                pool_phases=pooled,
                max_phase_two_peers=2 * bundle.num_peers,
            )
            outcomes = run_trials(
                bundle, COUNT_30, 0.05,
                trials=TRIALS + 2, config=config, seed=52,
            )
            rows["pooled" if pooled else "phase2-only"] = _mean(
                [o.error for o in outcomes]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nvariant       mean_error")
    for name, error in rows.items():
        print(f"{name:<12} {error:10.4f}")
    assert rows["pooled"] <= rows["phase2-only"] * 1.5


#: The walk cell's arms, ``(variant, jump)``, and its cold queries per
#: arm on each paper-size fixture.
WALK_ARMS = (("simple", 10), ("metropolis-uniform", 10),
             ("metropolis-uniform", 20))
WALK_SEEDS = 1000


def test_ablation_walk_variants(benchmark):
    """The decision behind the two walk laws: on both paper-size
    fixtures every Metropolis-uniform arm visits fewer peers than the
    simple walk at a within-Δreq no lower, so the uniform law stays
    beside the paper's (the served walk is still ``simple``)."""

    def run():
        cells = {}
        for fixture, build in (
            ("gnutella", gnutella_bundle), ("synthetic", synthetic_bundle),
        ):
            bundle = build(scale=1.0, cluster_level=0.25)
            for variant, jump in WALK_ARMS:
                config = TwoPhaseConfig(
                    walk_variant=variant,
                    jump=jump,
                    max_phase_two_peers=2 * bundle.num_peers,
                )
                outcomes = run_trials(
                    bundle, COUNT_30, 0.1,
                    trials=WALK_SEEDS, config=config, seed=53,
                )
                cells[fixture, variant, jump] = (
                    _mean([o.peers_visited for o in outcomes]),
                    _mean([o.hops for o in outcomes]),
                    _mean([o.error <= 0.1 for o in outcomes]),
                )
        return cells

    cells = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nfixture    variant             jump  visits     hops  within")
    for (fixture, variant, jump), (visits, hops, within) in cells.items():
        print(f"{fixture:<10} {variant:<19} {jump:4d} {visits:7.1f} "
              f"{hops:8.1f}  {within:6.3f}")
    for fixture in ("gnutella", "synthetic"):
        visits, _, within = cells[fixture, "simple", 10]
        for variant, jump in WALK_ARMS[1:]:
            arm = cells[fixture, variant, jump]
            assert arm[0] <= visits and arm[2] >= within, (fixture, jump)


def test_ablation_hybrid_plan_cache(benchmark):
    """Warm executions skip phase I: same accuracy, lower cost."""

    def run():
        bundle = synthetic_bundle(scale=SCALE, cluster_level=0.25, skew=0.2)
        truth = evaluate_exact(COUNT_30, bundle.dataset.databases)
        engine = TwoPhaseEngine(
            bundle.simulator,
            TwoPhaseConfig(max_phase_two_peers=2 * bundle.num_peers),
            seed=54,
            cache=PlanCache(),
        )
        cold = engine.execute(COUNT_30, 0.1, sink=0)
        warm_peers = []
        warm_errors = []
        for _ in range(5):
            result = engine.execute(COUNT_30, 0.1, sink=0)
            warm_peers.append(result.total_peers_visited)
            warm_errors.append(
                abs(result.estimate - truth) / bundle.num_tuples
            )
        return {
            "cold_peers": cold.total_peers_visited,
            "warm_peers": _mean(warm_peers),
            "warm_error": _mean(warm_errors),
        }

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\ncold peers {stats['cold_peers']}  "
        f"warm peers {stats['warm_peers']:.1f}  "
        f"warm error {stats['warm_error']:.4f}"
    )
    assert stats["warm_peers"] <= stats["cold_peers"]
    assert stats["warm_error"] <= 0.12


def test_ablation_biased_vs_plain(benchmark):
    """Probe-weighted importance sampling shrinks the error of a
    selective COUNT at equal peer budget."""

    def run():
        bundle = synthetic_bundle(scale=SCALE, cluster_level=0.25, skew=0.2)
        truth = evaluate_exact(SELECTIVE, bundle.dataset.databases)
        biased_errors = []
        plain_errors = []
        for seed in range(8):
            biased = biased_engine_for_query(
                bundle.simulator, SELECTIVE,
                config=BiasedConfig(peers_to_visit=60),
                seed=seed,
            ).execute(SELECTIVE, sink=0)
            biased_errors.append(abs(biased.estimate - truth))
            plain_engine = TwoPhaseEngine(
                bundle.simulator,
                config=TwoPhaseConfig(
                    phase_one_peers=60, max_phase_two_peers=0
                ),
                seed=seed,
            )
            plain = plain_engine.execute(SELECTIVE, 0.99, sink=0)
            plain_errors.append(abs(plain.estimate - truth))
        return {
            "biased": _mean(biased_errors),
            "plain": _mean(plain_errors),
        }

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nmean |error|: biased {stats['biased']:.1f} "
        f"vs plain {stats['plain']:.1f}"
    )
    assert stats["biased"] < stats["plain"]


def test_ablation_batch_vs_sequential(benchmark):
    """Multi-query batching: a dashboard of aggregates costs about as
    much as its hardest member, not the sum."""
    from repro.core.batch import BatchEngine

    queries = [
        parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30"),
        parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 31 AND 60"),
        parse_query("SELECT SUM(A) FROM T"),
        parse_query("SELECT AVG(A) FROM T WHERE A > 50"),
    ]

    def run():
        bundle = synthetic_bundle(scale=SCALE, cluster_level=0.25, skew=0.2)
        config = TwoPhaseConfig(max_phase_two_peers=2 * bundle.num_peers)
        batch = BatchEngine(bundle.simulator, config, seed=56)
        batch_cost = batch.execute(queries, 0.1, sink=0)[0].cost
        sequential_visits = 0
        sequential_latency = 0.0
        for query in queries:
            engine = TwoPhaseEngine(bundle.simulator, config, seed=56)
            result = engine.execute(query, 0.1, sink=0)
            sequential_visits += result.cost.peers_visited
            sequential_latency += result.cost.latency_ms
        return {
            "batch_visits": batch_cost.peers_visited,
            "batch_latency": batch_cost.latency_ms,
            "seq_visits": sequential_visits,
            "seq_latency": sequential_latency,
        }

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nvisits: batch {stats['batch_visits']} vs sequential "
        f"{stats['seq_visits']}; latency: {stats['batch_latency']:.0f} "
        f"vs {stats['seq_latency']:.0f} ms"
    )
    assert stats["batch_visits"] < stats["seq_visits"]
    assert stats["batch_latency"] < stats["seq_latency"]


def test_ablation_reply_loss_robustness(benchmark):
    """Accuracy degrades gracefully as replies are lost: the sample
    shrinks but stays unbiased, so the error grows slowly until losses
    starve the cross-validation."""
    from repro.network.faults import FaultPlan
    from repro.network.simulator import NetworkSimulator

    def run():
        bundle = synthetic_bundle(scale=SCALE, cluster_level=0.25, skew=0.2)
        rows = {}
        for loss in (0.0, 0.1, 0.3):
            network = NetworkSimulator(
                bundle.topology,
                bundle.dataset.databases,
                seed=57,
                fault_plan=(
                    FaultPlan(seed=57, reply_loss=loss) if loss else None
                ),
            )
            truth = evaluate_exact(COUNT_30, bundle.dataset.databases)
            errors = []
            for seed in range(4):
                engine = TwoPhaseEngine(
                    network,
                    TwoPhaseConfig(
                        phase_one_peers=60,
                        max_phase_two_peers=2 * bundle.num_peers,
                    ),
                    seed=seed,
                )
                result = engine.execute(COUNT_30, 0.1, sink=0)
                errors.append(
                    abs(result.estimate - truth) / bundle.num_tuples
                )
            rows[loss] = _mean(errors)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nreply loss  mean_error")
    for loss, error in rows.items():
        print(f"{loss:9.1f}  {error:10.4f}")
    # Even at 30% loss the requirement holds on average.
    assert rows[0.3] <= 0.12
