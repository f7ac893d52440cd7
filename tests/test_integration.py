"""End-to-end integration tests across the whole stack."""

import doctest

import numpy as np
import pytest

import repro
from repro.core.two_phase import TwoPhaseConfig
from repro.experiments.configs import synthetic_bundle
from repro.experiments.runner import run_trials
from repro.network.churn import ChurnConfig, ChurnProcess
from repro.network.spectral import recommend_jump


class TestPublicApiQuickstart:
    def test_readme_flow(self):
        """The README quickstart, verbatim in spirit."""
        topology = repro.synthetic_paper_topology(seed=7, scale=0.03)
        dataset = repro.generate_dataset(
            topology, repro.DatasetConfig(num_tuples=30_000), seed=7
        )
        network = repro.NetworkSimulator(
            topology, dataset.databases, seed=7
        )
        engine = repro.TwoPhaseEngine(network, seed=7)
        query = repro.parse_query(
            "SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30"
        )
        result = engine.execute(query, delta_req=0.1)
        truth = repro.evaluate_exact(query, dataset.databases)
        assert abs(result.estimate - truth) / dataset.num_tuples < 0.1

    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        """``repro`` exports the quickstart and nothing else; every
        other name is imported from the module that defines it."""
        assert sorted(repro.__all__) == sorted([
            "synthetic_paper_topology",
            "generate_dataset",
            "DatasetConfig",
            "NetworkSimulator",
            "TwoPhaseEngine",
            "parse_query",
            "evaluate_exact",
        ])
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_docstring_quickstart_runs(self):
        """``repro``'s module docstring is the quickstart, as a doctest."""
        failed, attempted = doctest.testmod(repro, verbose=False)
        assert attempted > 0
        assert failed == 0


class TestAggregateAgreement:
    """All aggregates answered on one shared network agree with the
    exact evaluator within their tolerance."""

    @pytest.fixture(scope="class")
    def bundle(self):
        return synthetic_bundle(scale=0.03, seed=99)

    def test_count(self, bundle):
        query = repro.parse_query(
            "SELECT COUNT(A) FROM T WHERE A BETWEEN 10 AND 60"
        )
        outcomes = run_trials(bundle, query, 0.1, trials=5, seed=10)
        # The requirement holds with high probability, so judge the
        # average (as the paper reports) and bound individual runs.
        assert np.mean([o.error for o in outcomes]) <= 0.1
        assert all(o.error <= 0.2 for o in outcomes)

    def test_sum(self, bundle):
        query = repro.parse_query("SELECT SUM(A) FROM T")
        outcomes = run_trials(bundle, query, 0.1, trials=3, seed=11)
        assert all(o.error <= 0.1 for o in outcomes)

    def test_avg(self, bundle):
        query = repro.parse_query("SELECT AVG(A) FROM T")
        outcomes = run_trials(bundle, query, 0.1, trials=3, seed=12)
        # AVG is a ratio estimator; tolerance is on the AVG itself.
        assert all(o.error <= 0.25 for o in outcomes)

    def test_median(self, bundle):
        query = repro.parse_query("SELECT MEDIAN(A) FROM T")
        outcomes = run_trials(
            bundle, query, 0.1, engine="median", trials=3, seed=13
        )
        assert all(o.error <= 0.2 for o in outcomes)


class TestChurnRobustness:
    def test_estimates_survive_topology_drift(self):
        """Queries stay accurate on snapshots taken under churn, as
        long as each query runs against a consistent snapshot."""
        topology = repro.synthetic_paper_topology(seed=3, scale=0.03)
        process = ChurnProcess(
            topology,
            ChurnConfig(join_rate=0.5, leave_rate=0.5),
            seed=3,
        )
        process.run(60)
        snapshot = process.snapshot()
        new_topology = snapshot.topology

        dataset = repro.generate_dataset(
            new_topology, repro.DatasetConfig(num_tuples=30_000), seed=3
        )
        network = repro.NetworkSimulator(
            new_topology, dataset.databases, seed=3
        )
        query = repro.parse_query(
            "SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30"
        )
        truth = repro.evaluate_exact(query, dataset.databases)
        sink = int(new_topology.giant_component()[0])
        engine = repro.TwoPhaseEngine(network, seed=4)
        result = engine.execute(query, delta_req=0.1, sink=sink)
        assert abs(result.estimate - truth) / dataset.num_tuples <= 0.1


class TestSpectralPreprocessingEndToEnd:
    def test_recommended_jump_is_usable(self):
        """The pre-processing jump recommendation plugged into the
        engine keeps the estimate accurate."""
        topology = repro.synthetic_paper_topology(seed=5, scale=0.03)
        jump = recommend_jump(topology)
        assert jump >= 1
        dataset = repro.generate_dataset(
            topology, repro.DatasetConfig(num_tuples=30_000), seed=5
        )
        network = repro.NetworkSimulator(
            topology, dataset.databases, seed=5
        )
        config = TwoPhaseConfig(jump=jump)
        query = repro.parse_query(
            "SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30"
        )
        truth = repro.evaluate_exact(query, dataset.databases)
        errors = []
        for seed in range(5):
            engine = repro.TwoPhaseEngine(network, config=config, seed=seed)
            result = engine.execute(query, delta_req=0.1, sink=0)
            errors.append(
                abs(result.estimate - truth) / dataset.num_tuples
            )
        assert np.mean(errors) <= 0.1


class TestCostSanity:
    def test_sampling_is_cheaper_than_crawling(self):
        """The premise of the paper: the approximate answer touches a
        small fraction of the network compared to the exact crawl."""
        bundle = synthetic_bundle(scale=0.05, seed=42)
        query = repro.parse_query(
            "SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30"
        )
        outcomes = run_trials(bundle, query, 0.1, trials=3, seed=20)
        mean_tuples = np.mean([o.tuples_sampled for o in outcomes])
        assert mean_tuples < 0.35 * bundle.num_tuples

    def test_latency_grows_with_tighter_accuracy(self):
        bundle = synthetic_bundle(scale=0.03, seed=43)
        query = repro.parse_query(
            "SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30"
        )
        loose = run_trials(bundle, query, 0.25, trials=3, seed=21)
        tight = run_trials(bundle, query, 0.03, trials=3, seed=21)
        assert np.mean([o.latency_ms for o in tight]) > np.mean(
            [o.latency_ms for o in loose]
        )
