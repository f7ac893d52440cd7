"""Unit tests for repro.experiments.runner."""

import dataclasses
import math

import pytest

from repro.core.biased import BiasedConfig
from repro.core.median import MedianConfig
from repro.core.two_phase import TwoPhaseConfig
from repro.errors import ConfigurationError
from repro.experiments.configs import synthetic_bundle
from repro.experiments.runner import (
    mean_error,
    mean_peers,
    mean_sample_size,
    run_trials,
    run_workload,
)
from repro.query.exact import evaluate_exact
from repro.query.parser import parse_query
from repro.service import CostBudget

COUNT_30 = parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30")
SUM_ALL = parse_query("SELECT SUM(A) FROM T")
MEDIAN_ALL = parse_query("SELECT MEDIAN(A) FROM T")


@pytest.fixture(scope="module")
def bundle():
    return synthetic_bundle(scale=0.02, seed=5)


class TestRunTrials:
    def test_trial_count(self, bundle):
        outcomes = run_trials(bundle, COUNT_30, 0.1, trials=3, seed=1)
        assert len(outcomes) == 3

    def test_outcomes_scored(self, bundle):
        outcomes = run_trials(bundle, COUNT_30, 0.1, trials=2, seed=1)
        for outcome in outcomes:
            assert outcome.truth > 0
            assert 0 <= outcome.error <= 1
            assert outcome.tuples_sampled > 0
            assert outcome.peers_visited >= 40
            assert outcome.latency_ms > 0

    def test_trials_vary_by_seed(self, bundle):
        outcomes = run_trials(bundle, COUNT_30, 0.1, trials=3, seed=1)
        estimates = {o.estimate for o in outcomes}
        assert len(estimates) > 1

    def test_deterministic_given_seed(self, bundle):
        a = run_trials(bundle, COUNT_30, 0.1, trials=2, seed=9)
        b = run_trials(bundle, COUNT_30, 0.1, trials=2, seed=9)
        assert [o.estimate for o in a] == [o.estimate for o in b]

    def test_bfs_engine(self, bundle):
        outcomes = run_trials(
            bundle, COUNT_30, 0.1, engine="bfs", trials=2, seed=1
        )
        assert len(outcomes) == 2

    def test_dfs_engine(self, bundle):
        outcomes = run_trials(
            bundle, COUNT_30, 0.1, engine="dfs", trials=2, seed=1
        )
        assert len(outcomes) == 2

    def test_median_engine(self, bundle):
        outcomes = run_trials(
            bundle, MEDIAN_ALL, 0.1, engine="median", trials=2, seed=1
        )
        for outcome in outcomes:
            assert 0 <= outcome.error <= 0.5

    def test_unknown_engine(self, bundle):
        with pytest.raises(ConfigurationError):
            run_trials(bundle, COUNT_30, 0.1, engine="teleport")

    def test_zero_trials_rejected(self, bundle):
        with pytest.raises(ConfigurationError):
            run_trials(bundle, COUNT_30, 0.1, trials=0)

    def test_worker_cap_warns_once_per_process(self, bundle, monkeypatch):
        # The cap/warning now lives in the shared pool module so
        # run_trials and the sharded QueryService behave identically.
        import repro._pool as pool_module

        monkeypatch.setattr(pool_module, "available_cores", lambda: 1)
        monkeypatch.setattr(pool_module, "_WORKER_CAP_WARNED", False)
        with pytest.warns(RuntimeWarning, match="capping the pool"):
            run_trials(
                bundle, COUNT_30, 0.1, trials=2, seed=1, workers=4
            )
        # Second oversubscribed call: the warning already fired.
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", RuntimeWarning)
            run_trials(
                bundle, COUNT_30, 0.1, trials=2, seed=1, workers=4
            )

    def test_workers_within_cores_stay_silent(self, bundle, monkeypatch):
        import warnings as warnings_module

        import repro._pool as pool_module

        monkeypatch.setattr(pool_module, "available_cores", lambda: 8)
        monkeypatch.setattr(pool_module, "_WORKER_CAP_WARNED", False)
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", RuntimeWarning)
            run_trials(
                bundle, COUNT_30, 0.1, trials=2, seed=1, workers=2
            )

    def test_worker_cap_counts_this_process_cpus(self, monkeypatch):
        # An affinity mask of one CPU on an 8-CPU host caps the pool at
        # one worker, and the warning names that one core.
        import repro._pool as pool_module

        monkeypatch.setattr(
            pool_module.os, "sched_getaffinity", lambda pid: {0},
            raising=False,
        )
        monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(pool_module, "_WORKER_CAP_WARNED", False)
        with pytest.warns(RuntimeWarning, match=r"only 1 CPU core\(s\)"):
            assert pool_module.effective_workers(4, cap=True) == 1

    def test_worker_cap_without_affinity_counts_host_cpus(
        self, monkeypatch
    ):
        import repro._pool as pool_module

        monkeypatch.delattr(
            pool_module.os, "sched_getaffinity", raising=False
        )
        monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 3)
        assert pool_module.available_cores() == 3

    def test_wrong_config_type(self, bundle):
        """The median engine runs any phase config — the service hands
        it a ``TwoPhaseConfig`` — and nothing else; the other engines
        read the COUNT/SUM/AVG fields too."""
        assert run_trials(
            bundle, MEDIAN_ALL, 0.1, engine="median",
            config=TwoPhaseConfig(), trials=1,
        )
        with pytest.raises(ConfigurationError, match="needs a PhaseConfig"):
            run_trials(
                bundle, MEDIAN_ALL, 0.1, engine="median",
                config=BiasedConfig(), trials=1,
            )
        with pytest.raises(ConfigurationError):
            run_trials(
                bundle, COUNT_30, 0.1, engine="two-phase",
                config=MedianConfig(), trials=1,
            )


class TestRunWorkload:
    """The served-workload scorer README and docs/service.md describe:
    every query scored in submission order against the exact answer,
    independently of how many run at once."""

    QUERIES = [COUNT_30, SUM_ALL, COUNT_30, SUM_ALL, COUNT_30]

    def test_scored_in_submission_order(self, bundle):
        outcomes = run_workload(bundle, self.QUERIES, 0.1, seed=3)
        assert [o.query_id for o in outcomes] == sorted(
            o.query_id for o in outcomes
        )
        for query, outcome in zip(self.QUERIES, outcomes):
            assert outcome.status == "done", outcome.detail
            assert outcome.sql == query.to_sql()
            assert outcome.truth == evaluate_exact(query, bundle.flat_dataset)
            assert 0 <= outcome.error <= 1
            assert outcome.peers_visited > 0 and outcome.latency_ms > 0

    def test_concurrency_does_not_change_results(self, bundle):
        def scored(max_in_flight):
            return [
                dataclasses.replace(outcome, query_id=0)
                for outcome in run_workload(
                    bundle, self.QUERIES, 0.1, seed=3,
                    max_in_flight=max_in_flight,
                )
            ]

        assert scored(1) == scored(5)

    def test_budget_stops_are_kept_unscored(self, bundle):
        outcomes = run_workload(
            bundle, self.QUERIES[:2], 0.1, budget=CostBudget(max_visits=5)
        )
        for outcome in outcomes:
            assert outcome.status == "budget-exceeded"
            assert "visits" in outcome.detail
            assert math.isnan(outcome.error) and math.isnan(outcome.estimate)

    def test_empty_workload_rejected(self, bundle):
        with pytest.raises(ConfigurationError, match="non-empty"):
            run_workload(bundle, [], 0.1)


class TestAggregates:
    def test_means(self, bundle):
        outcomes = run_trials(bundle, COUNT_30, 0.1, trials=3, seed=2)
        assert mean_error(outcomes) == pytest.approx(
            sum(o.error for o in outcomes) / 3
        )
        assert mean_sample_size(outcomes) > 0
        assert mean_peers(outcomes) >= 40
