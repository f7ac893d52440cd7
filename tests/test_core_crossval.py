"""Tests for repro.core.crossval, including Theorem 3."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import estimators
from repro.core.crossval import CrossValidation, cross_validate
from repro.core.estimators import make_estimator, theoretical_variance
from repro.core.planner import analyze_phase_one
from repro.core.two_phase import (
    PlanCache,
    TwoPhaseConfig,
    TwoPhaseEngine,
    drain_steps,
)
from repro.errors import SamplingError
from repro.network.protocol import AggregateSample
from repro.query.parser import parse_query

from . import row_reference


def make_observations(values, probabilities):
    return AggregateSample.from_columns(
        0, len(values), source=range(len(values)), aggregate_value=values
    ).with_probability(probabilities)


class TestCrossValidate:
    def test_basic_shape(self):
        observations = make_observations(
            [1.0, 2.0, 3.0, 4.0], [0.25] * 4
        )
        cv = cross_validate(observations, rounds=3, seed=1)
        assert cv.rounds == 3
        assert cv.half_size == 2
        assert len(cv.errors) == 3

    def test_rms_error(self):
        observations = make_observations(
            [1.0, 2.0, 3.0, 4.0], [0.25] * 4
        )
        cv = cross_validate(observations, rounds=5, seed=1)
        assert cv.rms_error == pytest.approx(
            np.sqrt(cv.mean_squared_error)
        )

    def test_zero_error_for_identical_ratios(self):
        # values proportional to probabilities: every ratio identical
        observations = make_observations(
            [1.0, 1.0, 1.0, 1.0], [0.25] * 4
        )
        cv = cross_validate(observations, rounds=4, seed=1)
        assert cv.mean_squared_error == 0.0

    def test_odd_sample_size_drops_one(self):
        observations = make_observations(
            [1.0, 2.0, 3.0, 4.0, 5.0], [0.2] * 5
        )
        cv = cross_validate(observations, rounds=2, seed=1)
        assert cv.half_size == 2

    def test_too_few_observations(self):
        observations = make_observations([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(SamplingError):
            cross_validate(observations)

    def test_zero_rounds_rejected(self):
        observations = make_observations([1.0] * 4, [0.25] * 4)
        with pytest.raises(SamplingError):
            cross_validate(observations, rounds=0)

    def test_deterministic_per_seed(self):
        observations = make_observations(
            list(range(1, 11)), [0.1] * 10
        )
        a = cross_validate(observations, rounds=3, seed=7)
        b = cross_validate(observations, rounds=3, seed=7)
        assert a.errors == b.errors


class TestTheorem3:
    def test_cv_squared_error_is_twice_true_squared_error(self):
        """E[CVError^2] = 2 E[(y''_{m/2} - y)^2] over repeated draws."""
        rng = np.random.default_rng(10)
        num_peers = 40
        degrees = rng.integers(1, 10, size=num_peers).astype(float)
        probabilities = degrees / degrees.sum()
        values = rng.integers(0, 50, size=num_peers).astype(float)
        m = 20

        # Expected squared error at size m/2, from Theorem 2.
        variance_half = theoretical_variance(values, probabilities, m // 2)

        cv_squares = []
        for _ in range(3000):
            picks = rng.choice(num_peers, size=m, p=probabilities)
            observations = make_observations(
                values[picks], probabilities[picks]
            )
            cv = cross_validate(observations, rounds=1, seed=rng)
            cv_squares.append(cv.errors[0] ** 2)
        assert np.mean(cv_squares) == pytest.approx(
            2 * variance_half, rel=0.15
        )

    def test_implied_badness_inverts_theorem(self):
        cv = CrossValidation(
            mean_squared_error=8.0, errors=[np.sqrt(8.0)], half_size=10
        )
        # C = mean_sq * half / 2
        assert cv.implied_badness() == 40.0


# ---------------------------------------------------------------------------
# One gather == the halving loop (tests/row_reference.py), bit for bit
# ---------------------------------------------------------------------------

NUM_PEERS = 900


def skewed_sample(m, data_seed):
    """``m`` rows whose probabilities follow a heavy-tailed degree."""
    rng = np.random.default_rng(data_seed)
    degrees = np.minimum(rng.zipf(1.8, size=m), 400)
    return AggregateSample.from_columns(
        0,
        m,
        source=rng.integers(0, NUM_PEERS, size=m),
        degree=degrees,
        aggregate_value=rng.uniform(0.0, 1e5, size=m) * (rng.random(m) < 0.8),
    ).with_probability(degrees / 8000.0)


def per_sample_form(name):
    """What the loop calls on each half: the public per-sample function."""
    if name == "ht":
        return estimators.horvitz_thompson
    return lambda half: estimators.hajek_estimate(half, NUM_PEERS)


class TestOneGatherEqualsTheLoop:
    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(4, 300),
        rounds=st.integers(1, 8),
        name=st.sampled_from(["ht", "hajek"]),
        seed=st.integers(0, 2**32 - 1),
        shared_generator=st.booleans(),
        data_seed=st.integers(0, 2**16),
    )
    def test_errors_and_stream_are_bit_identical(
        self, m, rounds, name, seed, shared_generator, data_seed
    ):
        sample = skewed_sample(m, data_seed)
        point, _ = make_estimator(name, NUM_PEERS)
        if shared_generator:
            seed = np.random.default_rng(seed)
            seed.random(3)  # mid-stream, as the engines hand it over
        oracle_seed = copy.deepcopy(seed)

        cv = cross_validate(sample, rounds=rounds, seed=seed, estimator=point)
        mean_squared, errors, half = row_reference.cross_validate(
            sample, rounds, oracle_seed, per_sample_form(name)
        )

        assert cv.errors == errors
        assert all(type(error) is float for error in cv.errors)
        assert cv.mean_squared_error == mean_squared
        assert cv.half_size == half == m // 2
        if shared_generator:
            assert seed.bit_generator.state == oracle_seed.bit_generator.state

    @pytest.mark.parametrize("name", ["ht", "hajek"])
    def test_the_same_refusals(self, name):
        point, _ = make_estimator(name, NUM_PEERS)
        reference = per_sample_form(name)
        bare = AggregateSample.from_columns(
            0, 6, degree=[1, 2, 3, 4, 5, 6], aggregate_value=[5.0] * 6
        )
        for sample, rounds, message in (
            (skewed_sample(3, 1), 5, "at least 4 phase-I peers, got 3"),
            (skewed_sample(8, 1), 0, "rounds must be positive"),
            (skewed_sample(8, 1), -2, "rounds must be positive"),
            (bare, 5, "probabilities"),
        ):
            for run in (
                lambda: cross_validate(sample, rounds, 1, point),
                lambda: row_reference.cross_validate(
                    sample, rounds, 1, reference
                ),
            ):
                with pytest.raises(SamplingError, match=message):
                    run()


class TestHalvingCounts:
    """Counts, no stopwatch: a cross-validation builds no half-sample
    and never runs the per-sample estimator (5 rounds of the loop form
    ran each 10 times)."""

    @pytest.mark.parametrize("name", ["ht", "hajek"])
    def test_no_take_and_no_per_sample_estimate(self, name, monkeypatch):
        calls = {"take": 0, "point": 0}

        def counted(key, function):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return function(*args, **kwargs)

            return wrapper

        point, _ = make_estimator(name, NUM_PEERS)
        monkeypatch.setattr(
            AggregateSample, "take", counted("take", AggregateSample.take)
        )
        for owner, attribute in (
            (type(point), "__call__"),
            (estimators, "horvitz_thompson"),
            (estimators, "hajek_estimate"),
        ):
            monkeypatch.setattr(
                owner, attribute, counted("point", getattr(owner, attribute))
            )
        sample = skewed_sample(50, 2)

        cross_validate(sample, rounds=5, seed=1, estimator=point)
        assert calls == {"take": 0, "point": 0}

        # The counters do count: the loop form pays 10 of each, and
        # the estimator object's own per-sample form is wrapped.
        row_reference.cross_validate(sample, 5, 1, per_sample_form(name))
        assert calls == {"take": 10, "point": 10}
        point(sample)
        assert calls["point"] == 12


# ---------------------------------------------------------------------------
# A warm refresh keeps the cold analysis's numbers, bit for bit
# ---------------------------------------------------------------------------


class TestWarmRefreshIsTheColdAnalysis:
    """A warm plan's refresh computes only the CV², the half size and
    the scale: the numbers ``analyze_phase_one`` reports for the same
    sample, bit for bit, from the same draws (the next draw agrees)."""

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30",
            "SELECT SUM(A) FROM T",
            "SELECT AVG(A) FROM T WHERE A BETWEEN 10 AND 90",
        ],
    )
    @pytest.mark.parametrize("estimator", ["ht", "hajek"])
    @pytest.mark.parametrize("m", [24, 25])
    def test_the_same_numbers_and_stream(
        self, small_network, sql, estimator, m
    ):
        query = parse_query(sql)
        config = TwoPhaseConfig(estimator=estimator)
        engine = TwoPhaseEngine(
            small_network, config, seed=np.random.default_rng(11),
            cache=PlanCache(),
        )
        sample = drain_steps(engine.collect_observations_stepwise(
            0, query, m, small_network.new_ledger()
        ))
        assert len(sample) == m

        refreshed, kept = engine._replan(query, sample, 0.1)
        rng = np.random.default_rng(11)
        analysis = analyze_phase_one(
            query, sample, 0.1, config.tuples_per_peer,
            config.cross_validation_rounds, seed=rng, estimator=estimator,
            num_peers=small_network.num_peers,
        )

        assert kept is None
        assert (
            refreshed.mean_squared_cv_error, refreshed.half_size,
            refreshed.scale,
        ) == (
            analysis.cross_validation.mean_squared_error,
            analysis.cross_validation.half_size, analysis.scale,
        )
        assert refreshed.half_size == m // 2
        assert engine._plan_rng.random() == rng.random()
