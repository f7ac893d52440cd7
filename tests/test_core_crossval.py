"""Tests for repro.core.crossval, including Theorem 3."""

import numpy as np
import pytest

from repro.core.crossval import CrossValidation, cross_validate
from repro.core.estimators import theoretical_variance
from repro.errors import SamplingError
from repro.network.protocol import AggregateSample


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
