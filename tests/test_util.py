"""Unit tests for repro._util."""

import numpy as np
import pytest

from repro._util import (
    check_fraction,
    check_in,
    check_nonnegative,
    check_positive,
    ensure_rng,
    relative_error,
    weighted_median,
)
from repro.errors import ConfigurationError


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            ensure_rng(1).random(5), ensure_rng(2).random(5)
        )

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen


class TestChecks:
    def test_check_positive_accepts(self):
        check_positive("x", 1)
        check_positive("x", 0.001)

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ConfigurationError, match="x"):
            check_positive("x", 0)

    def test_check_positive_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            check_positive("x", -5)

    def test_check_nonnegative_accepts_zero(self):
        check_nonnegative("x", 0)

    def test_check_nonnegative_rejects(self):
        with pytest.raises(ConfigurationError):
            check_nonnegative("x", -0.1)

    def test_check_fraction_bounds(self):
        check_fraction("f", 0.0)
        check_fraction("f", 1.0)
        check_fraction("f", 0.5)

    def test_check_fraction_rejects(self):
        with pytest.raises(ConfigurationError):
            check_fraction("f", 1.5)
        with pytest.raises(ConfigurationError):
            check_fraction("f", -0.01)

    def test_check_in(self):
        check_in("mode", "a", ("a", "b"))
        with pytest.raises(ConfigurationError):
            check_in("mode", "c", ("a", "b"))


class TestWeightedMedian:
    def test_uniform_weights_match_median(self):
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        weights = np.ones(5)
        assert weighted_median(values, weights) == 3.0

    def test_heavy_weight_dominates(self):
        values = np.array([1.0, 10.0])
        weights = np.array([100.0, 1.0])
        assert weighted_median(values, weights) == 1.0

    def test_unsorted_input(self):
        values = np.array([5.0, 1.0, 3.0])
        weights = np.array([1.0, 1.0, 1.0])
        assert weighted_median(values, weights) == 3.0

    def test_quantile_fraction(self):
        values = np.arange(1, 11, dtype=float)
        weights = np.ones(10)
        assert weighted_median(values, weights, fraction=0.1) == 1.0
        assert weighted_median(values, weights, fraction=0.9) == 9.0

    def test_single_value(self):
        assert weighted_median(np.array([7.0]), np.array([2.0])) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ConfigurationError):
            weighted_median(np.array([]), np.array([]))

    def test_negative_weight_raises(self):
        with pytest.raises(ConfigurationError):
            weighted_median(np.array([1.0]), np.array([-1.0]))

    def test_zero_total_weight_raises(self):
        with pytest.raises(ConfigurationError):
            weighted_median(np.array([1.0, 2.0]), np.array([0.0, 0.0]))

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ConfigurationError):
            weighted_median(np.array([1.0, 2.0]), np.array([1.0]))

    def test_bad_fraction_raises(self):
        with pytest.raises(ConfigurationError):
            weighted_median(np.array([1.0]), np.array([1.0]), fraction=0.0)
        with pytest.raises(ConfigurationError):
            weighted_median(np.array([1.0]), np.array([1.0]), fraction=1.0)

    def test_result_is_an_input_value(self):
        values = np.array([2.0, 9.0, 4.0, 7.0])
        weights = np.array([1.0, 3.0, 2.0, 1.0])
        assert weighted_median(values, weights) in values


class TestRelativeError:
    def test_basic(self):
        assert relative_error(110, 100) == pytest.approx(0.1)

    def test_explicit_scale(self):
        assert relative_error(110, 100, scale=1000) == pytest.approx(0.01)

    def test_zero_truth_zero_error(self):
        assert relative_error(0, 0) == 0.0

    def test_zero_truth_nonzero_error(self):
        assert relative_error(1, 0) == float("inf")
