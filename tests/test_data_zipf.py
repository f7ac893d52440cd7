"""Unit tests for repro.data.zipf."""

import tracemalloc

import numpy as np
import pytest

from repro.data.zipf import (
    SAMPLE_CHUNK,
    ZipfDistribution,
    domain_dtype,
    zipf_probabilities,
    zipf_sample,
)
from repro.errors import ConfigurationError


class TestZipfProbabilities:
    def test_sums_to_one(self):
        for skew in (0.0, 0.2, 1.0, 2.0):
            assert zipf_probabilities(100, skew).sum() == pytest.approx(1.0)

    def test_zero_skew_is_uniform(self):
        probabilities = zipf_probabilities(10, 0.0)
        np.testing.assert_allclose(probabilities, 0.1)

    def test_monotone_decreasing_in_rank(self):
        probabilities = zipf_probabilities(100, 1.0)
        assert np.all(np.diff(probabilities) <= 0)

    def test_higher_skew_more_concentrated(self):
        mild = zipf_probabilities(100, 0.5)
        strong = zipf_probabilities(100, 2.0)
        assert strong[0] > mild[0]
        assert strong[-1] < mild[-1]

    def test_exact_values_small_domain(self):
        probabilities = zipf_probabilities(3, 1.0)
        h = 1 + 0.5 + 1 / 3
        np.testing.assert_allclose(
            probabilities, [1 / h, 0.5 / h, (1 / 3) / h]
        )

    def test_invalid_domain(self):
        with pytest.raises(ConfigurationError):
            zipf_probabilities(0, 1.0)

    def test_negative_skew(self):
        with pytest.raises(ConfigurationError):
            zipf_probabilities(10, -0.5)


class TestZipfSample:
    def test_range(self):
        sample = zipf_sample(1000, num_values=50, skew=1.0, seed=1)
        assert sample.min() >= 1
        assert sample.max() <= 50

    def test_deterministic(self):
        a = zipf_sample(100, seed=5)
        b = zipf_sample(100, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_empty_sample(self):
        assert zipf_sample(0, seed=1).size == 0

    def test_frequencies_match_probabilities(self):
        sample = zipf_sample(200_000, num_values=10, skew=1.0, seed=2)
        counts = np.bincount(sample, minlength=11)[1:]
        empirical = counts / counts.sum()
        expected = zipf_probabilities(10, 1.0)
        np.testing.assert_allclose(empirical, expected, atol=0.01)

    def test_uniform_case(self):
        sample = zipf_sample(100_000, num_values=4, skew=0.0, seed=3)
        counts = np.bincount(sample, minlength=5)[1:]
        np.testing.assert_allclose(counts / counts.sum(), 0.25, atol=0.01)

    def test_dtype_integer(self):
        """The output is stored at its domain's width: one byte per
        value for the paper's 100 values."""
        assert zipf_sample(10, seed=1).dtype == np.int8
        for num_values in (2, 127, 128, 32_767, 32_768):
            sample = zipf_sample(50, num_values=num_values, skew=0.0, seed=1)
            assert sample.dtype == domain_dtype(num_values)

    @pytest.mark.parametrize("num_values", [127, 128, 32_767, 32_768])
    def test_the_top_of_the_domain_is_stored_as_itself(self, num_values):
        """At each width's edge the narrow sample equals the ``int64``
        inverse-CDF draw, top value included (it wraps to a negative
        when the width is one too narrow)."""
        n = 4 * num_values
        cdf = np.cumsum(zipf_probabilities(num_values, 0.0))
        cdf[-1] = 1.0
        expected = np.searchsorted(
            cdf, np.random.default_rng(9).random(n), side="right"
        ) + 1
        sample = zipf_sample(n, num_values=num_values, skew=0.0, seed=9)
        assert expected.max() == num_values
        np.testing.assert_array_equal(sample.astype(np.int64), expected)

    def test_chunks_draw_what_one_draw_would(self):
        """Filled chunk by chunk, the sample is the one-shot inverse-CDF
        draw of ``rng.random(n)``, and the generator ends where it
        would."""
        n = 3 * SAMPLE_CHUNK + 17
        cdf = np.cumsum(zipf_probabilities(100, 0.7))
        cdf[-1] = 1.0
        reference = np.random.default_rng(11)
        expected = np.searchsorted(cdf, reference.random(n), side="right") + 1
        rng = np.random.default_rng(11)
        np.testing.assert_array_equal(
            zipf_sample(n, num_values=100, skew=0.7, seed=rng), expected
        )
        assert rng.random() == reference.random()


class TestDomainDtype:
    @pytest.mark.parametrize(
        "max_value, dtype",
        [
            (1, np.int8),
            (100, np.int8),
            (127, np.int8),
            (128, np.int16),
            (32_767, np.int16),
            (32_768, np.int32),
            (2**31 - 1, np.int32),
            (2**31, np.int64),
            (2**63 - 1, np.int64),
        ],
    )
    def test_the_first_signed_width_whose_max_holds_the_domain(
        self, max_value, dtype
    ):
        assert domain_dtype(max_value) == np.dtype(dtype)

    @pytest.mark.parametrize("max_value", [0, -5, 2**63])
    def test_no_width_for_an_empty_or_unbounded_domain(self, max_value):
        with pytest.raises(ConfigurationError):
            domain_dtype(max_value)


class TestMemoryFloor:
    @staticmethod
    def _traced_peak(n, num_values):
        tracemalloc.start()
        try:
            sample = zipf_sample(n, num_values=num_values, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sample.size == n
        return sample, peak

    def test_peak_is_the_output_plus_one_chunk(self):
        """The uniforms, their CDF indices and the output are never
        held whole at once, and the output is at its domain's width:
        the peak is ``N`` bytes for the paper's 100 values (it was
        ``N`` x 8) plus one chunk's doubles and indices."""
        n = 500_000
        sample, peak = self._traced_peak(n, 100)
        assert sample.itemsize == 1
        assert peak <= n + 2 * SAMPLE_CHUNK * 8 + 65_536

    def test_a_wider_domain_peaks_at_its_own_width(self):
        n = 500_000
        sample, peak = self._traced_peak(n, 1_000)
        assert sample.itemsize == 2
        assert peak <= n * 2 + 2 * SAMPLE_CHUNK * 8 + 65_536


class TestZipfDistribution:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ZipfDistribution(num_values=0)
        with pytest.raises(ConfigurationError):
            ZipfDistribution(skew=-1)

    def test_sample_delegates(self):
        dist = ZipfDistribution(num_values=20, skew=0.5)
        sample = dist.sample(500, seed=4)
        assert sample.max() <= 20

    def test_expected_count(self):
        dist = ZipfDistribution(num_values=10, skew=0.0)
        assert dist.expected_count(1, 5, 1000) == pytest.approx(500.0)

    def test_expected_count_out_of_domain(self):
        dist = ZipfDistribution(num_values=10, skew=0.0)
        assert dist.expected_count(11, 20, 1000) == 0.0

    def test_expected_count_empty_range(self):
        dist = ZipfDistribution(num_values=10, skew=0.0)
        with pytest.raises(ConfigurationError):
            dist.expected_count(5, 1, 1000)

    def test_range_for_selectivity_uniform(self):
        dist = ZipfDistribution(num_values=100, skew=0.0)
        low, high = dist.range_for_selectivity(0.30)
        assert (low, high) == (1, 30)

    def test_range_for_selectivity_skewed_shrinks(self):
        uniform = ZipfDistribution(num_values=100, skew=0.0)
        skewed = ZipfDistribution(num_values=100, skew=1.5)
        assert (
            skewed.range_for_selectivity(0.30)[1]
            < uniform.range_for_selectivity(0.30)[1]
        )

    def test_range_for_selectivity_one(self):
        dist = ZipfDistribution(num_values=100, skew=0.2)
        assert dist.range_for_selectivity(1.0) == (1, 100)

    def test_range_for_selectivity_invalid(self):
        dist = ZipfDistribution()
        with pytest.raises(ConfigurationError):
            dist.range_for_selectivity(0.0)
        with pytest.raises(ConfigurationError):
            dist.range_for_selectivity(1.5)

    def test_range_selectivity_is_achieved(self):
        """The chosen range must actually select >= the requested mass."""
        dist = ZipfDistribution(num_values=100, skew=0.8)
        for target in (0.05, 0.3, 0.6):
            low, high = dist.range_for_selectivity(target)
            mass = dist.probabilities()[low - 1: high].sum()
            assert mass >= target - 1e-9
