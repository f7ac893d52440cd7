"""Unit tests for repro.core.confidence."""

import numpy as np
import pytest

from repro.core.confidence import (
    ConfidenceInterval,
    normal_confidence_interval,
    z_for_confidence,
)
from repro.errors import SamplingError
from repro.network.protocol import AggregateSample

from .row_reference import Row, sample_of


class TestZValues:
    def test_tabulated(self):
        assert z_for_confidence(0.95) == pytest.approx(1.95996, abs=1e-4)
        assert z_for_confidence(0.99) == pytest.approx(2.57583, abs=1e-4)

    def test_untabulated_approximation(self):
        # 0.97 two-sided -> z ~ 2.17009
        assert z_for_confidence(0.97) == pytest.approx(2.17009, abs=1e-3)

    def test_monotone(self):
        assert z_for_confidence(0.99) > z_for_confidence(0.9)
        assert z_for_confidence(0.9) > z_for_confidence(0.5)

    def test_invalid(self):
        with pytest.raises(SamplingError):
            z_for_confidence(0.0)
        with pytest.raises(SamplingError):
            z_for_confidence(1.0)


class TestConfidenceInterval:
    def test_endpoints(self):
        interval = ConfidenceInterval(
            estimate=10.0, half_width=2.0, confidence=0.95
        )
        assert interval.low == 8.0
        assert interval.high == 12.0

    def test_contains(self):
        interval = ConfidenceInterval(
            estimate=10.0, half_width=2.0, confidence=0.95
        )
        assert interval.contains(10.0)
        assert interval.contains(8.0)
        assert not interval.contains(12.5)

    def test_str(self):
        interval = ConfidenceInterval(
            estimate=10.0, half_width=2.0, confidence=0.95
        )
        assert "95%" in str(interval)


class TestNormalInterval:
    def make_observations(self, seed=0, num=50):
        rng = np.random.default_rng(seed)
        return sample_of([
            Row(
                source=i,
                aggregate_value=float(max(0.1, 10 + rng.normal())),
                probability=0.02,
            )
            for i in range(num)
        ])

    def test_width_positive(self):
        interval = normal_confidence_interval(self.make_observations())
        assert interval.half_width > 0

    def test_wider_at_higher_confidence(self):
        observations = self.make_observations()
        narrow = normal_confidence_interval(observations, confidence=0.8)
        wide = normal_confidence_interval(observations, confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_coverage_statistical(self):
        """~95% of intervals should contain the true total."""
        rng = np.random.default_rng(42)
        num_peers = 30
        degrees = rng.integers(1, 8, size=num_peers).astype(float)
        probabilities = degrees / degrees.sum()
        values = rng.integers(1, 30, size=num_peers).astype(float)
        truth = values.sum()
        covered = 0
        trials = 600
        for _ in range(trials):
            picks = rng.choice(num_peers, size=200, p=probabilities)
            observations = AggregateSample.from_columns(
                0, picks.size, source=picks, aggregate_value=values[picks]
            ).with_probability(probabilities[picks])
            if normal_confidence_interval(observations).contains(truth):
                covered += 1
        # CLT intervals undercover slightly on skewed ratios; the
        # coverage must still be in the right neighborhood.
        assert covered / trials == pytest.approx(0.95, abs=0.05)
