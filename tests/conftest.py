"""Shared fixtures: small deterministic networks and datasets."""

import faulthandler
import os

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings

from repro.data.generator import DatasetConfig, generate_dataset
from repro.network.generators import (
    power_law_topology,
    random_regular_topology,
)
from repro.network.simulator import NetworkSimulator
from repro.network.topology import Topology

# CI runs hypothesis derandomized (fixed seeds) so chaos/property
# failures reproduce exactly; select with REPRO_HYPOTHESIS_PROFILE=ci.
hypothesis_settings.register_profile("ci", derandomize=True)
_profile = os.environ.get("REPRO_HYPOTHESIS_PROFILE")
if _profile:
    hypothesis_settings.load_profile(_profile)


#: Per-test deadlines in seconds (default tests / ``slow``-marked).  A
#: test still running at its deadline is a hang — a wedged forked
#: worker, a bare ``Queue.get`` — so every thread's traceback is
#: dumped and the whole run exits non-zero instead of stalling CI.
#: Generous on purpose: the slowest default test takes a few seconds.
HANG_GUARD_S = 120
HANG_GUARD_SLOW_S = 600

_real_stderr_fd = 2


def pytest_configure(config):
    # Output capture is suspended while plugins configure, so fd 2 is
    # still the terminal here; inside a test it is pytest's capture
    # file, which a hard exit would take the dump down with.
    global _real_stderr_fd
    _real_stderr_fd = os.dup(2)


@pytest.fixture(autouse=True)
def _hang_guard(request):
    slow = request.node.get_closest_marker("slow") is not None
    faulthandler.dump_traceback_later(
        HANG_GUARD_SLOW_S if slow else HANG_GUARD_S,
        exit=True,
        file=_real_stderr_fd,
    )
    yield
    faulthandler.cancel_dump_traceback_later()


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help=(
            "rewrite tests/goldens/*.json from the current engine "
            "behaviour instead of asserting against them "
            "(then inspect the diff and commit)"
        ),
    )


@pytest.fixture()
def update_goldens(request):
    """True when the run should rewrite golden trace digests."""
    return bool(request.config.getoption("--update-goldens"))


@pytest.fixture(scope="session")
def small_topology():
    """A connected power-law topology: 200 peers, 800 edges."""
    return power_law_topology(200, 800, seed=7)


@pytest.fixture(scope="session")
def regular_topology():
    """A 6-regular topology (uniform stationary distribution)."""
    return random_regular_topology(120, 6, seed=11)


@pytest.fixture(scope="session")
def tiny_topology():
    """A hand-built 5-peer topology for exactness checks.

    Edges: 0-1, 0-2, 1-2, 2-3, 3-4 (degrees 2,2,3,2,1).
    """
    return Topology(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])


@pytest.fixture(scope="session")
def small_dataset(small_topology):
    """10k tuples over the small topology, CL=0.25, Z=0.2."""
    return generate_dataset(
        small_topology,
        DatasetConfig(num_tuples=10_000, cluster_level=0.25, skew=0.2),
        seed=7,
    )


@pytest.fixture(scope="session")
def small_network(small_topology, small_dataset):
    """A ready simulator over the small topology/dataset."""
    return NetworkSimulator(
        small_topology, small_dataset.databases, seed=7
    )


def assert_uniforms_consumed(rng, seed, count):
    """``rng`` has drawn exactly ``count`` doubles since ``seed``."""
    expected = np.random.default_rng(seed)
    expected.random(count)
    assert rng.bit_generator.state == expected.bit_generator.state


@pytest.fixture()
def rng():
    """A fresh seeded generator per test."""
    return np.random.default_rng(1234)
