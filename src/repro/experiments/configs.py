"""Evaluation-network builders (paper §5.2).

The paper evaluates on two networks:

* **Synthetic** — 10,000 peers / 100,000 edges of stitched power-law
  sub-graphs, 1,000,000 tuples (100 per peer);
* **Gnutella** — the 2001 crawl shape, 22,556 peers / 52,321 edges,
  2,200,000 tuples (~100 per peer).

Paper-scale runs take minutes per figure, so every builder accepts a
``scale`` factor that shrinks peers/edges/tuples proportionally while
preserving tuples-per-peer; ``REPRO_SCALE=1.0`` reproduces paper sizes
(the environment variable sets the default).  ``REPRO_TRIALS`` sets the
default trial count (the paper averages 5 runs per point).

Built bundles are cached per parameter combination so a figure's sweep
reuses its network instead of regenerating it per point.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pathlib
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..data.flat import FlatDataset
from ..data.generator import DatasetConfig, GeneratedDataset, generate_dataset
from ..data.placement import PlacementConfig
from ..errors import ConfigurationError
from ..network.generators import (
    clustered_power_law,
    gnutella_2001_like,
    power_law_topology,
)
from ..network.simulator import NetworkSimulator
from ..network.topology import Topology


__all__ = [
    "default_scale",
    "default_trials",
    "default_workers",
    "NetworkBundle",
    "clear_cache",
    "topology_cache_dir",
    "synthetic_bundle",
    "gnutella_bundle",
]


def default_scale() -> float:
    """Experiment scale factor; env ``REPRO_SCALE`` overrides (1.0 =
    paper size, default 0.15 keeps the full suite fast)."""
    value = float(os.environ.get("REPRO_SCALE", "0.15"))
    if not 0.0 < value <= 1.0:
        raise ConfigurationError(f"REPRO_SCALE must be in (0, 1], got {value}")
    return value


def default_trials() -> int:
    """Trials per data point; env ``REPRO_TRIALS`` overrides (paper: 5)."""
    value = int(os.environ.get("REPRO_TRIALS", "3"))
    if value < 1:
        raise ConfigurationError(f"REPRO_TRIALS must be >= 1, got {value}")
    return value


def default_workers() -> int:
    """Worker processes for :func:`~repro.experiments.runner.run_trials`;
    env ``REPRO_WORKERS`` overrides (default 1 = serial)."""
    raw = os.environ.get("REPRO_WORKERS", "1")
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_WORKERS must be an integer >= 1, got {raw!r}"
        ) from None
    if value < 1:
        raise ConfigurationError(f"REPRO_WORKERS must be >= 1, got {value}")
    return value


@dataclasses.dataclass(frozen=True)
class NetworkBundle:
    """A ready-to-query evaluation network.

    Attributes
    ----------
    name:
        ``"synthetic"`` or ``"gnutella"`` (plus parameter decorations).
    topology, dataset, simulator:
        The three layers the engines need.
    """

    name: str
    topology: Topology
    dataset: GeneratedDataset
    simulator: NetworkSimulator

    @property
    def num_peers(self) -> int:
        """Peers in the network."""
        return self.topology.num_peers

    @property
    def num_tuples(self) -> int:
        """Total tuples across all peers."""
        return self.dataset.num_tuples

    @property
    def flat_dataset(self) -> FlatDataset:
        """The simulator's concatenated columnar view (lazy, cached)."""
        return self.simulator.flat_dataset


_CACHE: Dict[Tuple, NetworkBundle] = {}


def clear_cache() -> None:
    """Drop all cached bundles (tests use this to bound memory)."""
    _CACHE.clear()


def topology_cache_dir() -> Optional[pathlib.Path]:
    """Directory for the on-disk topology cache.

    ``REPRO_CACHE_DIR`` overrides the location; set it to the empty
    string to disable disk caching entirely.  The default lives inside
    the repository (``.cache/topologies``), next to the sources.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env is not None:
        if env == "":
            return None
        return pathlib.Path(env)
    return (
        pathlib.Path(__file__).resolve().parents[3]
        / ".cache"
        / "topologies"
    )


def _cached_topology(key: Tuple, builder: Callable[[], Topology]) -> Topology:
    """Build a topology through the on-disk cache.

    Generators are deterministic in their parameters, so the cache key
    is the parameter tuple (hashed).  The stored edge array round-trips
    via :meth:`Topology.from_edge_array` to a bit-identical CSR, so a
    cache hit changes nothing about any walk — it only skips the
    generator's attachment loop (one scalar draw per edge endpoint),
    which dominates cold figure start-up.
    """
    directory = topology_cache_dir()
    if directory is None:
        return builder()
    digest = hashlib.sha256(repr(key).encode()).hexdigest()[:32]
    path = directory / f"{digest}.npz"
    if path.exists():
        try:
            with np.load(path) as stored:
                return Topology.from_edge_array(
                    int(stored["num_peers"]), stored["edges"]
                )
        except Exception:
            pass  # unreadable entry: fall through and rebuild
    topology = builder()
    try:
        directory.mkdir(parents=True, exist_ok=True)
        temporary = path.with_name(f"{digest}.{os.getpid()}.tmp")
        with open(temporary, "wb") as handle:
            np.savez(
                handle,
                num_peers=np.int64(topology.num_peers),
                edges=topology.edge_array,
            )
        os.replace(temporary, path)
    except OSError:
        pass  # read-only filesystem etc.: caching is best-effort
    return topology


def _build_bundle(
    name: str,
    topology: Topology,
    tuples_per_peer: int,
    cluster_level: float,
    skew: float,
    placement_order: str,
    seed: int,
) -> NetworkBundle:
    dataset_config = DatasetConfig(
        num_tuples=topology.num_peers * tuples_per_peer,
        cluster_level=cluster_level,
        skew=skew,
    )
    placement = PlacementConfig(order=placement_order)
    dataset = generate_dataset(
        topology, dataset_config, placement=placement, seed=seed + 1
    )
    simulator = NetworkSimulator(
        topology, dataset.databases, seed=seed + 2
    )
    return NetworkBundle(
        name=name, topology=topology, dataset=dataset, simulator=simulator
    )


def synthetic_bundle(
    scale: Optional[float] = None,
    cluster_level: float = 0.25,
    skew: float = 0.2,
    tuples_per_peer: int = 100,
    num_subgraphs: int = 1,
    cut_edges: int = 0,
    seed: int = 42,
    placement_order: str = "bfs",
) -> NetworkBundle:
    """The paper's synthetic network, scaled.

    With ``num_subgraphs >= 2`` the topology is the clustered variant
    (Figures 7–12) and data is placed in peer-id order so each
    sub-graph holds its own region of the value space — "similar data
    within individual sub-graphs but different from others".
    """
    scale = default_scale() if scale is None else scale
    num_peers = max(100, round(10_000 * scale))
    num_edges = max(2 * num_peers, round(100_000 * scale))
    if num_subgraphs >= 2:
        placement_order = "id"
        cut = max(num_subgraphs, min(cut_edges, num_edges - num_peers))
        key = (
            "synthetic", num_peers, num_edges, num_subgraphs, cut,
            cluster_level, skew, tuples_per_peer, seed, placement_order,
        )
        if key not in _CACHE:
            topology = _cached_topology(
                key,
                lambda: clustered_power_law(
                    num_peers=num_peers,
                    num_edges=num_edges,
                    num_subgraphs=num_subgraphs,
                    cut_edges=cut,
                    seed=seed,
                ),
            )
            _CACHE[key] = _build_bundle(
                f"synthetic/s={num_subgraphs},e={cut}",
                topology,
                tuples_per_peer,
                cluster_level,
                skew,
                placement_order,
                seed,
            )
        return _CACHE[key]

    key = (
        "synthetic", num_peers, num_edges, 1, 0,
        cluster_level, skew, tuples_per_peer, seed, placement_order,
    )
    if key not in _CACHE:
        topology = _cached_topology(
            key,
            lambda: power_law_topology(num_peers, num_edges, seed=seed),
        )
        _CACHE[key] = _build_bundle(
            "synthetic",
            topology,
            tuples_per_peer,
            cluster_level,
            skew,
            placement_order,
            seed,
        )
    return _CACHE[key]


def gnutella_bundle(
    scale: Optional[float] = None,
    cluster_level: float = 0.25,
    skew: float = 0.2,
    tuples_per_peer: int = 100,
    seed: int = 43,
    placement_order: str = "bfs",
) -> NetworkBundle:
    """The Gnutella-2001-like network, scaled.

    At ``scale=1.0``: 22,556 peers, 52,321 edges, ~2.2M tuples —
    matching the crawl the paper used (see DESIGN.md for the
    substitution rationale).
    """
    scale = default_scale() if scale is None else scale
    num_peers = max(100, round(22_556 * scale))
    num_edges = max(num_peers + num_peers // 2, round(52_321 * scale))
    key = (
        "gnutella", num_peers, num_edges,
        cluster_level, skew, tuples_per_peer, seed, placement_order,
    )
    if key not in _CACHE:
        topology = _cached_topology(
            key,
            lambda: gnutella_2001_like(
                num_peers=num_peers, num_edges=num_edges, seed=seed
            ),
        )
        _CACHE[key] = _build_bundle(
            "gnutella",
            topology,
            tuples_per_peer,
            cluster_level,
            skew,
            placement_order,
            seed,
        )
    return _CACHE[key]
