"""Synthetic dataset generation (paper §5.2.2).

A dataset is a single numeric attribute over ``num_tuples`` rows:

1. values are drawn from a bounded Zipf with skew ``Z``;
2. the *cluster level* ``CL`` arranges them: ``CL = 0`` sorts the array
   (perfectly clustered — after partitioning, each peer holds a narrow
   value range), ``CL = 1`` permutes it randomly, and in-between values
   interpolate by leaving a ``1 - CL`` fraction of positions sorted and
   shuffling the rest;
3. the arranged array is partitioned over peers (see
   :mod:`repro.data.placement`).

The combination of CL and BFS placement reproduces the paper's key
difficulty: tuples within a peer — and within graph neighborhoods — are
correlated, so uniform peer sampling is *not* uniform tuple sampling.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from .._util import (
    SeedLike,
    check_fraction,
    check_nonnegative,
    check_positive,
    ensure_rng,
)
from ..errors import ConfigurationError
from ..network.topology import Topology
from .flat import DatabaseTable, FlatDataset
from .placement import PlacementConfig, peer_slices
from .zipf import ZipfDistribution


__all__ = [
    "DatasetConfig",
    "arrangement_permutation",
    "arrange_cluster_level",
    "GeneratedDataset",
    "generate_dataset",
]


@dataclasses.dataclass(frozen=True)
class DatasetConfig:
    """Parameters of a synthetic P2P dataset.

    Attributes
    ----------
    num_tuples:
        Total rows ``N`` across the whole network.
    num_values:
        Attribute domain size (paper: 100).
    skew:
        Zipf skew ``Z`` (paper sweeps 0..2; default 0.2).
    cluster_level:
        ``CL`` in [0, 1]; 0 = sorted/partitioned, 1 = random permuted.
    column:
        Attribute name exposed to queries (paper queries use ``A``).
    block_size:
        Tuples per storage block in each local database (block-level
        sampling granularity).
    group_column:
        Optional name of a second, categorical column (for GROUP BY
        workloads).  Groups are drawn independently from a mild Zipf
        over ``1..num_groups`` and arranged jointly with the primary
        column, so per-peer group mixes follow the cluster level.
    num_groups:
        Domain size of the group column.
    group_skew:
        Zipf skew of the group column.
    """

    num_tuples: int = 1_000_000
    num_values: int = 100
    skew: float = 0.2
    cluster_level: float = 0.25
    column: str = "A"
    block_size: int = 25
    group_column: Optional[str] = None
    num_groups: int = 10
    group_skew: float = 0.5

    def __post_init__(self) -> None:
        check_nonnegative("num_tuples", self.num_tuples)
        check_positive("num_values", self.num_values)
        check_nonnegative("skew", self.skew)
        check_fraction("cluster_level", self.cluster_level)
        check_positive("block_size", self.block_size)
        check_positive("num_groups", self.num_groups)
        check_nonnegative("group_skew", self.group_skew)
        if self.group_column is not None and (
            self.group_column == self.column or not self.group_column
        ):
            raise ConfigurationError(
                "group_column must be a distinct, non-empty name"
            )

    @property
    def distribution(self) -> ZipfDistribution:
        """The value distribution this config draws from."""
        return ZipfDistribution(num_values=self.num_values, skew=self.skew)


def _shuffle_sorted(
    ordered: np.ndarray,
    cluster_level: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Apply the cluster level ``CL`` to ``ordered`` in place.

    ``ordered`` is in sorted order (the sorted values, or the stable
    sorting permutation).  ``CL = 0`` leaves it; ``CL = 1`` shuffles it;
    in between, a uniformly random ``CL`` fraction of positions have
    their contents shuffled among themselves.  The draws depend only on
    ``ordered.size``, so shuffling the sorted values and gathering the
    values by the shuffled permutation give the same array.
    """
    check_fraction("cluster_level", cluster_level)
    if cluster_level <= 0.0 or ordered.size <= 1:
        return ordered
    if cluster_level >= 1.0:
        rng.shuffle(ordered)
        return ordered
    num_shuffled = int(round(cluster_level * ordered.size))
    if num_shuffled < 2:
        return ordered
    positions = rng.choice(ordered.size, size=num_shuffled, replace=False)
    shuffled = ordered[positions]
    rng.shuffle(shuffled)
    ordered[positions] = shuffled
    return ordered


def arrangement_permutation(
    values: np.ndarray,
    cluster_level: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Row permutation realizing the cluster level ``CL``.

    The stable sorting permutation of ``values``, shuffled by
    :func:`_shuffle_sorted`.  Returned as an index array so
    multi-column datasets can arrange all columns jointly (rows stay
    intact).
    """
    return _shuffle_sorted(np.argsort(values, kind="stable"), cluster_level, rng)


def arrange_cluster_level(
    values: np.ndarray,
    cluster_level: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Arrange ``values`` according to the cluster level ``CL``.

    Equal to ``values[arrangement_permutation(values, cluster_level,
    rng)]`` with the same draws, but arranged in value space: a stable
    sort of the values is the values gathered by their stable sorting
    permutation, so no index array is built.  ``values`` is not
    modified.
    """
    return _shuffle_sorted(np.sort(values, kind="stable"), cluster_level, rng)


#: Rows per block when the store is cut from the arranged rows.
_STORE_BLOCK_ROWS = 1 << 16


def _peer_ordered(
    arranged: np.ndarray, starts: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """``arranged`` laid out in peer-id order.

    Peer ``p``'s rows ``arranged[starts[p]:]`` (``offsets[p + 1] -
    offsets[p]`` of them) land at ``offsets[p]``.  Gathered a block of
    peers at a time, so the index temporaries hold about
    :data:`_STORE_BLOCK_ROWS` rows, not all of them.
    """
    counts = np.diff(offsets)
    shift = starts - offsets[:-1]
    store = np.empty_like(arranged)
    num_peers = counts.size
    total = int(offsets[-1])
    step = max(1, _STORE_BLOCK_ROWS * num_peers // max(total, 1))
    for lo in range(0, num_peers, step):
        hi = min(lo + step, num_peers)
        first, stop = int(offsets[lo]), int(offsets[hi])
        index = np.repeat(shift[lo:hi], counts[lo:hi])
        index += np.arange(first, stop)
        np.take(arranged, index, out=store[first:stop])
    return store


@dataclasses.dataclass
class GeneratedDataset:
    """A generated dataset, both globally and as per-peer databases.

    Attributes
    ----------
    config:
        The generating configuration.
    values:
        The full arranged value array, in placement order (ground
        truth lives here).
    databases:
        ``databases[p]`` is peer ``p``'s :class:`LocalDatabase`: a
        read-only sequence of slices of ``databases.store``, the one
        copy of the per-peer rows (peer-id order).
    """

    config: DatasetConfig
    values: np.ndarray
    databases: DatabaseTable
    group_values: Optional[np.ndarray] = None

    @property
    def num_tuples(self) -> int:
        """Total number of tuples ``N``."""
        return int(self.values.size)

    @property
    def column(self) -> str:
        """The queryable attribute name."""
        return self.config.column

    def total_sum(self) -> float:
        """Ground-truth SUM over the whole network."""
        return float(self.values.sum())

    def tuples_at(self, peer: int) -> int:
        """Number of tuples stored at ``peer``."""
        return self.databases[peer].num_tuples


def generate_dataset(
    topology: Topology,
    config: Optional[DatasetConfig] = None,
    placement: Optional[PlacementConfig] = None,
    seed: SeedLike = None,
) -> GeneratedDataset:
    """Generate and place a dataset over ``topology``.

    The rows are laid out in peer-id order once, and that store *is*
    the dataset: ``databases`` slices it.  The global ``values`` array
    is kept for ground-truth evaluation (the same rows in placement
    order).  A single-column build arranges the values in place, so it
    peaks at the two ``num_tuples``-row arrays it returns plus, at
    ``0 < CL < 1``, the position draw (``rng.choice`` holds a
    ``num_tuples``-row permutation while it picks).  A group column is
    carried through the row permutation instead.
    """
    config = config or DatasetConfig()
    placement = placement or PlacementConfig()
    rng = ensure_rng(seed)
    arranged = config.distribution.sample(config.num_tuples, seed=rng)
    group_arranged: Optional[np.ndarray] = None
    if config.group_column is None:
        arranged.sort(kind="stable")
        _shuffle_sorted(arranged, config.cluster_level, rng)
    else:
        permutation = arrangement_permutation(
            arranged, config.cluster_level, rng
        )
        arranged = arranged[permutation]
        groups = ZipfDistribution(
            num_values=config.num_groups, skew=config.group_skew
        ).sample(config.num_tuples, seed=rng)
        group_arranged = groups[permutation]
        del groups, permutation

    # ``peer_slices`` is indexed by peer but laid out in placement
    # order, so the peer-id-ordered store is a gather, not a reshape.
    bounds = np.asarray(
        peer_slices(config.num_tuples, topology, config=placement, seed=rng),
        dtype=np.int64,
    ).reshape(-1, 2)
    offsets = np.zeros(bounds.shape[0] + 1, dtype=np.int64)
    np.cumsum(bounds[:, 1] - bounds[:, 0], out=offsets[1:])
    starts = bounds[:, 0]
    columns = {config.column: _peer_ordered(arranged, starts, offsets)}
    if group_arranged is not None and config.group_column is not None:
        columns[config.group_column] = _peer_ordered(
            group_arranged, starts, offsets
        )
    return GeneratedDataset(
        config=config,
        values=arranged,
        databases=DatabaseTable(
            FlatDataset(columns, offsets), block_size=config.block_size
        ),
        group_values=group_arranged,
    )
