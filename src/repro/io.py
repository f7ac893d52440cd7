"""Persistence for experiment artifacts.

Paper-scale topologies and datasets take real time to generate; saving
them makes experiment runs reproducible bit-for-bit and lets a suite
share one network across processes.  Artifacts are stored as numpy
``.npz`` archives with a small schema:

* **Topology** — edge array plus the peer count;
* **GeneratedDataset** — the arranged global column(s), the per-peer
  partition boundaries, and the generating configuration.

Both loaders validate the schema version so stale artifacts fail
loudly instead of mis-loading.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Union

import numpy as np

from .data.flat import DatabaseTable, FlatDataset
from .data.generator import DatasetConfig, GeneratedDataset
from .errors import ConfigurationError
from .network.topology import Topology

__all__ = [
    "PathLike",
    "save_topology",
    "load_topology",
    "save_dataset",
    "load_dataset",
]

_TOPOLOGY_SCHEMA = 1
_DATASET_SCHEMA = 2

PathLike = Union[str, pathlib.Path]


def save_topology(topology: Topology, path: PathLike) -> None:
    """Write a topology to ``path`` (``.npz``)."""
    np.savez_compressed(
        path,
        schema=np.int64(_TOPOLOGY_SCHEMA),
        num_peers=np.int64(topology.num_peers),
        edges=topology.edge_array,
    )


def load_topology(path: PathLike) -> Topology:
    """Read a topology written by :func:`save_topology`.

    The file is not trusted: its edges get the full
    :class:`Topology` validation (range, self-loops, duplicates).
    """
    with np.load(path) as archive:
        _check_schema(archive, _TOPOLOGY_SCHEMA, "topology", path)
        num_peers = int(archive["num_peers"])
        edges = archive["edges"]
    return Topology(num_peers=num_peers, edges=edges)


def save_dataset(dataset: GeneratedDataset, path: PathLike) -> None:
    """Write a generated dataset (all columns + partition map)."""
    store = FlatDataset.from_databases(dataset.databases)
    config_json = json.dumps(dataclasses.asdict(dataset.config))
    np.savez_compressed(
        path,
        schema=np.int64(_DATASET_SCHEMA),
        boundaries=store.offsets,
        config=np.frombuffer(config_json.encode("utf-8"), dtype=np.uint8),
        column_names=np.array(store.column_names),
        **{f"column_{name}": data for name, data in store.scan().items()},
    )


def load_dataset(path: PathLike) -> GeneratedDataset:
    """Read a dataset written by :func:`save_dataset`.

    The reconstructed dataset has identical per-peer databases (same
    partitions, same block size), so every ground-truth evaluation and
    every query execution match the original exactly.  The *global*
    arrays are the store's columns — the partitions in peer-id order —
    which may differ from the original placement order; the multiset
    of rows is identical.
    """
    with np.load(path) as archive:
        _check_schema(archive, _DATASET_SCHEMA, "dataset", path)
        config_json = bytes(archive["config"]).decode("utf-8")
        config = DatasetConfig(**json.loads(config_json))
        store = FlatDataset(
            {
                str(name): archive[f"column_{name}"]
                for name in archive["column_names"]
            },
            archive["boundaries"],
        )
    return GeneratedDataset(
        config=config,
        values=store.column(config.column),
        databases=DatabaseTable(store, block_size=config.block_size),
        group_values=(
            store.column(config.group_column)
            if config.group_column is not None
            else None
        ),
    )


def _check_schema(
    archive: np.lib.npyio.NpzFile, expected: int, kind: str, path: PathLike
) -> None:
    if "schema" not in archive:
        raise ConfigurationError(f"{path} is not a repro {kind} artifact")
    found = int(archive["schema"])
    if found != expected:
        raise ConfigurationError(
            f"{path}: {kind} schema {found} != supported {expected}"
        )
