"""Data substrate: synthetic tuples, placement, and local peer storage.

Implements the paper's data model (§5.2.2): single-attribute tuples
with values 1..100 following a Zipf distribution with skew ``Z``,
arranged with a *cluster level* ``CL`` (0 = sorted then partitioned,
1 = randomly permuted then partitioned) and distributed over peers in
breadth-first order so neighboring peers hold correlated data.
"""

from .zipf import (
    ZipfDistribution,
    domain_dtype,
    zipf_probabilities,
    zipf_sample,
)
from .generator import DatasetConfig, GeneratedDataset, generate_dataset
from .placement import PlacementConfig, assign_tuples_to_peers, peer_slices
from .localdb import Block, LocalDatabase
from .flat import FlatDataset
from .segments import segment_aggregate, segment_sums

__all__ = [
    "ZipfDistribution",
    "domain_dtype",
    "zipf_probabilities",
    "zipf_sample",
    "DatasetConfig",
    "GeneratedDataset",
    "generate_dataset",
    "PlacementConfig",
    "assign_tuples_to_peers",
    "peer_slices",
    "Block",
    "LocalDatabase",
    "FlatDataset",
    "segment_aggregate",
    "segment_sums",
]
