"""Flat (concatenated) columnar view over per-peer databases.

The simulator stores one :class:`~repro.data.localdb.LocalDatabase`
per peer because that is what the network model prescribes — but the
*evaluation harness* keeps asking global questions: the network-wide
tuple count ``N``, exact query answers for scoring, and batched visits
of hundreds of peers per walk.  Answering those one peer at a time
costs one Python/numpy round-trip per peer, which dominates experiment
wall-time long before the algorithm does.

:class:`FlatDataset` concatenates every peer's columns into one
contiguous array per column and keeps per-peer offsets, so that

* ``total_tuples`` is an array length,
* exact evaluation and selectivity measurement are single numpy
  passes over the concatenated columns, and
* the batch-visit fast path (:meth:`NetworkSimulator.
  visit_aggregate_batch`) can gather all sampled rows of all visited
  peers with one fancy-indexing operation per column.

The view is immutable and built lazily: peers' databases never change
under a frozen simulator (churn produces *new* simulators via
:meth:`~repro.network.live.LiveNetwork.snapshot`), so the
concatenation is computed once and cached.

A *generated* or *loaded* dataset goes the other way round: its
:class:`FlatDataset` is the one copy of the rows there is, and its
per-peer databases are a :class:`DatabaseTable` — slices of that store,
built when somebody asks for one.
"""

from __future__ import annotations

import operator
from typing import Dict, Iterator, List, Sequence, Tuple, Union, overload

import numpy as np

from .._util import check_positive, readonly_view
from ..errors import ConfigurationError
from .localdb import LocalDatabase


__all__ = [
    "FlatDataset",
    "DatabaseTable",
]


class FlatDataset:
    """Read-only concatenated columns with per-peer offsets.

    ``offsets`` has ``num_peers + 1`` entries; peer ``p``'s rows live
    at ``[offsets[p], offsets[p + 1])`` in every column.
    """

    __slots__ = ("_columns", "_offsets", "_counts")

    def __init__(self, columns: Dict[str, np.ndarray], offsets: np.ndarray):
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.ndim != 1 or offsets.size < 2:
            raise ConfigurationError("offsets must be 1-D with >= 2 entries")
        if offsets[0] != 0 or np.any(np.diff(offsets) < 0):
            raise ConfigurationError("offsets must start at 0 and be sorted")
        if not columns:
            raise ConfigurationError("a flat dataset needs >= 1 column")
        total = int(offsets[-1])
        for name, data in columns.items():
            if data.ndim != 1 or data.size != total:
                raise ConfigurationError(
                    f"column {name!r} has {data.size} rows, expected {total}"
                )
        self._columns = {
            name: readonly_view(data) for name, data in columns.items()
        }
        self._offsets = offsets
        self._counts = np.diff(offsets)
        self._offsets.flags.writeable = False
        self._counts.flags.writeable = False

    @classmethod
    def from_databases(
        cls, databases: Sequence[LocalDatabase]
    ) -> "FlatDataset":
        """Concatenate the columns of per-peer databases.

        All databases must expose the same column set (they partition
        one global table horizontally).  A :class:`DatabaseTable` is
        already slices of one store: that store is returned as is,
        nothing is concatenated.
        """
        if isinstance(databases, DatabaseTable):
            return databases.store
        if not databases:
            raise ConfigurationError("need at least one database")
        stores = [database.store for database in databases]
        names = stores[0].keys()
        for index, store in enumerate(stores):
            if store.keys() != names:
                raise ConfigurationError(
                    f"database {index} has columns "
                    f"{list(store)}, expected {list(names)}"
                )
        offsets = np.zeros(len(stores) + 1, dtype=np.int64)
        counts = np.fromiter(map(len, databases), np.int64, len(stores))
        np.cumsum(counts, out=offsets[1:])
        columns: Dict[str, np.ndarray] = {}
        for name in names:
            merged = np.concatenate([store[name] for store in stores])
            merged.flags.writeable = False
            columns[name] = merged
        return cls(columns, offsets)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_peers(self) -> int:
        """Number of peer partitions."""
        return int(self._offsets.size - 1)

    @property
    def num_tuples(self) -> int:
        """Network-wide tuple count ``N``."""
        return int(self._offsets[-1])

    @property
    def offsets(self) -> np.ndarray:
        """Per-peer start offsets (``num_peers + 1`` entries)."""
        return self._offsets

    @property
    def peer_tuple_counts(self) -> np.ndarray:
        """Tuples stored at each peer (``num_peers`` entries)."""
        return self._counts

    @property
    def column_names(self) -> List[str]:
        """Names of stored columns."""
        return list(self._columns)

    def __len__(self) -> int:
        return self.num_tuples

    def __repr__(self) -> str:
        return (
            f"FlatDataset(peers={self.num_peers}, "
            f"tuples={self.num_tuples}, columns={self.column_names})"
        )

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        """Read-only view of one concatenated column."""
        if name not in self._columns:
            raise ConfigurationError(
                f"unknown column {name!r}; have {self.column_names}"
            )
        return self._columns[name]

    def scan(self) -> Dict[str, np.ndarray]:
        """Read-only views of all concatenated columns."""
        return dict(self._columns)

    def peer_slice(self, peer_id: int) -> slice:
        """Slice of the concatenated arrays holding ``peer_id``'s rows."""
        if not 0 <= peer_id < self.num_peers:
            raise ConfigurationError(f"unknown peer {peer_id}")
        return slice(int(self._offsets[peer_id]), int(self._offsets[peer_id + 1]))

    def gather(self, indices: np.ndarray) -> Dict[str, np.ndarray]:
        """Materialize the given flat-view rows of every column."""
        indices = np.asarray(indices, dtype=np.int64)
        return {name: data[indices] for name, data in self._columns.items()}


class DatabaseTable(Sequence[LocalDatabase]):
    """A dataset's per-peer databases as slices of one store.

    ``table[i]`` builds peer ``i``'s :class:`LocalDatabase` over rows
    ``[offsets[i], offsets[i + 1])`` of every column of ``store`` — a
    real ``LocalDatabase``, so its validation runs, holding views, not
    copies — and nothing keeps it: two reads are equal, not identical.
    The sequence is read-only; :meth:`FlatDataset.from_databases`
    hands back ``store`` itself.
    """

    __slots__ = ("_store", "_block_size")

    def __init__(self, store: FlatDataset, block_size: int = 25):
        check_positive("block_size", block_size)
        self._store = store
        self._block_size = int(block_size)

    @property
    def store(self) -> FlatDataset:
        """The columns and offsets every database here is a slice of."""
        return self._store

    @property
    def block_size(self) -> int:
        """Rows per storage block of every database."""
        return self._block_size

    def __len__(self) -> int:
        return self._store.num_peers

    @overload
    def __getitem__(self, index: int) -> LocalDatabase: ...

    @overload
    def __getitem__(self, index: slice) -> Tuple[LocalDatabase, ...]: ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[LocalDatabase, Tuple[LocalDatabase, ...]]:
        if isinstance(index, slice):
            return tuple(
                self[position]
                for position in range(*index.indices(len(self)))
            )
        position = operator.index(index)
        if position < 0:
            position += len(self)
        if not 0 <= position < len(self):
            raise IndexError(f"database {index} not in [0, {len(self)})")
        rows = self._store.peer_slice(position)
        return LocalDatabase(
            {name: data[rows] for name, data in self._store.scan().items()},
            block_size=self._block_size,
        )

    def __iter__(self) -> Iterator[LocalDatabase]:
        return (self[position] for position in range(len(self)))
