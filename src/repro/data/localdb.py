"""A peer's local database with block storage (paper §3.2, §4, [9,16]).

Each peer stores its horizontal partition of the global table as one or
more named numeric columns, laid out in fixed-size *blocks* — the unit
of disk I/O that block-level sampling exploits.  The database supports:

* full scans (used by the exact evaluator and by peers with at most
  ``t`` tuples, which the algorithm aggregates in their entirety);
* **uniform tuple sub-sampling** of ``t`` tuples;
* **block-level sampling**: whole random blocks are read until at
  least ``t`` tuples are gathered — cheaper in I/O but correlated when
  data is clustered, exactly the trade-off in Chaudhuri et al. [9] and
  Haas & König [16] that the paper's cross-validation step absorbs.

Sampling returns the raw sampled rows; scaled aggregate computation
lives in the callers (simulator / estimators), matching the paper's
``Visit`` procedure which scales by ``#tuples / #processedTuples``.
"""

from __future__ import annotations

import dataclasses
import types
from typing import Dict, Iterator, List, Mapping, Optional

import numpy as np

from .._util import SeedLike, check_positive, ensure_rng, readonly_view
from ..errors import ConfigurationError, SamplingError
from .segments import select_rows


__all__ = [
    "Block",
    "LocalDatabase",
]


@dataclasses.dataclass(frozen=True)
class Block:
    """A contiguous block of rows: ``[start, stop)`` within the peer."""

    index: int
    start: int
    stop: int

    @property
    def num_tuples(self) -> int:
        """Rows in this block."""
        return self.stop - self.start


class LocalDatabase:
    """Columnar storage for one peer's partition.

    Parameters
    ----------
    columns:
        Mapping of column name to a 1-D numeric array; all columns
        must have equal length.  The database holds a **read-only
        view** of each array, never a copy: it may be a slice of a
        store shared by a whole dataset
        (:class:`~repro.data.flat.DatabaseTable`), and nothing handed
        out by :attr:`store`, :meth:`column` or :meth:`scan` can edit
        a snapshot somebody already published.
    block_size:
        Rows per block (the last block may be short).
    """

    def __init__(self, columns: Mapping[str, np.ndarray], block_size: int = 25):
        check_positive("block_size", block_size)
        if not columns:
            raise ConfigurationError("a database needs at least one column")
        self._columns: Dict[str, np.ndarray] = {}
        length: Optional[int] = None
        for name, data in columns.items():
            array = np.asarray(data)
            if array.ndim != 1:
                raise ConfigurationError(f"column {name!r} must be 1-D")
            if length is None:
                length = array.size
            elif array.size != length:
                raise ConfigurationError(
                    f"column {name!r} has {array.size} rows, expected {length}"
                )
            self._columns[name] = readonly_view(array)
        self._num_tuples = int(length or 0)
        self._block_size = int(block_size)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_tuples(self) -> int:
        """Rows stored at this peer."""
        return self._num_tuples

    @property
    def block_size(self) -> int:
        """Rows per storage block."""
        return self._block_size

    @property
    def num_blocks(self) -> int:
        """Number of storage blocks."""
        if self._num_tuples == 0:
            return 0
        return -(-self._num_tuples // self._block_size)

    @property
    def column_names(self) -> List[str]:
        """Names of stored columns."""
        return list(self._columns)

    def __len__(self) -> int:
        return self._num_tuples

    def __repr__(self) -> str:
        return (
            f"LocalDatabase(tuples={self.num_tuples}, "
            f"columns={self.column_names}, block_size={self.block_size})"
        )

    def blocks(self) -> Iterator[Block]:
        """Iterate over the block layout."""
        for index in range(self.num_blocks):
            start = index * self._block_size
            stop = min(start + self._block_size, self._num_tuples)
            yield Block(index=index, start=start, stop=stop)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    @property
    def store(self) -> Mapping[str, np.ndarray]:
        """The column store itself, for bulk readers
        (:meth:`~repro.data.flat.FlatDataset.from_databases`
        concatenates it).  The mapping and its arrays are read-only."""
        return types.MappingProxyType(self._columns)

    def column(self, name: str) -> np.ndarray:
        """Read-only view of a full column."""
        if name not in self._columns:
            raise ConfigurationError(
                f"unknown column {name!r}; have {self.column_names}"
            )
        return self._columns[name]

    def scan(self) -> Dict[str, np.ndarray]:
        """Read-only views of all columns (a full scan)."""
        return dict(self._columns)

    def rows(self, row_indices: np.ndarray) -> Dict[str, np.ndarray]:
        """Materialize the given rows of every column."""
        row_indices = np.asarray(row_indices, dtype=np.int64)
        if row_indices.size and (
            row_indices.min() < 0 or row_indices.max() >= self._num_tuples
        ):
            raise ConfigurationError("row indices out of range")
        return {name: data[row_indices] for name, data in self._columns.items()}

    # ------------------------------------------------------------------
    # Sub-sampling (the paper's parameter t)
    # ------------------------------------------------------------------

    def uniform_sample_indices(
        self, num_rows: int, seed: SeedLike = None
    ) -> np.ndarray:
        """Uniform without-replacement sample of row indices.

        If the peer holds at most ``num_rows`` tuples, all rows are
        returned (the paper aggregates small databases entirely) and
        no randomness is consumed.  Otherwise the sample is defined by
        random keys: one ``rng.random(num_tuples)`` draw, and the rows
        holding the ``num_rows`` smallest keys (equal keys: lower row
        index first), **listed in ascending row index** — the
        one-partition case of :func:`~repro.data.segments.select_rows`,
        which the batch visit calls with every visited peer.  That
        definition is the sub-sampling RNG stream contract: a
        sub-sampled partition consumes exactly ``num_tuples`` doubles,
        so a batch over a shared generator may draw all its peers' keys
        at once (``rng.random(a); rng.random(b)`` ≡ ``rng.random(a +
        b)``).
        """
        if num_rows < 0:
            raise SamplingError("num_rows must be non-negative")
        if not 0 < num_rows < self._num_tuples:
            return np.arange(min(num_rows, self._num_tuples), dtype=np.int64)
        rows, *_ = select_rows(
            np.asarray([0, self._num_tuples]), np.zeros(1, dtype=np.int64),
            num_rows, seed,
        )
        return rows

    def block_sample_indices(
        self, num_rows: int, seed: SeedLike = None
    ) -> np.ndarray:
        """Block-level sample: whole random blocks until ``num_rows`` rows.

        Blocks are drawn without replacement; the surplus of the last
        block is truncated so exactly ``min(num_rows, num_tuples)``
        rows are returned.  With clustered data the rows inside a block
        are highly correlated — the estimator's cross-validation
        compensates by visiting more peers, as in the paper.
        """
        if num_rows < 0:
            raise SamplingError("num_rows must be non-negative")
        if num_rows >= self._num_tuples:
            return np.arange(self._num_tuples, dtype=np.int64)
        rng = ensure_rng(seed)
        block_order = rng.permutation(self.num_blocks)
        chosen: List[np.ndarray] = []
        gathered = 0
        for block_index in block_order:
            start = int(block_index) * self._block_size
            stop = min(start + self._block_size, self._num_tuples)
            chosen.append(np.arange(start, stop, dtype=np.int64))
            gathered += stop - start
            if gathered >= num_rows:
                break
        indices = np.concatenate(chosen)
        return indices[:num_rows]

    def sample(
        self,
        num_rows: int,
        method: str = "uniform",
        seed: SeedLike = None,
    ) -> Dict[str, np.ndarray]:
        """Sample ``num_rows`` rows with the given method.

        ``method`` is ``"uniform"`` (row-level) or ``"block"``
        (block-level).  Returns materialized column arrays.
        """
        if method == "uniform":
            indices = self.uniform_sample_indices(num_rows, seed=seed)
        elif method == "block":
            indices = self.block_sample_indices(num_rows, seed=seed)
        else:
            raise ConfigurationError(
                f"unknown sampling method {method!r}; "
                "expected 'uniform' or 'block'"
            )
        return self.rows(indices)
