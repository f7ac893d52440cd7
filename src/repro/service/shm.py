"""Shared-memory export/attach of the serving snapshot's arrays.

The sharded backend's workers need the big read-only arrays — the
:class:`~repro.data.flat.FlatDataset` columns — without copying them
per process.  Fork
copy-on-write already makes the *initial* mapping free, but COW pages
are private: any parent-side page dirtying (refcount updates walk
object headers, not array payloads, but the arrays' *owning* python
objects live on ordinary heap pages) silently un-shares memory over a
long-lived service.  Exporting the payloads into one
:class:`multiprocessing.shared_memory.SharedMemory` segment pins them
in genuinely shared pages for the lifetime of the service, and — since
attach goes through a picklable manifest — also keeps the door open
for spawn-based platforms where COW does not exist.

Layout: one segment, each array copied in at a 64-byte-aligned offset,
described by a :class:`PackManifest` (segment name + per-array name,
dtype, shape, offset).  Attached arrays are **read-only numpy views
over the mapped buffer** — they are valid only while the pack is open,
so the pack must outlive every view taken from it (workers keep it for
the life of the process; :meth:`SharedArrayPack.close` is called from
the service's ``close()`` on the parent copy).

Lifecycle rules (also enforced socially by ``docs/service.md``):

* the **creator** calls :meth:`SharedArrayPack.unlink` exactly once,
  after every attacher has closed — the service owns this;
* **attachers** only ever :meth:`SharedArrayPack.close`;
* no view taken via :meth:`SharedArrayPack.array` or
  :func:`attach_snapshot` may outlive its pack.
"""

from __future__ import annotations

import dataclasses
from multiprocessing import shared_memory
from typing import Dict, List, Tuple

import numpy as np

from ..data.flat import FlatDataset
from ..errors import ConfigurationError
from ..network.simulator import NetworkSimulator

__all__ = [
    "ArraySpec",
    "PackManifest",
    "SharedArrayPack",
    "SnapshotView",
    "attach_snapshot",
    "export_snapshot",
]

_ALIGN = 64

#: Key prefixes inside a snapshot pack.
_COLUMN_PREFIX = "col:"
_OFFSETS_KEY = "flat:offsets"


@dataclasses.dataclass(frozen=True)
class ArraySpec:
    """Where one array lives inside the segment."""

    name: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int


@dataclasses.dataclass(frozen=True)
class PackManifest:
    """Everything an attacher needs: segment name + array directory.

    Plain frozen dataclass of primitives, so it pickles cheaply across
    the pool's job queue (the arrays themselves never do).
    """

    segment: str
    specs: Tuple[ArraySpec, ...]
    nbytes: int


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class SharedArrayPack:
    """A directory of numpy arrays inside one shared-memory segment."""

    def __init__(
        self,
        memory: shared_memory.SharedMemory,
        manifest: PackManifest,
        *,
        owner: bool,
    ):
        self._memory = memory
        self._manifest = manifest
        self._owner = bool(owner)
        self._closed = False

    # ------------------------------------------------------------------

    @classmethod
    def export(cls, arrays: Dict[str, np.ndarray]) -> "SharedArrayPack":
        """Copy ``arrays`` into a fresh segment (the caller becomes owner)."""
        if not arrays:
            raise ConfigurationError("nothing to export")
        specs: List[ArraySpec] = []
        offset = 0
        for name, data in arrays.items():
            if data.ndim != 1:
                raise ConfigurationError(
                    f"array {name!r} must be 1-D to share (got "
                    f"{data.ndim}-D)"
                )
            offset = _aligned(offset)
            specs.append(
                ArraySpec(
                    name=name,
                    dtype=str(data.dtype),
                    shape=tuple(data.shape),
                    offset=offset,
                )
            )
            offset += data.nbytes
        memory = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        manifest = PackManifest(
            segment=memory.name, specs=tuple(specs), nbytes=offset
        )
        pack = cls(memory, manifest, owner=True)
        for spec, data in zip(specs, arrays.values()):
            target = np.ndarray(
                spec.shape,
                dtype=np.dtype(spec.dtype),
                buffer=memory.buf,
                offset=spec.offset,
            )
            target[:] = data
        return pack

    @classmethod
    def attach(cls, manifest: PackManifest) -> "SharedArrayPack":
        """Map an existing segment by its manifest (non-owning)."""
        memory = shared_memory.SharedMemory(name=manifest.segment)
        return cls(memory, manifest, owner=False)

    # ------------------------------------------------------------------

    @property
    def manifest(self) -> PackManifest:
        """The picklable attach descriptor."""
        return self._manifest  # reprolint: disable=RL008 -- frozen dataclass

    @property
    def owner(self) -> bool:
        """Whether this handle created (and must unlink) the segment."""
        return self._owner

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def array(self, name: str) -> np.ndarray:
        """Read-only view of one stored array (valid while open)."""
        if self._closed:
            raise ConfigurationError("shared-array pack is closed")
        for spec in self._manifest.specs:
            if spec.name == name:
                view: np.ndarray = np.ndarray(
                    spec.shape,
                    dtype=np.dtype(spec.dtype),
                    buffer=self._memory.buf,
                    offset=spec.offset,
                )
                view.flags.writeable = False
                return view
        known = [spec.name for spec in self._manifest.specs]
        raise ConfigurationError(f"unknown array {name!r}; have {known}")

    def arrays(self) -> Dict[str, np.ndarray]:
        """Read-only views of every stored array."""
        return {
            spec.name: self.array(spec.name)
            for spec in self._manifest.specs
        }

    def close(self) -> None:
        """Unmap the segment (idempotent).  Views die with it."""
        if self._closed:
            return
        self._closed = True
        self._memory.close()

    def unlink(self) -> None:
        """Destroy the segment; creator-only, after :meth:`close`."""
        if not self._owner:
            raise ConfigurationError(
                "only the creating process may unlink the segment"
            )
        self._memory.unlink()

    def __enter__(self) -> "SharedArrayPack":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
        if self._owner:
            self.unlink()


# ---------------------------------------------------------------------------
# Serving-snapshot packing
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class SnapshotView:
    """An attacher's handle on a packed serving snapshot."""

    pack: SharedArrayPack
    flat: FlatDataset

    def close(self) -> None:
        """Release the mapping (the flat view dies with it)."""
        self.pack.close()


def export_snapshot(simulator: NetworkSimulator) -> SharedArrayPack:
    """Pack ``simulator``'s flat columns into a segment.

    Returns the owning pack; ship ``pack.manifest`` to workers and
    have them :func:`attach_snapshot`.
    """
    flat = simulator.flat_dataset
    arrays: Dict[str, np.ndarray] = {
        _COLUMN_PREFIX + name: flat.column(name)
        for name in flat.column_names
    }
    arrays[_OFFSETS_KEY] = flat.offsets
    return SharedArrayPack.export(arrays)


def attach_snapshot(manifest: PackManifest) -> SnapshotView:
    """Map a packed snapshot and rebuild the flat view over it.

    The returned :class:`FlatDataset` is backed directly by the shared
    segment (no copies); pass it to :meth:`~repro.network.simulator.
    NetworkSimulator.adopt_flat_dataset`.
    """
    pack = SharedArrayPack.attach(manifest)
    columns = {
        spec.name[len(_COLUMN_PREFIX):]: pack.array(spec.name)
        for spec in manifest.specs
        if spec.name.startswith(_COLUMN_PREFIX)
    }
    if not columns:
        pack.close()
        raise ConfigurationError("manifest holds no flat columns")
    flat = FlatDataset(columns, pack.array(_OFFSETS_KEY))
    return SnapshotView(pack=pack, flat=flat)
