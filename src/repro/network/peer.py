"""Peer identity and capability model (paper §3.1).

The paper characterizes each peer ``p`` by the address ``(IP_p, port_p)``
and a capability vector: CPU speed ``p_cpu``, memory bandwidth
``p_mem``, disk space ``p_disk``, network bandwidth ``p_band`` and the
connection budget ``p_conn``.  These attributes do not influence the
*statistics* of the sampling algorithm.  The simulator reads
``cpu_speed`` (the cost ledger's latency model: a slow peer takes
longer to execute its local query) and ``ip`` / ``port`` (a ``Pong``
carries them); the other four capabilities are descriptive — nothing
bounds a database by ``disk_space`` or a join by ``max_connections``.
A network holds its peers as a :class:`PeerTable` of columns and
builds a :class:`Peer` when somebody asks for one.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Iterator, Sequence, Tuple

import numpy as np
from numpy.typing import ArrayLike

from .._util import SeedLike, ensure_rng, readonly_view, seed_sequence
from ..errors import ConfigurationError


__all__ = [
    "PeerCapabilities",
    "random_capabilities",
    "Peer",
    "synthesize_peer",
    "PeerTable",
]


@dataclasses.dataclass(frozen=True)
class PeerCapabilities:
    """Resource capabilities of a peer.

    Attributes
    ----------
    cpu_speed:
        Relative CPU speed; 1.0 is the reference machine.  Local query
        execution time scales inversely with this.
    memory_bandwidth:
        Relative memory bandwidth (reserved for future cost models).
    disk_space:
        Disk capacity in tuples (descriptive).
    network_bandwidth:
        Uplink bandwidth in bytes per simulated millisecond
        (descriptive).
    max_connections:
        The connection budget ``p_conn`` (descriptive).
    """

    cpu_speed: float = 1.0
    memory_bandwidth: float = 1.0
    disk_space: int = 1_000_000
    network_bandwidth: float = 128.0
    max_connections: int = 32

    def __post_init__(self) -> None:
        if self.cpu_speed <= 0:
            raise ConfigurationError("cpu_speed must be positive")
        if self.memory_bandwidth <= 0:
            raise ConfigurationError("memory_bandwidth must be positive")
        if self.disk_space < 0:
            raise ConfigurationError("disk_space must be non-negative")
        if self.network_bandwidth <= 0:
            raise ConfigurationError("network_bandwidth must be positive")
        if self.max_connections < 1:
            raise ConfigurationError("max_connections must be at least 1")


#: A :class:`PeerTable` has one column per capability, in field order.
_FIELDS = dataclasses.fields(PeerCapabilities)

#: How :meth:`PeerTable.synthesize` draws ``n`` rows of each column.
_DRAWS: Dict[str, Callable[[np.random.Generator, int], np.ndarray]] = {
    "cpu_speed": lambda rng, n: rng.lognormal(0.0, 0.35, n),
    "memory_bandwidth": lambda rng, n: rng.lognormal(0.0, 0.25, n),
    "disk_space": lambda rng, n: rng.integers(100_000, 2_000_000, n),
    "network_bandwidth": lambda rng, n: rng.lognormal(4.8, 0.6, n),
    "max_connections": lambda rng, n: rng.integers(8, 64, n),
}


def random_capabilities(seed: SeedLike = None) -> PeerCapabilities:
    """Draw a heterogeneous capability vector: row 0 of the
    :class:`PeerTable` synthesized from ``seed``."""
    return PeerTable.synthesize([0], seed)[0].capabilities


@dataclasses.dataclass(frozen=True)
class Peer:
    """A peer's identity: index in the topology plus (IP, port).

    The integer ``peer_id`` is the canonical identity used throughout
    the library (topology vertices, walk traces, message routing); the
    IP/port pair exists so examples and the protocol layer can render
    realistic addresses, exactly as the paper describes peers being
    identified.
    """

    peer_id: int
    ip: str
    port: int
    capabilities: PeerCapabilities = dataclasses.field(
        default_factory=PeerCapabilities
    )

    def __post_init__(self) -> None:
        if self.peer_id < 0:
            raise ConfigurationError("peer_id must be non-negative")
        if not 0 < self.port < 65536:
            raise ConfigurationError(f"port out of range: {self.port}")

    @property
    def address(self) -> Tuple[str, int]:
        """The ``(IP, port)`` pair identifying this peer on the wire."""
        return (self.ip, self.port)

    def __str__(self) -> str:
        return f"peer#{self.peer_id}@{self.ip}:{self.port}"


def _synthetic_address(peer_id: int) -> Tuple[str, int]:
    """The fake ``(IP, port)`` of ``peer_id``: ``10.x.y.z`` from the
    id's low three bytes, ports from 6346 (the classic Gnutella port)."""
    octets = (peer_id >> 16) & 0xFF, (peer_id >> 8) & 0xFF, peer_id & 0xFF
    return "10.%d.%d.%d" % octets, 6346 + (peer_id % 1024)


def synthesize_peer(peer_id: int, seed: SeedLike = None) -> Peer:
    """Create a peer with a deterministic fake address for ``peer_id``.

    The address is derived from the id (so it is stable across runs)
    while capabilities are drawn from ``seed``.
    """
    ip, port = _synthetic_address(peer_id)
    return Peer(
        peer_id=peer_id,
        ip=ip,
        port=port,
        capabilities=random_capabilities(seed),
    )


class PeerTable:
    """A network's peers as columns: one read-only array per
    :class:`PeerCapabilities` field (``capabilities``, in field
    order), a row per peer, and the row's address — the id a synthetic
    address derives from (``addresses`` an integer array) or an
    explicit ``(ip, port)`` pair (an object array).  A synthesized
    table draws each column on its first read (:meth:`synthesize`).

    ``table[i]`` builds peer ``i`` (``peer_id == i``) from row ``i`` —
    a real :class:`Peer`, so its validation runs — and nothing keeps
    it: two reads are equal, not identical.
    """

    cpu_speed: np.ndarray
    memory_bandwidth: np.ndarray
    disk_space: np.ndarray
    network_bandwidth: np.ndarray
    max_connections: np.ndarray
    _children: Dict[str, np.random.SeedSequence]  # synthesized tables only

    def __init__(
        self, capabilities: Sequence[ArrayLike], addresses: ArrayLike
    ):
        self._addresses = readonly_view(np.asarray(addresses))
        columns = [
            readonly_view(np.asarray(data, dtype=field.type))
            for field, data in zip(_FIELDS, capabilities)
        ]
        shapes = [column.shape for column in columns]
        if (
            len(capabilities) != len(_FIELDS)
            or self._addresses.ndim != 1
            or shapes != [self._addresses.shape] * len(_FIELDS)
        ):
            raise ConfigurationError(
                f"{len(capabilities)} capability columns of shapes {shapes} "
                f"for addresses of shape {self._addresses.shape}"
            )
        for field, column in zip(_FIELDS, columns):
            setattr(self, field.name, column)

    @classmethod
    def synthesize(cls, rows: ArrayLike, seed: SeedLike = None) -> "PeerTable":
        """Rows ``rows`` of the endless heterogeneous table under
        ``seed``; a row's address derives from its id.

        Column ``k`` is **one array draw from the ``k``-th child of
        ``seed``** — CPU speed and bandwidths log-normal around the
        reference peer, a reasonable stand-in for the heterogeneity
        observed in deployed Gnutella networks.  A generator per
        column makes row ``i`` independent of how many rows are drawn,
        so a peer whose id persists (a churn label) keeps its row
        whoever else joins or leaves, and a column can be drawn when it
        is first read: ``seed`` is consumed here, the draws are not.
        """
        rows = np.array(rows, dtype=np.int64)
        if rows.size and rows.min() < 0:
            raise ConfigurationError("peer table rows must be non-negative")
        table = cls.__new__(cls)  # no columns yet: see __getattr__
        table._addresses = readonly_view(rows)
        table._children = dict(zip(_DRAWS, seed_sequence(seed).spawn(5)))
        return table

    def __getattr__(self, name: str) -> np.ndarray:
        # A synthesized table's column is missing until its first read.
        if name not in _DRAWS or "_children" not in vars(self):
            raise AttributeError(name)
        setattr(self, name, self._draw(name))
        return vars(self)[name]

    def _draw(self, name: str) -> np.ndarray:
        """Column ``name`` of a synthesized table: one array draw, up to
        the largest row, from a fresh generator over the column's child
        seed — the same array whoever reads it first."""
        rng = ensure_rng(self._children[name])
        drawn = int(self._addresses.max(initial=-1)) + 1
        return readonly_view(_DRAWS[name](rng, drawn)[self._addresses])

    @classmethod
    def from_peers(cls, peers: Sequence[Peer]) -> "PeerTable":
        """The table of explicit identities, ``ip`` / ``port`` kept;
        ``peers[i]`` must be peer ``i``."""
        for index, peer in enumerate(peers):
            if peer.peer_id != index:
                raise ConfigurationError(
                    f"peers[{index}] has peer_id {peer.peer_id}, "
                    f"expected {index}"
                )
        return cls(
            [
                [getattr(peer.capabilities, field.name) for peer in peers]
                for field in _FIELDS
            ],
            np.fromiter(
                ((peer.ip, peer.port) for peer in peers), object, len(peers)
            ),
        )

    def __reduce__(self) -> Tuple[type, Tuple[Any, ...]]:
        # Through the constructor: an un-pickled table is read-only too.
        columns = [getattr(self, field.name) for field in _FIELDS]
        return PeerTable, (columns, self._addresses)

    def __len__(self) -> int:
        return int(self._addresses.size)

    def __getitem__(self, index: int) -> Peer:
        if not 0 <= index < len(self):
            raise IndexError(f"peer {index} not in [0, {len(self)})")
        address = self._addresses[index]
        ip, port = (
            address
            if isinstance(address, tuple)
            else _synthetic_address(int(address))
        )
        row = (getattr(self, field.name)[index].item() for field in _FIELDS)
        return Peer(int(index), ip, port, PeerCapabilities(*row))

    def __iter__(self) -> Iterator[Peer]:
        return (self[index] for index in range(len(self)))
