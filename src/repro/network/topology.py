"""The unstructured P2P connection graph (paper §3.1, §3.3).

:class:`Topology` is an immutable snapshot of the graph ``G = (P, E)``
optimized for the operations the sampling algorithm needs:

* O(1) neighbor slicing via a CSR (compressed sparse row) layout, the
  hot path of the random walk;
* degrees and the stationary distribution
  ``prob(p) = deg(p) / (2|E|)`` of the natural random walk (§3.3);
* BFS orderings (used both by the data-placement substrate and by the
  BFS baseline sampler);
* conversion from/to :mod:`networkx` for churn and analysis
  (networkx is imported by :meth:`Topology.to_networkx`, not by this
  module: building, freezing and walking a topology never load it).

Mutable network dynamics (churn) work on networkx graphs and re-freeze
into new ``Topology`` snapshots; the sampling algorithms themselves
always run against a snapshot, mirroring the paper's assumption that
the topology changes slowly relative to query execution.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Iterable,
    Iterator,
    List,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..errors import TopologyError

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "Topology",
]


def _checked_edges(
    num_peers: int, edges: Union[np.ndarray, Iterable[Tuple[int, int]]]
) -> np.ndarray:
    """``edges`` as a fresh ``(E, 2)`` array of ``u < v`` pairs, order kept.

    The first edge (in the given order) that is a self-loop, names a
    peer outside ``0..num_peers-1`` or repeats an earlier edge raises
    :class:`TopologyError` — checked in array passes, reported as the
    per-edge loop would.
    """
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    given = np.asarray(edges, dtype=np.int64)
    if given.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if given.ndim != 2 or given.shape[1] != 2:
        raise TopologyError(
            f"edges must be (u, v) pairs, got an array of shape {given.shape}"
        )
    pairs = np.sort(given, axis=1)
    loops = pairs[:, 0] == pairs[:, 1]
    outside = (pairs[:, 0] < 0) | (pairs[:, 1] >= num_peers)
    repeated = np.ones(len(pairs), dtype=bool)
    repeated[np.unique(pairs, axis=0, return_index=True)[1]] = False
    bad = loops | outside | repeated
    if bad.any():
        first = int(bad.argmax())
        u, v = given[first].tolist()
        if loops[first]:
            raise TopologyError(f"self-loop edge ({u}, {v}) not allowed")
        if outside[first]:
            raise TopologyError(
                f"edge ({u}, {v}) out of range for {num_peers} peers"
            )
        raise TopologyError(f"duplicate edge ({u}, {v})")
    return pairs


class Topology:
    """Immutable undirected graph over peers ``0..num_peers-1``.

    Parameters
    ----------
    num_peers:
        Number of vertices ``M``.
    edges:
        Iterable of ``(u, v)`` pairs, or an ``(E, 2)`` integer array.
        Self-loops and duplicate edges are rejected: the paper's graph
        is a simple graph, and walk self-loops are a *walker* option,
        not a graph feature.
    """

    def __init__(
        self,
        num_peers: int,
        edges: Union[np.ndarray, Iterable[Tuple[int, int]]],
    ):
        if num_peers <= 0:
            raise TopologyError(f"num_peers must be positive, got {num_peers}")
        self._num_peers = num_peers
        self._edges = _checked_edges(num_peers, edges)
        self._build_csr()

    def _build_csr(self) -> None:
        m = self._num_peers
        if self._edges.size:
            sources = np.concatenate([self._edges[:, 0], self._edges[:, 1]])
            targets = np.concatenate([self._edges[:, 1], self._edges[:, 0]])
        else:
            sources = np.empty(0, dtype=np.int64)
            targets = np.empty(0, dtype=np.int64)
        order = np.argsort(sources, kind="stable")
        sorted_sources = sources[order]
        self._indices = targets[order]
        counts = np.bincount(sorted_sources, minlength=m)
        self._indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(counts, out=self._indptr[1:])
        self._degrees = counts.astype(np.int64)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def num_peers(self) -> int:
        """Number of vertices ``M``."""
        return self._num_peers

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|``."""
        return int(self._edges.shape[0])

    @property
    def degrees(self) -> np.ndarray:
        """Degree of every peer (read-only view)."""
        view = self._degrees.view()
        view.flags.writeable = False
        return view

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointers (read-only view); for walker hot paths."""
        view = self._indptr.view()
        view.flags.writeable = False
        return view

    @property
    def indices(self) -> np.ndarray:
        """CSR column indices (read-only view); for walker hot paths."""
        view = self._indices.view()
        view.flags.writeable = False
        return view

    def degree(self, peer: int) -> int:
        """Degree of ``peer``."""
        self._check_peer(peer)
        return int(self._degrees[peer])

    def neighbors(self, peer: int) -> np.ndarray:
        """Neighbor ids of ``peer`` as a read-only array slice."""
        self._check_peer(peer)
        view = self._indices[self._indptr[peer]: self._indptr[peer + 1]]
        view = view.view()
        view.flags.writeable = False
        return view

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over undirected edges as ``(u, v)`` with ``u < v``."""
        for u, v in self._edges:
            yield int(u), int(v)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` are directly connected."""
        self._check_peer(u)
        self._check_peer(v)
        return bool(np.any(self.neighbors(u) == v))

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self._num_peers:
            raise TopologyError(
                f"peer {peer} out of range [0, {self._num_peers})"
            )

    def __len__(self) -> int:
        return self._num_peers

    def __repr__(self) -> str:
        return (
            f"Topology(num_peers={self.num_peers}, "
            f"num_edges={self.num_edges})"
        )

    # ------------------------------------------------------------------
    # Stationary distribution (paper §3.3)
    # ------------------------------------------------------------------

    def stationary_distribution(self) -> np.ndarray:
        """``prob(p) = deg(p) / (2 |E|)`` for every peer.

        This is the stationary distribution of the natural (uniform
        neighbor) random walk, the distribution phase-I samples are
        drawn from and that the estimator must divide out.
        """
        if self.num_edges == 0:
            raise TopologyError("stationary distribution of an edgeless graph")
        return self._degrees / (2.0 * self.num_edges)

    def stationary_probability(self, peer: int) -> float:
        """Stationary probability of a single peer."""
        self._check_peer(peer)
        if self.num_edges == 0:
            raise TopologyError("stationary distribution of an edgeless graph")
        return float(self._degrees[peer]) / (2.0 * self.num_edges)

    # ------------------------------------------------------------------
    # Traversals
    # ------------------------------------------------------------------

    def bfs_order(self, source: int) -> List[int]:
        """Breadth-first visit order from ``source``.

        Only the component containing ``source`` is returned.  Used by
        the data placement substrate (§5.2.2, "distributed the data in
        a breadth-first method") and the BFS baseline sampler.
        """
        self._check_peer(source)
        visited = np.zeros(self._num_peers, dtype=bool)
        order: List[int] = []
        frontier = [source]
        visited[source] = True
        while frontier:
            next_frontier: List[int] = []
            for node in frontier:
                order.append(node)
                for nbr in self.neighbors(node):
                    nbr = int(nbr)
                    if not visited[nbr]:
                        visited[nbr] = True
                        next_frontier.append(nbr)
            frontier = next_frontier
        return order

    def connected_components(self) -> List[List[int]]:
        """All connected components, each as a sorted list of peers."""
        remaining = np.ones(self._num_peers, dtype=bool)
        components: List[List[int]] = []
        for start in range(self._num_peers):
            if not remaining[start]:
                continue
            component = self.bfs_order(start)
            for node in component:
                remaining[node] = False
            components.append(sorted(component))
        return components

    def is_connected(self) -> bool:
        """Whether the graph is a single connected component."""
        if self._num_peers == 1:
            return True
        return len(self.bfs_order(0)) == self._num_peers

    def giant_component(self) -> List[int]:
        """Peers in the largest connected component (sorted)."""
        return max(self.connected_components(), key=len)

    # ------------------------------------------------------------------
    # Cut analysis (for Figure 12-style clustered topologies)
    # ------------------------------------------------------------------

    def cut_size(self, group: Sequence[int]) -> int:
        """Number of edges crossing between ``group`` and its complement."""
        membership = np.zeros(self._num_peers, dtype=bool)
        for peer in group:
            self._check_peer(peer)
            membership[peer] = True
        crossing = membership[self._edges[:, 0]] != membership[self._edges[:, 1]]
        return int(np.count_nonzero(crossing))

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------

    @property
    def edge_array(self) -> np.ndarray:
        """The normalized ``(E, 2)`` edge array in insertion order
        (read-only view).  Round-trips through
        :meth:`from_edge_array` to an identical topology — including
        CSR neighbor order, which the walkers' rng draws depend on."""
        view = self._edges.view()
        view.flags.writeable = False
        return view

    @classmethod
    def from_edge_array(cls, num_peers: int, edges: np.ndarray) -> "Topology":
        """Rebuild a topology from a trusted normalized edge array.

        ``edges`` must come from a prior topology's :attr:`edge_array`
        (or equivalent: ``u < v`` pairs, no duplicates, in the original
        insertion order); per-edge validation is skipped, so the CSR —
        and every walk over it — is bit-identical to the source
        topology.  Used by the experiment harness's on-disk topology
        cache.
        """
        if num_peers <= 0:
            raise TopologyError(f"num_peers must be positive, got {num_peers}")
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= num_peers):
            raise TopologyError("edge array out of range")
        topology = cls.__new__(cls)
        topology._num_peers = int(num_peers)
        topology._edges = edges.copy()
        topology._build_csr()
        return topology

    @classmethod
    def from_networkx(cls, graph: "nx.Graph") -> "Topology":
        """Freeze a networkx graph into a :class:`Topology`.

        Nodes are relabeled to ``0..M-1`` in sorted node order; self
        loops are dropped (they are a walker option here, not a graph
        feature).
        """
        nodes = sorted(graph.nodes())
        relabel = {node: i for i, node in enumerate(nodes)}
        edges = [
            (relabel[u], relabel[v])
            for u, v in graph.edges()
            if u != v
        ]
        return cls(num_peers=len(nodes), edges=edges)

    def to_networkx(self) -> "nx.Graph":
        """Materialize the topology as a networkx graph."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self._num_peers))
        graph.add_edges_from(self.edges())
        return graph

    def subgraph_labels(self, groups: Sequence[Sequence[int]]) -> np.ndarray:
        """Label array mapping each peer to its group index, -1 if none.

        Convenience for experiments on clustered topologies (Figure 12).
        """
        labels = np.full(self._num_peers, -1, dtype=np.int64)
        for gid, group in enumerate(groups):
            for peer in group:
                self._check_peer(peer)
                labels[peer] = gid
        return labels
