"""Topology generators (paper §5.2.1).

The paper builds two families of topologies:

* **Synthetic**: power-law sub-graphs stitched together with a
  controllable number of cut edges, generated with the Jung toolkit —
  10,000 peers and 100,000 edges, with parameters ``s`` (number of
  sub-graphs) and ``e`` (edges between sub-graphs).
  :func:`clustered_power_law` and :func:`synthetic_paper_topology`
  reproduce this.

* **Real-world**: a 2001 Gnutella crawl (22,556 peers, 52,321 edges,
  courtesy of M. Ripeanu).  That snapshot is not available offline, so
  :func:`gnutella_2001_like` *synthesizes* a topology with the
  snapshot's published shape — node/edge counts and a power-law degree
  distribution (Ripeanu et al. measured an exponent around 2.3 for the
  2001 network) on a single connected component.  The sampling
  algorithm only interacts with a topology through its degree skew and
  its mixing properties, both of which this generator reproduces; see
  DESIGN.md for the substitution rationale.

The graph under construction is a :class:`_GrowingGraph` — an
insertion-ordered adjacency, internal to this module — frozen into a
:class:`Topology` through the array door.  networkx is loaded only by
:func:`random_regular_topology`, which runs networkx's own algorithm.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .._util import SeedLike, check_positive, ensure_rng
from ..errors import ConfigurationError, TopologyError
from .topology import Topology


__all__ = [
    "TopologyConfig",
    "power_law_topology",
    "clustered_power_law",
    "subgraph_groups",
    "synthetic_paper_topology",
    "gnutella_2001_like",
    "gnutella_paper_topology",
    "random_regular_topology",
]


@dataclasses.dataclass(frozen=True)
class TopologyConfig:
    """Declarative description of a generated topology.

    Attributes
    ----------
    num_peers:
        Total number of peers ``M``.
    num_edges:
        Total number of undirected edges ``|E|`` to aim for.  The
        generators hit this count exactly whenever it is feasible for
        a simple connected graph.
    num_subgraphs:
        The paper's ``s`` parameter: number of power-law sub-graphs.
    cut_edges:
        The paper's ``e`` parameter: number of edges between
        sub-graphs.  Ignored when ``num_subgraphs == 1``.
    kind:
        ``"clustered-power-law"`` | ``"gnutella-like"`` |
        ``"power-law"`` | ``"random-regular"``.
    """

    num_peers: int = 10_000
    num_edges: int = 100_000
    num_subgraphs: int = 1
    cut_edges: int = 0
    kind: str = "clustered-power-law"

    def build(self, seed: SeedLike = None) -> Topology:
        """Generate the topology this config describes."""
        if self.kind == "clustered-power-law":
            if self.num_subgraphs <= 1:
                return power_law_topology(
                    self.num_peers, self.num_edges, seed=seed
                )
            return clustered_power_law(
                num_peers=self.num_peers,
                num_edges=self.num_edges,
                num_subgraphs=self.num_subgraphs,
                cut_edges=self.cut_edges,
                seed=seed,
            )
        if self.kind == "gnutella-like":
            return gnutella_2001_like(
                num_peers=self.num_peers, num_edges=self.num_edges, seed=seed
            )
        if self.kind == "power-law":
            return power_law_topology(self.num_peers, self.num_edges, seed=seed)
        if self.kind == "random-regular":
            degree = max(2, round(2 * self.num_edges / self.num_peers))
            return random_regular_topology(self.num_peers, degree, seed=seed)
        raise ConfigurationError(f"unknown topology kind {self.kind!r}")


class _GrowingGraph:
    """A simple graph under construction: an edge set with
    insertion-ordered iteration, and nothing else.

    Iteration order is part of every generator's output — it decides
    which draw meets which edge, and the frozen CSR's neighbour order
    is what walks index into — so it is pinned to networkx's, whose
    ``Graph`` the generators were first written against (the networkx
    build lives on as ``tests/graph_oracle.py``): nodes in insertion
    order, a node's neighbours in insertion order, an edge reported
    from whichever endpoint is iterated first.  Edges may only join
    nodes already added.
    """

    def __init__(self) -> None:
        self._adjacency: Dict[int, Dict[int, None]] = {}
        self._num_edges = 0

    def add_nodes_from(self, nodes: Iterable[int]) -> None:
        for node in nodes:
            self._adjacency.setdefault(node, {})

    def nodes(self) -> List[int]:
        return list(self._adjacency)

    def number_of_nodes(self) -> int:
        return len(self._adjacency)

    def number_of_edges(self) -> int:
        return self._num_edges

    def degree(self, node: int) -> int:
        return len(self._adjacency[node])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adjacency[u]

    def add_edge(self, u: int, v: int) -> None:
        if v not in self._adjacency[u]:
            self._adjacency[u][v] = None
            self._adjacency[v][u] = None
            self._num_edges += 1

    def remove_edge(self, u: int, v: int) -> None:
        del self._adjacency[u][v]
        del self._adjacency[v][u]
        self._num_edges -= 1

    def edges(
        self, nbunch: Optional[Iterable[int]] = None
    ) -> List[Tuple[int, int]]:
        """Every edge once — or, with ``nbunch``, every edge touching
        those nodes — each from the endpoint iterated first."""
        done: set[int] = set()
        edges = []
        for node in self._adjacency if nbunch is None else nbunch:
            for neighbor in self._adjacency[node]:
                if neighbor not in done:
                    edges.append((node, neighbor))
            done.add(node)
        return edges

    def has_path(self, source: int, target: int) -> bool:
        """Whether ``target`` is reachable from ``source``: breadth
        first from both ends, growing the smaller frontier."""
        if source == target:
            return True
        reached = {source: 0, target: 1}
        frontiers = [[source], [target]]
        while frontiers[0] and frontiers[1]:
            side = int(len(frontiers[0]) > len(frontiers[1]))
            grown = []
            for node in frontiers[side]:
                for neighbor in self._adjacency[node]:
                    owner = reached.get(neighbor)
                    if owner is None:
                        reached[neighbor] = side
                        grown.append(neighbor)
                    elif owner != side:
                        return True
            frontiers[side] = grown
        return False

    def freeze(self) -> Topology:
        """The graph as a :class:`Topology` over ``0..M-1``, edges in
        :meth:`edges` order (unique by construction, so through the
        trusted array door)."""
        pairs = np.array(self.edges(), dtype=np.int64).reshape(-1, 2)
        pairs.sort(axis=1)
        return Topology.from_edge_array(self.number_of_nodes(), pairs)


def _attach_preferentially(
    graph: _GrowingGraph,
    nodes: Sequence[int],
    edges_per_node: int,
    rng: np.random.Generator,
) -> None:
    """Grow ``graph`` over ``nodes`` with Barabási–Albert attachment.

    The first ``edges_per_node + 1`` nodes form a seed clique-ish
    chain; each later node attaches to ``edges_per_node`` distinct
    existing nodes chosen proportionally to degree (power-law tail).
    """
    nodes = list(nodes)
    graph.add_nodes_from(nodes)
    if len(nodes) < 2:
        return
    seed_size = min(len(nodes), edges_per_node + 1)
    seed_nodes = nodes[:seed_size]
    for i in range(1, seed_size):  # connected seed: a path
        graph.add_edge(seed_nodes[i - 1], seed_nodes[i])

    # Repeated-nodes trick: sampling uniformly from this list is
    # equivalent to degree-proportional sampling.
    repeated: List[int] = []
    for u, v in graph.edges(seed_nodes):
        repeated.append(u)
        repeated.append(v)
    for node in nodes[seed_size:]:
        targets = set()
        attempts = 0
        want = min(edges_per_node, graph.number_of_nodes() - 1)
        while len(targets) < want and attempts < 50 * want:
            attempts += 1
            pick = repeated[int(rng.integers(len(repeated)))]
            if pick != node:
                targets.add(pick)
        # Fallback to uniform choice if degree-sampling stalls.
        while len(targets) < want:
            pick = nodes[int(rng.integers(len(nodes)))]
            if pick != node:
                targets.add(pick)
        for target in targets:
            graph.add_edge(node, target)
            repeated.append(node)
            repeated.append(target)


def _pad_edges_to(
    graph: _GrowingGraph,
    num_edges: int,
    rng: np.random.Generator,
    within: Optional[Sequence[Sequence[int]]] = None,
) -> None:
    """Add random simple edges to ``graph`` until it has ``num_edges``.

    When ``within`` is given (a list of node groups), added edges stay
    inside groups so the cut size of a clustered topology is not
    perturbed.
    """
    max_possible = 0
    if within is None:
        n = graph.number_of_nodes()
        max_possible = n * (n - 1) // 2
    else:
        for group in within:
            g = len(group)
            max_possible += g * (g - 1) // 2
    if num_edges > max_possible:
        raise TopologyError(
            f"cannot fit {num_edges} simple edges (max {max_possible})"
        )
    groups = within if within is not None else [graph.nodes()]
    group_sizes = np.asarray([len(g) for g in groups], dtype=float)
    weights = group_sizes / group_sizes.sum()
    stalls = 0
    current_edges = graph.number_of_edges()  # tracked locally: O(E) call
    while current_edges < num_edges:
        gid = int(rng.choice(len(groups), p=weights))
        group = groups[gid]
        u = group[int(rng.integers(len(group)))]
        v = group[int(rng.integers(len(group)))]
        if u == v or graph.has_edge(u, v):
            stalls += 1
            if stalls > 200 * num_edges:  # pragma: no cover - safety valve
                raise TopologyError("edge padding stalled; graph too dense")
            continue
        graph.add_edge(u, v)
        current_edges += 1


def _trim_edges_to(
    graph: _GrowingGraph, num_edges: int, rng: np.random.Generator
) -> None:
    """Remove random edges (keeping connectivity) down to ``num_edges``."""
    edges = graph.edges()
    rng.shuffle(edges)
    for u, v in edges:
        if graph.number_of_edges() <= num_edges:
            break
        if graph.degree(u) > 1 and graph.degree(v) > 1:
            graph.remove_edge(u, v)
            # Keep connectivity: put the edge back if it was a bridge.
            if not graph.has_path(u, v):
                graph.add_edge(u, v)


def power_law_topology(
    num_peers: int,
    num_edges: int,
    seed: SeedLike = None,
) -> Topology:
    """A single connected power-law graph with exact edge count.

    Built via preferential attachment and padded/trimmed with random
    edges to hit ``num_edges`` exactly.
    """
    check_positive("num_peers", num_peers)
    check_positive("num_edges", num_edges)
    if num_edges < num_peers - 1:
        raise TopologyError(
            f"{num_edges} edges cannot connect {num_peers} peers"
        )
    rng = ensure_rng(seed)
    edges_per_node = max(1, num_edges // max(num_peers, 1))
    graph = _GrowingGraph()
    _attach_preferentially(graph, range(num_peers), edges_per_node, rng)
    if graph.number_of_edges() < num_edges:
        _pad_edges_to(graph, num_edges, rng)
    elif graph.number_of_edges() > num_edges:
        _trim_edges_to(graph, num_edges, rng)
    return graph.freeze()


def clustered_power_law(
    num_peers: int,
    num_edges: int,
    num_subgraphs: int,
    cut_edges: int,
    seed: SeedLike = None,
) -> Topology:
    """The paper's synthetic topology: ``s`` power-law sub-graphs.

    ``cut_edges`` edges run between sub-graphs (the paper's ``e``
    parameter, controlling the cut size that Figure 12 sweeps); the
    remaining ``num_edges - cut_edges`` edges live inside sub-graphs.
    Sub-graphs are connected in a ring by the first ``num_subgraphs``
    cut edges so the overall graph is connected even for tiny cuts.

    Returns a topology whose first ``num_peers/s`` ids belong to
    sub-graph 0, the next to sub-graph 1, and so on — experiments use
    :meth:`Topology.subgraph_labels` with :func:`subgraph_groups` to
    recover the partition.
    """
    check_positive("num_peers", num_peers)
    check_positive("num_edges", num_edges)
    if num_subgraphs < 2:
        raise ConfigurationError("clustered_power_law needs >= 2 sub-graphs")
    if cut_edges < num_subgraphs:
        raise ConfigurationError(
            f"need at least {num_subgraphs} cut edges (a ring) to stay "
            f"connected, got {cut_edges}"
        )
    groups = subgraph_groups(num_peers, num_subgraphs)
    internal_edges = num_edges - cut_edges
    min_internal = sum(max(0, len(g) - 1) for g in groups)
    if internal_edges < min_internal:
        raise TopologyError(
            f"{internal_edges} internal edges cannot connect the "
            f"sub-graphs internally (need {min_internal})"
        )
    rng = ensure_rng(seed)
    graph = _GrowingGraph()
    per_node = max(1, internal_edges // max(num_peers, 1))
    for group in groups:
        _attach_preferentially(graph, group, per_node, rng)

    # Ring of cut edges guaranteeing inter-cluster connectivity.
    added_cut = 0
    for gid in range(num_subgraphs):
        u = groups[gid][int(rng.integers(len(groups[gid])))]
        nxt = groups[(gid + 1) % num_subgraphs]
        v = nxt[int(rng.integers(len(nxt)))]
        if not graph.has_edge(u, v):
            graph.add_edge(u, v)
            added_cut += 1
    # Remaining cut edges between uniformly random distinct sub-graphs.
    stalls = 0
    while added_cut < cut_edges:
        ga, gb = rng.choice(num_subgraphs, size=2, replace=False)
        u = groups[ga][int(rng.integers(len(groups[ga])))]
        v = groups[gb][int(rng.integers(len(groups[gb])))]
        if graph.has_edge(u, v):
            stalls += 1
            if stalls > 200 * cut_edges:
                raise TopologyError(
                    "cut edge generation stalled; cut too large for groups"
                )
            continue
        graph.add_edge(u, v)
        added_cut += 1

    if graph.number_of_edges() < num_edges:
        _pad_edges_to(graph, num_edges, rng, within=groups)
    elif graph.number_of_edges() > num_edges:
        raise TopologyError(
            "generated more edges than requested; lower cut_edges or "
            "raise num_edges"
        )
    return graph.freeze()


def subgraph_groups(num_peers: int, num_subgraphs: int) -> List[List[int]]:
    """Contiguous peer-id groups used by :func:`clustered_power_law`."""
    if num_subgraphs <= 0:
        raise ConfigurationError("num_subgraphs must be positive")
    if num_subgraphs > num_peers:
        raise ConfigurationError("more sub-graphs than peers")
    base = num_peers // num_subgraphs
    extra = num_peers % num_subgraphs
    groups: List[List[int]] = []
    start = 0
    for gid in range(num_subgraphs):
        size = base + (1 if gid < extra else 0)
        groups.append(list(range(start, start + size)))
        start += size
    return groups


def synthetic_paper_topology(
    seed: SeedLike = None,
    scale: float = 1.0,
    num_subgraphs: int = 1,
    cut_edges: int = 0,
) -> Topology:
    """The paper's synthetic topology: 10,000 peers, 100,000 edges.

    ``scale`` shrinks both counts proportionally for fast test and
    bench runs (``scale=1.0`` is paper size).
    """
    check_positive("scale", scale)
    num_peers = max(50, round(10_000 * scale))
    num_edges = max(num_peers, round(100_000 * scale))
    config = TopologyConfig(
        num_peers=num_peers,
        num_edges=num_edges,
        num_subgraphs=num_subgraphs,
        cut_edges=cut_edges,
        kind="clustered-power-law",
    )
    return config.build(seed=seed)


def gnutella_2001_like(
    num_peers: int = 22_556,
    num_edges: int = 52_321,
    seed: SeedLike = None,
) -> Topology:
    """A topology with the shape of the 2001 Gnutella crawl.

    Defaults match the snapshot the paper used (22,556 peers, 52,321
    edges).  Average degree is ~4.6, so the graph is built with
    preferential attachment at ``m=2`` and padded with random edges to
    the exact edge count; the result has the heavy-tailed degrees and
    the relatively weak expansion of the measured network.
    """
    check_positive("num_peers", num_peers)
    if num_edges < num_peers - 1:
        raise TopologyError(
            f"{num_edges} edges cannot connect {num_peers} peers"
        )
    rng = ensure_rng(seed)
    graph = _GrowingGraph()
    _attach_preferentially(graph, range(num_peers), 2, rng)
    if graph.number_of_edges() > num_edges:
        _trim_edges_to(graph, num_edges, rng)
    else:
        _pad_edges_to(graph, num_edges, rng)
    return graph.freeze()


def gnutella_paper_topology(seed: SeedLike = None, scale: float = 1.0) -> Topology:
    """Scaled Gnutella-like topology (``scale=1.0`` = the 2001 crawl)."""
    check_positive("scale", scale)
    num_peers = max(50, round(22_556 * scale))
    num_edges = max(num_peers, round(52_321 * scale))
    return gnutella_2001_like(num_peers=num_peers, num_edges=num_edges, seed=seed)


def random_regular_topology(
    num_peers: int, degree: int, seed: SeedLike = None
) -> Topology:
    """A connected random ``degree``-regular graph.

    Regular graphs make the stationary distribution uniform, which the
    test suite uses to isolate estimator behaviour from degree skew.
    """
    check_positive("num_peers", num_peers)
    check_positive("degree", degree)
    if degree >= num_peers:
        raise TopologyError("degree must be < num_peers")
    if (num_peers * degree) % 2 != 0:
        raise TopologyError("num_peers * degree must be even")
    import networkx as nx

    # networkx consumes the Generator directly, so retries continue the
    # stream instead of re-seeding a fresh PRNG per attempt.
    rng = ensure_rng(seed)
    for attempt in range(20):
        graph = nx.random_regular_graph(degree, num_peers, seed=rng)
        if nx.is_connected(graph):
            return Topology.from_networkx(graph)
    raise TopologyError(
        f"could not generate a connected {degree}-regular graph"
    )  # pragma: no cover - vanishingly unlikely for sane params
