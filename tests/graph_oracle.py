"""Reference networkx graph builders — the oracle the generators'
own adjacency is compared against (``tests/test_network_generators.py``).

This is the product's former construction path, moved here verbatim
when :mod:`repro.network.generators` stopped building its graphs as
``networkx.Graph`` objects: preferential attachment, edge padding and
connectivity-preserving trimming over an ``nx.Graph``, frozen through
``Topology.from_networkx`` (per-edge validation included).  The
product's ``_GrowingGraph`` must reproduce networkx's iteration order
— nodes in insertion order, a node's neighbours in insertion order, an
edge reported from the endpoint iterated first, a removed-and-restored
bridge moving to the end of both neighbour lists — because that order
decides which draw meets which edge and is the frozen CSR's neighbour
order.  Same arguments, same seed => same ``edge_array``.  Keep it
dumb; it exists to be obviously right, not fast or small.
"""

from typing import List, Optional, Sequence

import networkx as nx
import numpy as np

from repro._util import SeedLike, check_positive, ensure_rng
from repro.errors import ConfigurationError, TopologyError
from repro.network.generators import subgraph_groups
from repro.network.topology import Topology


def _attach_preferentially(
    graph: nx.Graph,
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
    if len(nodes) < 2:
        if nodes:
            graph.add_node(nodes[0])
        return
    seed_size = min(len(nodes), edges_per_node + 1)
    seed_nodes = nodes[:seed_size]
    graph.add_nodes_from(nodes)
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
            if pick != node and graph.has_node(pick):
                targets.add(pick)
        for target in targets:
            graph.add_edge(node, target)
            repeated.append(node)
            repeated.append(target)


def _pad_edges_to(
    graph: nx.Graph,
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
    groups = within if within is not None else [list(graph.nodes())]
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
    graph: nx.Graph, num_edges: int, rng: np.random.Generator
) -> None:
    """Remove random edges (keeping connectivity) down to ``num_edges``."""
    edges = list(graph.edges())
    rng.shuffle(edges)
    for u, v in edges:
        if graph.number_of_edges() <= num_edges:
            break
        if graph.degree(u) > 1 and graph.degree(v) > 1:
            graph.remove_edge(u, v)
            # Keep connectivity: put the edge back if it was a bridge.
            if not nx.has_path(graph, u, v):
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
    graph = nx.Graph()
    _attach_preferentially(graph, range(num_peers), edges_per_node, rng)
    if graph.number_of_edges() < num_edges:
        _pad_edges_to(graph, num_edges, rng)
    elif graph.number_of_edges() > num_edges:
        _trim_edges_to(graph, num_edges, rng)
    return Topology.from_networkx(graph)


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
    graph = nx.Graph()
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
    return Topology.from_networkx(graph)


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
    graph = nx.Graph()
    _attach_preferentially(graph, range(num_peers), 2, rng)
    if graph.number_of_edges() > num_edges:
        _trim_edges_to(graph, num_edges, rng)
    else:
        _pad_edges_to(graph, num_edges, rng)
    return Topology.from_networkx(graph)
