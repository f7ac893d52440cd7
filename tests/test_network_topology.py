"""Unit tests for repro.network.topology."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.network.topology import Topology


class TestConstruction:
    def test_basic(self, tiny_topology):
        assert tiny_topology.num_peers == 5
        assert tiny_topology.num_edges == 5

    def test_len(self, tiny_topology):
        assert len(tiny_topology) == 5

    def test_repr(self, tiny_topology):
        assert "num_peers=5" in repr(tiny_topology)

    def test_zero_peers_rejected(self):
        with pytest.raises(TopologyError):
            Topology(0, [])

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError, match="self-loop"):
            Topology(3, [(0, 0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(TopologyError, match="duplicate"):
            Topology(3, [(0, 1), (1, 0)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(TopologyError, match="out of range"):
            Topology(3, [(0, 5)])

    def test_edgeless_graph_allowed(self):
        topology = Topology(3, [])
        assert topology.num_edges == 0
        assert topology.degree(0) == 0

    def test_edge_array_accepted(self):
        edges = np.array([[2, 0], [1, 2]])
        topology = Topology(3, edges)
        assert list(topology.edges()) == [(0, 2), (1, 2)]
        edges[0] = (1, 0)  # the topology copied what it was given
        assert list(topology.edges()) == [(0, 2), (1, 2)]

    def test_not_pairs_rejected(self):
        with pytest.raises(TopologyError, match="pairs"):
            Topology(4, np.arange(6).reshape(2, 3))


def _loop_validation(num_peers, edges):
    """The per-edge loop ``Topology.__init__`` used to run, kept as the
    reference for the array passes that replaced it: the normalised
    edge list, or the error text for the first offending edge."""
    seen = set()
    for u, v in edges:
        if u == v:
            return f"self-loop edge ({u}, {v}) not allowed"
        if not (0 <= u < num_peers and 0 <= v < num_peers):
            return f"edge ({u}, {v}) out of range for {num_peers} peers"
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return f"duplicate edge ({u}, {v})"
        seen.add(key)
    return [(min(edge), max(edge)) for edge in edges]


class TestFirstOffender:
    """Validation is array passes; what it reports is still the first
    bad edge in the given order, self-loop before range before
    duplicate, in the loop's words."""

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1), (2, 2), (0, 1)], "self-loop edge (2, 2) not allowed"),
            ([(0, 1), (7, 7)], "self-loop edge (7, 7) not allowed"),
            ([(1, 0), (3, 1), (0, 1)], "edge (3, 1) out of range for 3 peers"),
            ([(0, -1)], "edge (0, -1) out of range for 3 peers"),
            ([(0, 1), (1, 2), (1, 0), (2, 1)], "duplicate edge (1, 0)"),
        ],
    )
    @pytest.mark.parametrize("as_array", [False, True])
    def test_message_names_the_first_offender(self, edges, message, as_array):
        given_edges = np.array(edges) if as_array else iter(edges)
        with pytest.raises(TopologyError) as raised:
            Topology(3, given_edges)
        assert str(raised.value) == message

    @settings(max_examples=200, deadline=None)
    @given(
        num_peers=st.integers(1, 6),
        edges=st.lists(
            st.tuples(st.integers(-1, 6), st.integers(-1, 6)), max_size=12
        ),
    )
    def test_array_passes_equal_the_loop(self, num_peers, edges):
        expected = _loop_validation(num_peers, edges)
        if isinstance(expected, str):
            with pytest.raises(TopologyError) as raised:
                Topology(num_peers, edges)
            assert str(raised.value) == expected
        else:
            assert list(Topology(num_peers, edges).edges()) == expected


class TestDegrees:
    def test_degrees_match_construction(self, tiny_topology):
        np.testing.assert_array_equal(
            tiny_topology.degrees, [2, 2, 3, 2, 1]
        )

    def test_degree_scalar(self, tiny_topology):
        assert tiny_topology.degree(2) == 3

    def test_degree_out_of_range(self, tiny_topology):
        with pytest.raises(TopologyError):
            tiny_topology.degree(99)

    def test_degrees_readonly(self, tiny_topology):
        with pytest.raises(ValueError):
            tiny_topology.degrees[0] = 99

    def test_degree_sum_is_twice_edges(self, small_topology):
        assert small_topology.degrees.sum() == 2 * small_topology.num_edges


class TestNeighbors:
    def test_neighbors_of_hub(self, tiny_topology):
        assert sorted(tiny_topology.neighbors(2).tolist()) == [0, 1, 3]

    def test_neighbors_of_leaf(self, tiny_topology):
        assert tiny_topology.neighbors(4).tolist() == [3]

    def test_has_edge(self, tiny_topology):
        assert tiny_topology.has_edge(0, 1)
        assert tiny_topology.has_edge(1, 0)
        assert not tiny_topology.has_edge(0, 4)

    def test_edges_iteration_normalized(self, tiny_topology):
        for u, v in tiny_topology.edges():
            assert u < v

    def test_edges_count(self, tiny_topology):
        assert len(list(tiny_topology.edges())) == 5

    def test_csr_views_readonly(self, tiny_topology):
        with pytest.raises(ValueError):
            tiny_topology.indptr[0] = 1
        with pytest.raises(ValueError):
            tiny_topology.indices[0] = 1


class TestStationaryDistribution:
    def test_values(self, tiny_topology):
        pi = tiny_topology.stationary_distribution()
        np.testing.assert_allclose(
            pi, np.array([2, 2, 3, 2, 1]) / 10.0
        )

    def test_sums_to_one(self, small_topology):
        assert small_topology.stationary_distribution().sum() == (
            pytest.approx(1.0)
        )

    def test_single_peer_probability(self, tiny_topology):
        assert tiny_topology.stationary_probability(2) == pytest.approx(0.3)

    def test_edgeless_raises(self):
        with pytest.raises(TopologyError):
            Topology(2, []).stationary_distribution()

    def test_uniform_on_regular_graph(self, regular_topology):
        pi = regular_topology.stationary_distribution()
        np.testing.assert_allclose(pi, 1.0 / regular_topology.num_peers)


class TestTraversals:
    def test_bfs_starts_at_source(self, tiny_topology):
        assert tiny_topology.bfs_order(0)[0] == 0

    def test_bfs_covers_component(self, tiny_topology):
        assert sorted(tiny_topology.bfs_order(0)) == [0, 1, 2, 3, 4]

    def test_bfs_level_order(self, tiny_topology):
        order = tiny_topology.bfs_order(4)
        assert order[:2] == [4, 3]  # depth 0, then depth 1

    def test_bfs_partial_component(self):
        topology = Topology(4, [(0, 1), (2, 3)])
        assert sorted(topology.bfs_order(0)) == [0, 1]

    def test_connected_components(self):
        topology = Topology(5, [(0, 1), (2, 3)])
        components = topology.connected_components()
        assert sorted(map(tuple, components)) == [(0, 1), (2, 3), (4,)]

    def test_is_connected_true(self, tiny_topology):
        assert tiny_topology.is_connected()

    def test_is_connected_false(self):
        assert not Topology(3, [(0, 1)]).is_connected()

    def test_single_node_is_connected(self):
        assert Topology(1, []).is_connected()

    def test_giant_component(self):
        topology = Topology(6, [(0, 1), (1, 2), (3, 4)])
        assert topology.giant_component() == [0, 1, 2]


class TestCuts:
    def test_cut_size(self, tiny_topology):
        # Group {0, 1} has edges to 2 from both 0 and 1.
        assert tiny_topology.cut_size([0, 1]) == 2

    def test_cut_size_whole_graph_is_zero(self, tiny_topology):
        assert tiny_topology.cut_size([0, 1, 2, 3, 4]) == 0

    def test_cut_size_empty_group_is_zero(self, tiny_topology):
        assert tiny_topology.cut_size([]) == 0

    def test_subgraph_labels(self, tiny_topology):
        labels = tiny_topology.subgraph_labels([[0, 1], [3, 4]])
        assert labels.tolist() == [0, 0, -1, 1, 1]


class TestNetworkxInterop:
    def test_round_trip(self, tiny_topology):
        graph = tiny_topology.to_networkx()
        back = Topology.from_networkx(graph)
        assert back.num_peers == tiny_topology.num_peers
        assert sorted(back.edges()) == sorted(tiny_topology.edges())

    def test_from_networkx_relabels(self):
        graph = nx.Graph()
        graph.add_edges_from([("c", "a"), ("a", "b")])
        topology = Topology.from_networkx(graph)
        assert topology.num_peers == 3
        # sorted node order: a=0, b=1, c=2
        assert topology.has_edge(0, 2)
        assert topology.has_edge(0, 1)

    def test_from_networkx_drops_self_loops(self):
        graph = nx.Graph()
        graph.add_edge(0, 0)
        graph.add_edge(0, 1)
        topology = Topology.from_networkx(graph)
        assert topology.num_edges == 1

    def test_to_networkx_preserves_counts(self, small_topology):
        graph = small_topology.to_networkx()
        assert graph.number_of_nodes() == small_topology.num_peers
        assert graph.number_of_edges() == small_topology.num_edges
