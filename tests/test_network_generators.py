"""Unit tests for repro.network.generators."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, TopologyError
from repro.network.generators import (
    TopologyConfig,
    _GrowingGraph,
    clustered_power_law,
    gnutella_2001_like,
    gnutella_paper_topology,
    power_law_topology,
    random_regular_topology,
    subgraph_groups,
    synthetic_paper_topology,
)

from . import graph_oracle


class TestPowerLaw:
    def test_exact_counts(self):
        topology = power_law_topology(300, 1500, seed=3)
        assert topology.num_peers == 300
        assert topology.num_edges == 1500

    def test_connected(self):
        assert power_law_topology(300, 1500, seed=3).is_connected()

    def test_deterministic_per_seed(self):
        a = power_law_topology(100, 400, seed=5)
        b = power_law_topology(100, 400, seed=5)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_seeds_differ(self):
        a = power_law_topology(100, 400, seed=5)
        b = power_law_topology(100, 400, seed=6)
        assert sorted(a.edges()) != sorted(b.edges())

    def test_degree_skew(self):
        """Preferential attachment must create a heavy tail: the max
        degree should be far above the mean."""
        topology = power_law_topology(1000, 4000, seed=3)
        degrees = topology.degrees
        assert degrees.max() > 4 * degrees.mean()

    def test_too_few_edges_rejected(self):
        with pytest.raises(TopologyError):
            power_law_topology(100, 50, seed=1)

    def test_sparse_graph(self):
        """num_edges just above the tree bound still works."""
        topology = power_law_topology(100, 105, seed=2)
        assert topology.num_edges == 105
        assert topology.is_connected()


class TestClusteredPowerLaw:
    def test_counts_and_cut(self):
        topology = clustered_power_law(
            num_peers=200, num_edges=1000, num_subgraphs=2,
            cut_edges=10, seed=9,
        )
        assert topology.num_peers == 200
        assert topology.num_edges == 1000
        groups = subgraph_groups(200, 2)
        assert topology.cut_size(groups[0]) == 10

    def test_connected_with_minimal_cut(self):
        topology = clustered_power_law(
            num_peers=120, num_edges=600, num_subgraphs=3,
            cut_edges=3, seed=9,
        )
        assert topology.is_connected()

    def test_large_cut(self):
        topology = clustered_power_law(
            num_peers=200, num_edges=1200, num_subgraphs=2,
            cut_edges=400, seed=9,
        )
        groups = subgraph_groups(200, 2)
        assert topology.cut_size(groups[0]) == 400

    def test_needs_two_subgraphs(self):
        with pytest.raises(ConfigurationError):
            clustered_power_law(100, 500, num_subgraphs=1, cut_edges=5)

    def test_cut_smaller_than_ring_rejected(self):
        with pytest.raises(ConfigurationError):
            clustered_power_law(100, 500, num_subgraphs=3, cut_edges=2)

    def test_internal_edges_must_suffice(self):
        with pytest.raises(TopologyError):
            clustered_power_law(
                num_peers=100, num_edges=100, num_subgraphs=2,
                cut_edges=50, seed=1,
            )


class TestSubgraphGroups:
    def test_even_split(self):
        groups = subgraph_groups(10, 2)
        assert groups == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]

    def test_uneven_split(self):
        groups = subgraph_groups(10, 3)
        assert [len(g) for g in groups] == [4, 3, 3]
        assert sorted(sum(groups, [])) == list(range(10))

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            subgraph_groups(5, 0)
        with pytest.raises(ConfigurationError):
            subgraph_groups(2, 5)


class TestGnutellaLike:
    def test_default_shape(self):
        topology = gnutella_2001_like(
            num_peers=2000, num_edges=4640, seed=4
        )
        assert topology.num_peers == 2000
        assert topology.num_edges == 4640

    def test_connected(self):
        topology = gnutella_2001_like(
            num_peers=1500, num_edges=3480, seed=4
        )
        assert topology.is_connected()

    def test_degree_heavy_tail(self):
        topology = gnutella_2001_like(
            num_peers=3000, num_edges=6960, seed=4
        )
        degrees = topology.degrees
        assert degrees.max() > 5 * degrees.mean()

    def test_paper_scaled(self):
        topology = gnutella_paper_topology(seed=4, scale=0.05)
        assert topology.num_peers == round(22_556 * 0.05)

    def test_too_few_edges(self):
        with pytest.raises(TopologyError):
            gnutella_2001_like(num_peers=100, num_edges=50)


class TestPaperTopology:
    def test_scaled_counts(self):
        topology = synthetic_paper_topology(seed=1, scale=0.05)
        assert topology.num_peers == 500
        assert topology.num_edges == 5000

    def test_clustered_variant(self):
        topology = synthetic_paper_topology(
            seed=1, scale=0.05, num_subgraphs=2, cut_edges=20
        )
        groups = subgraph_groups(topology.num_peers, 2)
        assert topology.cut_size(groups[0]) == 20

    def test_bad_scale(self):
        with pytest.raises(ConfigurationError):
            synthetic_paper_topology(scale=0)


class TestRandomRegular:
    def test_degrees_uniform(self):
        topology = random_regular_topology(50, 4, seed=2)
        assert set(topology.degrees.tolist()) == {4}

    def test_connected(self):
        assert random_regular_topology(50, 4, seed=2).is_connected()

    def test_parity_rejected(self):
        with pytest.raises(TopologyError):
            random_regular_topology(5, 3, seed=2)

    def test_degree_too_large(self):
        with pytest.raises(TopologyError):
            random_regular_topology(4, 4, seed=2)


class TestTopologyConfig:
    def test_kind_dispatch_power_law(self):
        topology = TopologyConfig(
            num_peers=100, num_edges=400, kind="power-law"
        ).build(seed=1)
        assert topology.num_peers == 100

    def test_kind_dispatch_clustered(self):
        topology = TopologyConfig(
            num_peers=100, num_edges=500, num_subgraphs=2,
            cut_edges=10, kind="clustered-power-law",
        ).build(seed=1)
        assert topology.num_edges == 500

    def test_single_subgraph_falls_back(self):
        topology = TopologyConfig(
            num_peers=100, num_edges=400, num_subgraphs=1,
            kind="clustered-power-law",
        ).build(seed=1)
        assert topology.is_connected()

    def test_gnutella_kind(self):
        topology = TopologyConfig(
            num_peers=500, num_edges=1160, kind="gnutella-like"
        ).build(seed=1)
        assert topology.num_edges == 1160

    def test_random_regular_kind(self):
        topology = TopologyConfig(
            num_peers=100, num_edges=300, kind="random-regular"
        ).build(seed=1)
        assert topology.is_connected()

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            TopologyConfig(kind="mystery").build()


# ---------------------------------------------------------------------------
# The generators are pinned: by value, and against the networkx build
# ---------------------------------------------------------------------------


def topology_digest(topology):
    """sha256 of ``(num_peers, indptr, indices)`` — the whole CSR,
    neighbour order included (walks index into it)."""
    sha = hashlib.sha256()
    sha.update(np.int64(topology.num_peers).tobytes())
    sha.update(np.ascontiguousarray(topology.indptr, dtype=np.int64).tobytes())
    sha.update(np.ascontiguousarray(topology.indices, dtype=np.int64).tobytes())
    return sha.hexdigest()


#: Digests recorded at commit e39f21b — the last one whose generators
#: built a ``networkx.Graph`` — for seeds 1, 2, 3 in order.
#: ``power_law_topology`` never trims (attachment at ``E // M`` edges
#: per node always lands below ``E``), so the trim case — shuffled
#: removal, bridge check, a restored bridge moving to the end of both
#: neighbour lists — is ``gnutella_2001_like`` below its ``2(M - 2)``.
PINNED = {
    "power_law_pad": (
        lambda seed: power_law_topology(300, 1200, seed=seed),
        (
            "3f6d47d47cd0e721ff610a7f9ff43f8fb72d4020cfefc58a5b4658ed36078de5",
            "9333902d2d9e85147a3d268f149d454354876e06e670cc2259294c2269302bb2",
            "bcafb8579c2cc3bccf6a1047773af0623b5eda7880c76daa8762c934ee77971e",
        ),
    ),
    "power_law_bench_2k": (
        lambda seed: power_law_topology(2000, 10_000, seed=seed),
        (
            "3af08d4d094f8d2bfdea428f674b09812435c1b5679123f4275dc28b4d051603",
            "00da397ce56a4f833c9e8cd85d849fd16bb10bd997a234dc249d1044856fa050",
            "19166b7a0371bdc3ae662624cf72ab11ed0ef947517cec63a818754e17f71887",
        ),
    ),
    "power_law_near_tree": (
        lambda seed: power_law_topology(100, 105, seed=seed),
        (
            "9afc0a5031af2aee95c4722f896377e88d0b1ee9b4a711bcf75c4ac5de3c4deb",
            "52932f658cc1b908957dbd1d0fa11530057c42bdb4148f3892f8c4ce18d67182",
            "ed58cceffce21caf781bfc9d2e58c8bef198b328ef93c29698b8b05e21a75b45",
        ),
    ),
    "gnutella_trim": (
        lambda seed: gnutella_2001_like(300, 400, seed=seed),
        (
            "d42384f06a048c52a6cfaab5c9d9b8d9ea3a3fd4f9668c68e4cb1fba80c2ddb6",
            "4af868e4dc08aec2bf5ac0a32f3d8be38518ec5e6c920b529524391fe98af8fd",
            "08bbd62cefb8ec19d458c8844e5759bdd4e2a12d8b1773cc053f8b7ed2463fc5",
        ),
    ),
    "clustered_s4": (
        lambda seed: clustered_power_law(1000, 10_000, 4, 40, seed=seed),
        (
            "c43722302fc8e68c4e1b9e89c09fd19d0e3a0fa62bad642b425fb078c124fe2d",
            "f9dc49bc71655c49c64d6499203f95f3a9aec0702248be93e273427d3d12d085",
            "37b672ba8c46398908533fec6b5af16980e1b266c7973b4a2f209e274ed60a26",
        ),
    ),
    "gnutella_2256": (
        lambda seed: gnutella_2001_like(2256, 5232, seed=seed),
        (
            "d80d699c22e274898d2204a3afa8ecb5b5e518748531f2bc9efdcb10ba20dc79",
            "139ea3fb83e8b748cca566bd345c316968f011533703fdf059f0db3784ab5efa",
            "cb2c874959d32b7d08157c9f21ecb0b7b467421687ec50bdda73940d9da9aa48",
        ),
    ),
    "random_regular": (
        lambda seed: random_regular_topology(200, 4, seed=seed),
        (
            "768aeab7e0ce4d643fce82dd1e6afb2d59ca150f89a7140700640a5c80a57ee3",
            "c135f556e1e88e4998a7fc4bdf73cafa84bff27b3a1e42cbc9101c7c0ca965ab",
            "402f4752e024f2771dfbda191d86c826e47a1c7577f5dd15d69388f6242a0606",
        ),
    ),
}
PINNED_SLOW = {
    "gnutella_22556": (
        lambda seed: gnutella_2001_like(seed=seed),
        (
            "b161508e5f60cb4eaf51bf7ed2d96e55fd78fc5ba6962186fb6f76b73550dfe6",
            "04e4caafdc7076d2651207471e7591247845cd3a95c016944bbfb688a39d2a4a",
            "d80ae936a9b8a2af57abdc122dd3804bc6a646f6282d869fb4824514ccced702",
        ),
    ),
}


class TestPinnedByValue:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_digests(self, name):
        build, digests = PINNED[name]
        assert tuple(
            topology_digest(build(seed)) for seed in (1, 2, 3)
        ) == digests

    @pytest.mark.slow
    @pytest.mark.parametrize("name", sorted(PINNED_SLOW))
    def test_digests_paper_scale(self, name):
        build, digests = PINNED_SLOW[name]
        assert tuple(
            topology_digest(build(seed)) for seed in (1, 2, 3)
        ) == digests

    def test_trim_case_trims_and_restores_bridges(self, monkeypatch):
        """The pinned trim case really runs what it is there for."""
        calls = {"remove": 0, "restored": 0}
        remove, has_path = _GrowingGraph.remove_edge, _GrowingGraph.has_path

        def counting_remove(self, u, v):
            calls["remove"] += 1
            remove(self, u, v)

        def counting_has_path(self, u, v):
            connected = has_path(self, u, v)
            calls["restored"] += not connected
            return connected

        monkeypatch.setattr(_GrowingGraph, "remove_edge", counting_remove)
        monkeypatch.setattr(_GrowingGraph, "has_path", counting_has_path)
        topology = gnutella_2001_like(300, 400, seed=1)
        assert topology.num_edges == 400 and topology.is_connected()
        assert calls["restored"] > 0
        assert calls["remove"] - calls["restored"] == 2 * 298 - 400


def _same_graph(build, reference):
    """Both builds raise the same error, or freeze to the same edges."""
    try:
        expected = reference()
    except (ConfigurationError, TopologyError) as error:
        with pytest.raises(type(error)):
            build()
        return
    topology = build()
    assert topology.num_peers == expected.num_peers
    np.testing.assert_array_equal(topology.edge_array, expected.edge_array)
    np.testing.assert_array_equal(topology.indices, expected.indices)


class TestAgainstNetworkxOracle:
    """``_GrowingGraph`` == ``networkx.Graph`` (``tests/graph_oracle.py``,
    the former product path) for every generator built on it: same
    draws, same edges, same order."""

    @settings(max_examples=60, deadline=None)
    @given(
        num_peers=st.integers(2, 60),
        density=st.floats(0.0, 0.6),
        seed=st.integers(0, 2**32 - 1),
        generator=st.sampled_from(["power_law_topology", "gnutella_2001_like"]),
    )
    def test_single_component_generators(
        self, num_peers, density, seed, generator
    ):
        # From a spanning tree's worth of edges (gnutella: trims) up
        # to 60% of the complete graph (both: pads).
        span = num_peers * (num_peers - 1) // 2 - (num_peers - 1)
        num_edges = max(1, num_peers - 1 + round(density * span))
        _same_graph(
            lambda: globals()[generator](num_peers, num_edges, seed=seed),
            lambda: getattr(graph_oracle, generator)(
                num_peers, num_edges, seed=seed
            ),
        )

    @settings(max_examples=40, deadline=None)
    @given(
        num_peers=st.integers(4, 80),
        num_subgraphs=st.integers(2, 4),
        edges_per_peer=st.integers(1, 5),
        cut_edges=st.integers(2, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_clustered(
        self, num_peers, num_subgraphs, edges_per_peer, cut_edges, seed
    ):
        arguments = (
            num_peers, edges_per_peer * num_peers, num_subgraphs, cut_edges
        )
        _same_graph(
            lambda: clustered_power_law(*arguments, seed=seed),
            lambda: graph_oracle.clustered_power_law(*arguments, seed=seed),
        )
