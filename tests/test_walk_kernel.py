"""Walk kernel: bit-parity with the oracle, stream contract, delta re-use.

``src/repro/network/walk_kernel.py`` (its hop loops compiled from
``walk_kernel.c``) is the only code that advances a walk.  Its
contract is not "statistically equivalent" but *bit-identical* to the
segment-by-segment reference in
``tests/walk_oracle.py`` (the product's former stepwise walker, moved
there verbatim): same selected peers, same hop counts, same RNG stream
position afterwards — for both variants and the weighted walk, any
take chunking, and the bare ``step``/``trace``/``endpoint_after`` segments.
The two places the product *intentionally* leaves the oracle's stream
(oversize segments, zero-hop segments) are pinned in
``TestFallbackMatrix``.  ``TestCompiledLoop`` pins the C loops at
their float cutoffs and the build: one library per machine and source,
no child process on a warm import, typed errors.  The delta
re-estimation tests pin the churn-salvage semantics layered on top of
the kernel.
"""

import dataclasses
import gc
import json
import subprocess
import sys
import textwrap
import weakref

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.two_phase import PlanCache, TwoPhaseConfig, TwoPhaseEngine
from repro.data.localdb import LocalDatabase
from repro import _native
from repro.errors import ConfigurationError, KernelBuildError, TopologyError
from repro.network.churn import ChurnConfig
from repro.network.faults import FaultPlan, RegionalOutage
from repro.network.generators import (
    power_law_topology,
    random_regular_topology,
)
from repro.network.live import LiveNetwork
from repro.network.simulator import NetworkSimulator
from repro.network import walk_kernel
from repro.network.topology import Topology
from repro.network.walk_kernel import WalkKernel
from repro.network.walker import (
    RandomWalkConfig,
    RandomWalker,
    RetryPolicy,
    WalkResult,
    WeightedMetropolisWalker,
    _emit_walk,
)
from repro.obs.events import WalkEvent
from repro.obs.tracer import Tracer, tracing
from repro.query.exact import evaluate_exact
from repro.query.parser import parse_query
from repro.service import QueryService

from .conftest import assert_uniforms_consumed
from .walk_oracle import OracleWalker

VARIANTS = ("simple", "metropolis-uniform")

TOPOLOGIES = (
    power_law_topology(60, 180, seed=3),
    random_regular_topology(40, 4, seed=5),
    Topology(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]),
)

SUM_ALL = parse_query("SELECT SUM(A) FROM T")


def walker_pair(topology, variant, jump, burn_in, seed, weights=None):
    """The oracle and the product walker on identical RNG streams."""
    config = RandomWalkConfig(variant=variant, jump=jump, burn_in=burn_in)
    if weights is None:
        walker = RandomWalker(topology, config, seed=seed)
    else:
        walker = WeightedMetropolisWalker(topology, weights, config, seed=seed)
    return OracleWalker(topology, config, seed, weights=weights), walker


def assert_stream_parity(oracle, walker):
    """Both RNGs must sit at the same stream position afterwards."""
    assert oracle.rng.bit_generator.state == walker._rng.bit_generator.state


def assert_take_parity(oracle_cursor, cursor, count):
    """One take on both cursors: same peers, hops and position."""
    peers, hops = oracle_cursor.take(count)
    result = cursor.take(count)
    assert result.peers.tolist() == peers
    assert result.hops == hops
    assert cursor.position == oracle_cursor.position
    assert cursor.total_hops == oracle_cursor.total_hops


# ---------------------------------------------------------------------------
# Bit parity: cursor level
# ---------------------------------------------------------------------------


class TestCursorParity:
    @settings(max_examples=60, deadline=None)
    @given(
        topology_index=st.integers(0, len(TOPOLOGIES) - 1),
        variant=st.sampled_from(VARIANTS),
        jump=st.integers(0, 12),
        burn_in=st.one_of(st.none(), st.integers(0, 15)),
        seed=st.integers(0, 2**32 - 1),
        chunks=st.lists(st.integers(0, 9), min_size=1, max_size=5),
    )
    def test_chunked_takes_are_bit_identical(
        self, topology_index, variant, jump, burn_in, seed, chunks
    ):
        topology = TOPOLOGIES[topology_index]
        oracle, walker = walker_pair(topology, variant, jump, burn_in, seed)
        start = seed % topology.num_peers
        oracle_cursor = oracle.cursor(start)
        cursor = walker.cursor(start)
        for count in chunks:
            assert_take_parity(oracle_cursor, cursor, count)
        assert_stream_parity(oracle, walker)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("jump,burn_in", [(10, None), (1, 0), (3, 7), (0, 5), (2, 0)])
    def test_sample_peers_parity_across_strides(self, variant, jump, burn_in):
        oracle, walker = walker_pair(
            TOPOLOGIES[0], variant, jump, burn_in, seed=42
        )
        peers, hops = oracle.sample_peers(7, 25)
        result = walker.sample_peers(7, 25)
        assert result.peers.tolist() == peers
        assert result.hops == hops
        assert_stream_parity(oracle, walker)

    def test_weighted_metropolis_parity(self):
        topology = TOPOLOGIES[0]
        weights = np.random.default_rng(19).uniform(
            0.5, 3.0, topology.num_peers
        )
        oracle, walker = walker_pair(
            topology, "simple", jump=4, burn_in=6, seed=8, weights=weights,
        )
        oracle_cursor = oracle.cursor(3)
        cursor = walker.cursor(3)
        for count in (15, 25):
            assert_take_parity(oracle_cursor, cursor, count)
        assert_stream_parity(oracle, walker)

    @pytest.mark.parametrize("variant", [*VARIANTS, "weighted"])
    def test_step_trace_endpoint_stream_position(self, variant):
        """The bare segments run the kernel too: same peers, and the
        RNG lands where the oracle's per-segment draws leave it."""
        topology = TOPOLOGIES[0]
        weights = None
        if variant == "weighted":
            variant = "simple"
            weights = np.random.default_rng(19).uniform(
                0.5, 3.0, topology.num_peers
            )
        oracle, walker = walker_pair(
            topology, variant, jump=3, burn_in=2, seed=21, weights=weights
        )
        assert walker.step(4) == oracle.step(4)
        assert_stream_parity(oracle, walker)
        np.testing.assert_array_equal(
            walker.trace(4, 37), oracle.trace(4, 37)
        )
        assert_stream_parity(oracle, walker)
        assert walker.endpoint_after(4, 29) == oracle.endpoint_after(4, 29)
        assert_stream_parity(oracle, walker)
        # ... and interleave with sampling takes on the same stream.
        assert walker.sample_peers(4, 5).peers.tolist() == (
            oracle.sample_peers(4, 5)[0]
        )
        assert_stream_parity(oracle, walker)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_takes_longer_than_one_rng_chunk_match_the_oracle(self, variant):
        """A take needing more uniforms than one fused draw holds is
        drawn in chunks — which changes nothing (Metropolis pairs
        included: the chunk size is even)."""
        oracle, walker = walker_pair(
            TOPOLOGIES[0], variant, jump=7, burn_in=3, seed=5
        )
        count = 10_000  # 70k hops: > 65536 uniforms for every variant
        peers, hops = oracle.sample_peers(2, count)
        result = walker.sample_peers(2, count)
        assert result.peers.tolist() == peers
        assert result.hops == hops
        assert_stream_parity(oracle, walker)

    @settings(max_examples=60, deadline=None)
    @given(
        variant=st.sampled_from(VARIANTS),
        stride=st.sampled_from(
            [(1, 0), (3, None), (0, 5), (7, 2), (9000, 1), (2, 9000)]
        ),
        seed=st.integers(0, 2**32 - 1),
        first=st.integers(0, 6),
        second=st.integers(0, 6),
    )
    def test_split_takes_equal_one_take(
        self, variant, stride, seed, first, second
    ):
        """``take(a); take(b)`` is ``take(a + b)`` — oversize segments
        (9000 hops, past the oracle's RNG block) included."""
        jump, burn_in = stride
        config = RandomWalkConfig(variant=variant, jump=jump, burn_in=burn_in)
        split = RandomWalker(TOPOLOGIES[0], config, seed=seed)
        whole = RandomWalker(TOPOLOGIES[0], config, seed=seed)
        cursor = split.cursor(3)
        parts = [cursor.take(first), cursor.take(second)]
        result = whole.sample_peers(3, first + second)
        assert (
            parts[0].peers.tolist() + parts[1].peers.tolist()
            == result.peers.tolist()
        )
        assert parts[0].hops + parts[1].hops == result.hops
        assert split._rng.bit_generator.state == whole._rng.bit_generator.state

    def test_trace_digest_parity(self):
        """The WalkEvents a chunked cursor emits are the oracle's takes."""
        oracle, walker = walker_pair(
            TOPOLOGIES[0], "metropolis-uniform", jump=5, burn_in=3, seed=77
        )
        tracer = Tracer()
        with tracing(tracer):
            cursor = walker.cursor(2)
            cursor.take(6)
            cursor.take(9)
        expected = Tracer()
        oracle_cursor = oracle.cursor(2)
        for count in (6, 9):
            peers, hops = oracle_cursor.take(count)
            expected.emit(WalkEvent, 2, hops, len(peers), len(set(peers)))
        assert tracer.digest() == expected.digest()

    def test_first_take_with_zero_burn_in_selects_the_start(self):
        _, walker = walker_pair(
            TOPOLOGIES[2], "simple", jump=3, burn_in=0, seed=4
        )
        result = walker.cursor(1).take(4)
        assert result.peers[0] == 1
        assert result.hops == 9  # (count - 1) * jump, burn-in free

    def test_empty_and_negative_takes_bypass_the_kernel(self):
        _, walker = walker_pair(
            TOPOLOGIES[2], "simple", jump=2, burn_in=1, seed=4
        )
        cursor = walker.cursor(0)
        assert len(cursor.take(0)) == 0
        with pytest.raises(ConfigurationError):
            cursor.take(-1)
        assert_uniforms_consumed(walker._rng, 4, 0)


# ---------------------------------------------------------------------------
# The compiled loop: parity for every variant, the build and its cache
# ---------------------------------------------------------------------------


#: Peer 0 has degree 1, peer 1 degree 3.
STAR = Topology(4, [(0, 1), (1, 2), (1, 3)])


class ChosenUniforms:
    """An RNG stand-in that hands out the given doubles in order."""

    def __init__(self, values):
        self._values = list(values)

    def random(self, size=None, out=None):
        count = out.size if out is not None else size
        drawn, self._values = self._values[:count], self._values[count:]
        assert len(drawn) == count, "ran out of chosen uniforms"
        if out is None:
            return np.asarray(drawn)
        out[:] = drawn
        return out


def weights_for(topology, draw):
    """Awkward positive weights: products of these round, so an accept
    test whose multiplies were fused would move."""
    return [
        draw(st.sampled_from([0.1, 0.3, 1 / 3, 0.7, 1.0, 2.9, 3.0]))
        for _ in range(topology.num_peers)
    ]


@st.composite
def walk_plans(draw):
    variant = draw(st.sampled_from([*VARIANTS, "weighted"]))
    topology = TOPOLOGIES[draw(st.integers(0, len(TOPOLOGIES) - 1))]
    weights = None
    if variant == "weighted":
        variant, weights = "simple", weights_for(topology, draw)
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("take"), st.integers(0, 9)),
                st.tuples(
                    st.sampled_from(["advance", "trace"]),
                    st.integers(0, 40),
                ),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return dict(
        topology=topology,
        variant=variant,
        weights=weights,
        jump=draw(st.integers(0, 12)),
        burn_in=draw(st.one_of(st.none(), st.integers(0, 15))),
        seed=draw(st.integers(0, 2**32 - 1)),
        ops=ops,
    )


class TestCompiledLoop:
    """``walk_kernel.c`` against ``tests/walk_oracle.py``: the same
    peers, hops and stream position for all three loops."""

    @settings(max_examples=80, deadline=None)
    @given(plan=walk_plans())
    def test_every_loop_matches_the_oracle(self, plan):
        """Takes, bare segments and traces interleaved on one stream, at every jump from 1."""
        topology = plan["topology"]
        oracle, walker = walker_pair(
            topology, plan["variant"], plan["jump"], plan["burn_in"],
            plan["seed"], plan["weights"],
        )
        start = plan["seed"] % topology.num_peers
        oracle_cursor = oracle.cursor(start)
        cursor = walker.cursor(start)
        for op, size in plan["ops"]:
            if op == "take":
                expected = oracle_cursor.take(size)
                result = cursor.take(size)
                assert (result.peers.tolist(), result.hops) == expected
                assert cursor.position == oracle_cursor.position
            elif size:  # the oracle draws for a zero-hop segment
                peer = cursor.position
                if op == "advance":
                    assert walker.endpoint_after(peer, size) == (
                        oracle.endpoint_after(peer, size)
                    )
                else:
                    np.testing.assert_array_equal(
                        walker.trace(peer, size), oracle.trace(peer, size)
                    )
            assert_stream_parity(oracle, walker)

    @settings(max_examples=8, deadline=None)
    @given(
        variant=st.sampled_from([*VARIANTS, "weighted"]),
        jump=st.sampled_from([1, 7, 9]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_takes_straddling_the_rng_chunk(self, variant, jump, seed):
        """A take past 65,536 uniforms is drawn in two or more fills;
        the walk carries its position and countdown across them."""
        topology = TOPOLOGIES[0]
        weights = None
        if variant == "weighted":
            variant = "simple"
            weights = np.random.default_rng(seed).uniform(
                0.5, 3.0, topology.num_peers
            )
        oracle, walker = walker_pair(
            topology, variant, jump, 3, seed, weights=weights
        )
        count = 70_000 // jump
        peers, hops = oracle.sample_peers(2, count)
        result = walker.sample_peers(2, count)
        assert result.peers.tolist() == peers
        assert result.hops == hops
        assert_stream_parity(oracle, walker)

    @pytest.mark.parametrize("variant", [*VARIANTS, "weighted"])
    def test_chosen_uniforms_at_every_boundary(self, variant):
        """Uniforms a seeded stream practically never draws — exactly
        0, 1/2, 1/3 (an exact accept tie: 1/3 * 3 == 1.0), the largest
        double below 1 — take the loop through each cutoff."""
        topology = STAR
        weights = None
        if variant == "weighted":
            variant, weights = "simple", [0.1, 0.3, 1.0, 2.9]
        edges = [0.0, 0.5, 1 / 3, 1 - 2**-53, 0.25, 0.75, 2 / 3, 0.999]
        uniforms = [u for a in edges for b in edges for u in (a, b)]
        per_hop = 1 if weights is None and variant == "simple" else 2
        hops = len(uniforms) // per_hop
        oracle = OracleWalker(
            topology, RandomWalkConfig(variant=variant), 0, weights
        )
        oracle._rng = ChosenUniforms(uniforms)
        kernel = WalkKernel(
            topology, ChosenUniforms(uniforms), variant, 1, 0, weights
        )
        np.testing.assert_array_equal(
            kernel.trace(0, hops), oracle.trace(0, hops)
        )

    def test_the_weighted_accept_multiplies_left_to_right(self):
        """``u * w(u) * deg(v)`` associates left to right, as in the
        oracle: with ``w(v)`` set to exactly one of the two groupings,
        a loop that grouped ``w(u) * deg(v)`` first decides the other
        way.  From peer 0 (degree 1) the only proposal is peer 1."""
        rng = np.random.default_rng(0)
        while True:
            accept = float(rng.random())
            left = accept * 0.1 * 3.0
            if left != accept * (0.1 * 3.0):
                break
        right = accept * (0.1 * 3.0)
        for target in (left, right):
            weights = [0.1, target, 1.0, 1.0]
            oracle = OracleWalker(STAR, RandomWalkConfig(), 0, weights)
            oracle._rng = ChosenUniforms([0.0, accept])
            kernel = WalkKernel(
                STAR, ChosenUniforms([0.0, accept]), "simple", 1, 0, weights
            )
            expected = oracle.endpoint_after(0, 1)
            assert kernel.advance(0, 1) == expected
            assert expected == (1 if left < target else 0)

    def test_the_loop_reads_the_topologys_own_csr(self):
        topology = TOPOLOGIES[0]
        indptr, indices, *_ = walk_kernel._csr(topology)
        assert np.shares_memory(indptr, topology.indptr)
        assert np.shares_memory(indices, topology.indices)
        assert walk_kernel._csr(topology) is walk_kernel._csr(topology)

    def test_a_cursor_keeps_its_csr_alive(self):
        """The loop reads raw addresses: a cursor whose topology has no
        other reference left still walks the same graph."""
        topology = power_law_topology(300, 900, seed=3)
        gone = weakref.ref(topology)
        cursor = RandomWalker(topology, seed=1).cursor(0)
        del topology
        gc.collect()
        assert gone() is None
        # Reuse whatever memory was released, with peers out of range.
        junk = [np.full(2000, 10**9, dtype=np.int64) for _ in range(50)]
        twin = RandomWalker(power_law_topology(300, 900, seed=3), seed=1)
        expected = twin.cursor(0)
        for _ in range(5):
            assert cursor.take(20).peers.tolist() == (
                expected.take(20).peers.tolist()
            )
        del junk

    def test_a_warm_import_starts_no_child_process(self):
        """A process that runs the compiler is charged its parent's
        peak RSS; with the library built, importing ``repro`` and
        walking spawns nothing."""
        script = textwrap.dedent(
            """
            import resource
            import repro
            from repro.network.generators import power_law_topology
            from repro.network.walker import RandomWalker

            walker = RandomWalker(power_law_topology(60, 180, seed=3))
            walker.sample_peers(0, 20)
            print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0"]

    def test_concurrent_first_builds_each_load_a_complete_library(
        self, tmp_path
    ):
        """Two processes build into one empty cache at once: both load
        a working library and one file is left, no partial one."""
        script = textwrap.dedent(
            """
            import pathlib, sys
            from repro import _native
            from repro.network import walk_kernel
            from repro.network.generators import power_law_topology
            from repro.network.walker import RandomWalker

            _native._CACHE_DIR = pathlib.Path(sys.argv[1])
            print("ready", flush=True)
            sys.stdin.readline()
            _native._library = _native._load()
            walk_kernel._walk = _native.bind("repro_walk", walk_kernel._Walk)
            walker = RandomWalker(power_law_topology(60, 180, seed=3), seed=1)
            print(walker.sample_peers(0, 40).peers.tolist())
            """
        )
        cache = tmp_path / "cache"
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(cache)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        for proc in procs:
            assert proc.stdout.readline().strip() == "ready"
        for proc in procs:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        expected = RandomWalker(TOPOLOGIES[0], seed=1).sample_peers(0, 40)
        for proc in procs:
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
            assert out.strip() == str(expected.peers.tolist())
        assert [path.suffix for path in cache.iterdir()] == [".so"]

    @pytest.mark.parametrize("compiler", ["no-such-cc-for-repro", "false"])
    def test_a_missing_or_failing_compiler_raises_the_typed_error(
        self, tmp_path, monkeypatch, compiler
    ):
        monkeypatch.setattr(_native, "_CC", compiler)
        monkeypatch.setattr(_native, "_CACHE_DIR", tmp_path / "cache")
        with pytest.raises(KernelBuildError) as raised:
            _native._load()
        assert repr(compiler) in str(raised.value)
        assert str(tmp_path / "cache") in str(raised.value)
        assert list((tmp_path / "cache").iterdir()) == []

    def test_an_unwritable_cache_raises_the_typed_error(
        self, tmp_path, monkeypatch
    ):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setattr(_native, "_CACHE_DIR", blocker / "repro")
        with pytest.raises(KernelBuildError) as raised:
            _native._load()
        assert str(blocker / "repro") in str(raised.value)
        assert _native._CC in str(raised.value)


# ---------------------------------------------------------------------------
# No knobs, no fallbacks — and the two intended stream changes
# ---------------------------------------------------------------------------


class TestFallbackMatrix:
    """There is none: no ``kernel=`` knob selects a second walker and no
    configuration falls back to one.  What is left to pin is that the
    knobs are really gone, and the two places the single loop
    *intentionally* leaves the oracle's RNG stream."""

    def test_invalid_kernel_mode_rejected(self):
        """The knobs are not deprecated aliases; they are unknown."""
        for mode in ("auto", "stepwise", "vectorized", "turbo"):
            with pytest.raises(TypeError, match="kernel"):
                RandomWalkConfig(kernel=mode)
            with pytest.raises(TypeError, match="walk_kernel"):
                TwoPhaseConfig(walk_kernel=mode)
        assert [f.name for f in dataclasses.fields(RandomWalkConfig)] == [
            "jump", "burn_in", "variant",
        ]
        assert "walk_kernel" not in {
            f.name for f in dataclasses.fields(TwoPhaseConfig)
        }
        assert not hasattr(RandomWalker, "kernel_ineligibility")

    def test_kernel_rejects_bad_parameters(self):
        topology = TOPOLOGIES[0]
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            WalkKernel(topology, rng, "simple", jump=0, burn_in=0)
        with pytest.raises(ConfigurationError):
            WalkKernel(topology, rng, "levy-flight", jump=1, burn_in=0)
        with pytest.raises(ConfigurationError):
            WalkKernel(topology, rng, "simple", 1, 0, weights=[1.0, 2.0])
        kernel = WalkKernel(topology, rng, "simple", jump=1, burn_in=0)
        with pytest.raises(ConfigurationError):
            kernel.take(0, 0, True)
        # The C loop reads no row it was not given: a start outside the
        # graph or at an isolated peer (3) is refused, not walked.
        isolated = WalkKernel(
            Topology(4, [(0, 1), (1, 2)]), rng, "simple", 1, 0
        )
        for start in (-1, 4, 3):
            with pytest.raises(TopologyError, match=f"peer {start}"):
                isolated.advance(start, 5)

    def test_metropolis_halves_the_segment_budget(self):
        """Oracle parity reaches as far as the oracle's 8192-uniform
        block: 8192 hops, or 4096 for the two-uniform Metropolis hop."""
        for variant, jump in (("simple", 8192), ("metropolis-uniform", 4096)):
            oracle, walker = walker_pair(
                TOPOLOGIES[0], variant, jump, burn_in=jump, seed=1
            )
            peers, hops = oracle.sample_peers(0, 3)
            result = walker.sample_peers(0, 3)
            assert result.peers.tolist() == peers
            assert result.hops == hops == 3 * jump
            assert_stream_parity(oracle, walker)

    @pytest.mark.parametrize(
        "variant,per_hop", [("simple", 1), ("metropolis-uniform", 2)]
    )
    @pytest.mark.parametrize("segment", ["jump", "burn-in"])
    def test_oversized_segment_draws_exactly_what_it_consumes(
        self, segment, variant, per_hop
    ):
        """Stream change 1: a segment past 8192 uniforms no longer
        discards the tail of its last RNG block.  The walk is the one
        that many single-hop oracle segments (which never refill)
        produce, and the stream sits exactly ``per_hop * hops`` in."""
        long = 9000 // per_hop + 1
        jump, burn_in = (long, 2) if segment == "jump" else (2, long)
        oracle, walker = walker_pair(
            TOPOLOGIES[0], variant, jump, burn_in, seed=13
        )
        result = walker.sample_peers(5, 2)
        assert result.hops == burn_in + jump
        hop_by_hop = oracle.trace(5, result.hops)
        assert result.peers.tolist() == [
            hop_by_hop[burn_in], hop_by_hop[burn_in + jump]
        ]
        assert_stream_parity(oracle, walker)
        assert_uniforms_consumed(walker._rng, 13, per_hop * result.hops)
        # The oracle's own oversize segment is what changed:
        stale, _ = walker_pair(TOPOLOGIES[0], variant, jump, burn_in, seed=13)
        stale.sample_peers(5, 2)
        assert stale.rng.bit_generator.state != walker._rng.bit_generator.state

    @pytest.mark.parametrize("weighted", [False, True])
    def test_zero_hop_segment_consumes_no_randomness(self, weighted):
        """Stream change 2: ``endpoint_after(p, 0)`` is ``p`` for free
        (the oracle draws one wasted uniform, two when weighted)."""
        topology = TOPOLOGIES[0]
        weights = [1.0] * topology.num_peers if weighted else None
        oracle, walker = walker_pair(
            topology, "simple", jump=3, burn_in=0, seed=2, weights=weights
        )
        assert walker.endpoint_after(6, 0) == 6
        np.testing.assert_array_equal(walker.trace(6, 0), [6])
        assert_uniforms_consumed(walker._rng, 2, 0)
        assert oracle.endpoint_after(6, 0) == 6
        assert_uniforms_consumed(oracle.rng, 2, 2 if weighted else 1)


# ---------------------------------------------------------------------------
# Bit parity: engine level
# ---------------------------------------------------------------------------


class _OracleBackedCursor:
    def __init__(self, start, oracle_cursor):
        self._start = start
        self._oracle_cursor = oracle_cursor

    def take(self, count):
        peers, hops = self._oracle_cursor.take(count)
        return _emit_walk(
            WalkResult(
                peers=np.asarray(peers, dtype=np.int64),
                hops=hops,
                start=self._start,
            )
        )


class OracleBackedWalker(RandomWalker):
    """A walker whose every hop is generated by the ``tests/`` oracle."""

    def __init__(self, topology, config, seed):
        super().__init__(topology, config, seed)
        self._oracle = OracleWalker(topology, config, self._rng)

    def cursor(self, start):
        return _OracleBackedCursor(start, self._oracle.cursor(start))

    def endpoint_after(self, start, hops):
        return self._oracle.endpoint_after(start, hops)


class TestEngineParity:
    def _run(
        self,
        small_topology,
        small_dataset,
        oracle,
        fault_plan=None,
        **config,
    ):
        simulator = NetworkSimulator(
            small_topology,
            small_dataset.databases,
            seed=7,
            fault_plan=fault_plan,
        )
        config = TwoPhaseConfig(phase_one_peers=30, **config)
        engine = TwoPhaseEngine(simulator, config=config, seed=11)
        if oracle:
            walker = OracleBackedWalker(
                small_topology, config.walk_config(), engine._walker._rng
            )
            engine._walker = walker
            if engine._collector is not None:
                engine._collector._walker = walker
        tracer = Tracer()
        with tracing(tracer):
            result = engine.execute(SUM_ALL, 0.15, sink=0)
        return result, tracer

    def _assert_parity(self, small_topology, small_dataset, **kwargs):
        result_o, tracer_o = self._run(
            small_topology, small_dataset, True, **kwargs
        )
        result_p, tracer_p = self._run(
            small_topology, small_dataset, False, **kwargs
        )
        assert result_o.estimate == result_p.estimate
        assert result_o.cost == result_p.cost
        assert result_o.confidence_interval == result_p.confidence_interval
        assert tracer_o.digest() == tracer_p.digest()
        return tracer_p

    def test_estimates_costs_and_traces_match(
        self, small_topology, small_dataset
    ):
        self._assert_parity(small_topology, small_dataset)

    def test_parity_survives_fault_injection(
        self, small_topology, small_dataset
    ):
        plan = FaultPlan(seed=3, reply_loss=0.15)
        self._assert_parity(small_topology, small_dataset, fault_plan=plan)

    def test_substitution_hop_parity(self, small_topology, small_dataset):
        """The resilient collector's restart-from-last-good hop is a
        bare kernel segment; it must land where the oracle's does."""
        plan = FaultPlan(
            seed=3,
            reply_loss=0.1,
            outages=(
                RegionalOutage(center=5, radius=1, start=0, stop=10**6),
            ),
        )
        tracer = self._assert_parity(
            small_topology,
            small_dataset,
            fault_plan=plan,
            retry_policy=RetryPolicy(),
        )
        kinds = [json.loads(line)["kind"] for line in tracer.lines]
        assert "substitute" in kinds


# ---------------------------------------------------------------------------
# Delta re-estimation across churn epochs
# ---------------------------------------------------------------------------


def make_live_network(seed=5):
    topology = power_law_topology(120, 400, seed=2)
    rng = np.random.default_rng(3)
    databases = [
        LocalDatabase({"A": rng.integers(1, 101, 80)})
        for _ in range(topology.num_peers)
    ]
    return LiveNetwork(
        topology,
        databases,
        churn_config=ChurnConfig(join_rate=0.5, leave_rate=0.5),
        seed=seed,
    )


def churned_pair():
    """Two snapshots of one live network with churn in between.

    Returns ``(net1, net2, live)`` where net2's population differs
    from net1's plan stamp (the churn process at these rates never
    leaves both peer and edge counts untouched over 20 steps).
    """
    live = make_live_network()
    net1 = live.snapshot(seed=11)
    live.step(20)
    net2 = live.snapshot(seed=13)
    assert (
        net2.topology.num_peers != net1.topology.num_peers
        or net2.topology.num_edges != net1.topology.num_edges
    )
    return net1, net2, live


class TestDeltaReestimation:
    CONFIG = TwoPhaseConfig(phase_one_peers=20)

    def test_churn_salvages_the_plan_instead_of_invalidating(self):
        net1, net2, _ = churned_pair()
        engine = TwoPhaseEngine(
            net1, self.CONFIG, seed=7,
            cache=PlanCache(delta_reestimation=True),
        )
        engine.execute(SUM_ALL, 0.2, sink=0)
        engine.execute(SUM_ALL, 0.2, sink=0)
        assert (engine.cold_runs, engine.warm_runs) == (1, 1)
        engine.rebind(net2)
        tracer = Tracer()
        with tracing(tracer):
            result = engine.execute(SUM_ALL, 0.2, sink=0)
        assert engine.delta_runs == 1
        assert engine.cache.delta_hits == 1
        assert engine.cache.churn_invalidations == 0
        assert not result.degraded
        assert result.effective_sample_size == result.requested_sample_size
        events = [json.loads(line) for line in tracer.lines]
        reuse = [e for e in events if e["kind"] == "delta-reuse"]
        assert len(reuse) == 1
        assert reuse[0]["survivors"] + reuse[0]["deficit"] >= (
            result.requested_sample_size
        )
        assert reuse[0]["dropped"] >= 0

    def test_delta_topup_is_cheaper_than_cold_rewalk(self):
        net1, net2, live = churned_pair()
        engine = TwoPhaseEngine(
            net1, self.CONFIG, seed=7,
            cache=PlanCache(delta_reestimation=True),
        )
        engine.execute(SUM_ALL, 0.2, sink=0)
        engine.execute(SUM_ALL, 0.2, sink=0)
        engine.rebind(net2)
        delta_result = engine.execute(SUM_ALL, 0.2, sink=0)
        cold_engine = TwoPhaseEngine(
            live.snapshot(seed=13), self.CONFIG, seed=7, cache=PlanCache()
        )
        cold_result = cold_engine.execute(SUM_ALL, 0.2, sink=0)
        assert delta_result.cost.hops < cold_result.cost.hops
        assert delta_result.cost.peers_visited < cold_result.cost.peers_visited

    def test_delta_estimate_honors_the_cold_contract(self):
        """The salvaged estimate obeys the same contract as a cold run:
        finite, interval-bracketed, and close to the exact answer."""
        net1, net2, _ = churned_pair()
        engine = TwoPhaseEngine(
            net1, self.CONFIG, seed=7,
            cache=PlanCache(delta_reestimation=True),
        )
        engine.execute(SUM_ALL, 0.2, sink=0)
        engine.execute(SUM_ALL, 0.2, sink=0)
        engine.rebind(net2)
        result = engine.execute(SUM_ALL, 0.2, sink=0)
        exact = evaluate_exact(SUM_ALL, net2.databases())
        assert np.isfinite(result.estimate)
        interval = result.confidence_interval
        assert interval.low <= result.estimate <= interval.high
        assert abs(result.estimate - exact) / exact < 0.5
        assert result.phase_two is None  # delta is a one-phase top-up

    def test_warm_and_delta_avg_intervals_are_in_avg_units(self):
        """Cold, warm and delta runs report one interval: for AVG the
        half-width is rescaled from SUM units by the matching count."""
        avg = parse_query("SELECT AVG(A) FROM T WHERE A BETWEEN 1 AND 60")
        net1, net2, _ = churned_pair()
        engine = TwoPhaseEngine(
            net1, self.CONFIG, seed=7,
            cache=PlanCache(delta_reestimation=True),
        )
        cold = engine.execute(avg, 0.2, sink=0)
        warm = engine.execute(avg, 0.2, sink=0)
        engine.rebind(net2)
        delta = engine.execute(avg, 0.2, sink=0)
        assert (engine.cold_runs, engine.warm_runs, engine.delta_runs) == (
            1, 1, 1,
        )
        exact = evaluate_exact(avg, net2.databases())
        for result in (cold, warm, delta):
            interval = result.confidence_interval
            assert abs(result.estimate - exact) < 5.0
            assert 0.0 < interval.half_width < 10.0
            assert (
                0.1 < interval.half_width / cold.confidence_interval.half_width
                < 10.0
            )

    def test_plan_is_restamped_so_the_next_run_is_warm(self):
        net1, net2, _ = churned_pair()
        engine = TwoPhaseEngine(
            net1, self.CONFIG, seed=7,
            cache=PlanCache(delta_reestimation=True),
        )
        engine.execute(SUM_ALL, 0.2, sink=0)
        engine.execute(SUM_ALL, 0.2, sink=0)
        engine.rebind(net2)
        engine.execute(SUM_ALL, 0.2, sink=0)
        plan = engine.cached_plan(SUM_ALL)
        assert plan.matches_population(
            net2.topology.num_peers, net2.topology.num_edges
        )
        engine.execute(SUM_ALL, 0.2, sink=0)
        assert engine.delta_runs == 1
        assert engine.warm_runs == 2

    def test_retained_survivors_drop_departed_peers(self):
        net1, net2, _ = churned_pair()
        engine = TwoPhaseEngine(
            net1, self.CONFIG, seed=7,
            cache=PlanCache(delta_reestimation=True),
        )
        engine.execute(SUM_ALL, 0.2, sink=0)
        plan = engine.cached_plan(SUM_ALL)
        retained = plan.retained
        assert retained is not None
        live_labels = set(net2.peer_labels)
        survivors = sum(
            1 for label in retained.labels if label in live_labels
        )
        engine.rebind(net2)
        tracer = Tracer()
        with tracing(tracer):
            engine.execute(SUM_ALL, 0.2, sink=0)
        events = [json.loads(line) for line in tracer.lines]
        reuse = [e for e in events if e["kind"] == "delta-reuse"][0]
        # Survivors in the event can only be <= label survival: peers
        # whose degree collapsed to zero are dropped too.
        assert reuse["survivors"] <= survivors
        assert reuse["survivors"] + reuse["dropped"] == len(retained.labels)

    def test_delta_defaults_off_and_churn_invalidates(self):
        net1, net2, _ = churned_pair()
        engine = TwoPhaseEngine(net1, self.CONFIG, seed=7, cache=PlanCache())
        assert not engine.cache.delta_reestimation
        engine.execute(SUM_ALL, 0.2, sink=0)
        engine.rebind(net2)
        engine.execute(SUM_ALL, 0.2, sink=0)
        assert engine.delta_runs == 0
        assert engine.cache.delta_hits == 0
        assert engine.cache.churn_invalidations == 1
        assert engine.cold_runs == 2

    def test_service_level_delta_counters(self):
        net1, net2, _ = churned_pair()
        service = QueryService(
            net1, self.CONFIG, seed=19, delta_reestimation=True
        )
        service.submit(SUM_ALL, 0.2, sink=0)
        service.run()
        service.submit(SUM_ALL, 0.2, sink=0)
        service.run()
        service.rebind(net2)
        service.submit(SUM_ALL, 0.2, sink=0)
        service.run()
        stats = service.stats()
        assert stats.delta_runs == 1
        assert stats.delta_hits == 1
        assert stats.warm_runs == 1
        assert stats.cold_runs == 1
        # Delta runs count among "all runs": 1 warm of 3, not of 2.
        assert stats.warm_ratio == 1 / 3
