"""Batch fast path ⇔ per-peer loop equivalence.

The contract of :meth:`NetworkSimulator.visit_aggregate_batch` /
:meth:`visit_values_batch` is *bit-for-bit* agreement with the scalar
``visit_*`` loop for the same seed — estimates, every reply payload
field, and the full cost ledger.  These tests pin that contract for
every aggregate × sampling-method combination, for the fault-injection
fallback, and for the parallel trial harness (``workers=N`` must return
exactly the serial results).
"""

import numpy as np
import pytest

from repro.errors import PeerUnavailableError, ProtocolError
from repro.experiments.configs import synthetic_bundle
from repro.experiments.runner import run_trials
from repro.network.faults import FaultPlan
from repro.network.simulator import NetworkSimulator
from repro.network.visits import GroupVisits
from repro.query.model import AggregateOp, AggregationQuery, Comparison
from repro.query.parser import parse_query

from . import visit_oracle

SINK = 0


def _query(agg):
    return AggregationQuery(
        agg=agg, column="A", predicate=Comparison("A", "<", 30)
    )


def _random_peers(network, count, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(network.num_peers, size=count)


def _scalar_loop(network, peers, query, ledger, **kwargs):
    return [
        network.visit_aggregate(
            int(peer), query, sink=SINK, ledger=ledger, **kwargs
        )
        for peer in peers
    ]


@pytest.mark.parametrize(
    "agg", [AggregateOp.COUNT, AggregateOp.SUM, AggregateOp.AVG]
)
@pytest.mark.parametrize("method", ["uniform", "block"])
def test_batch_matches_scalar(small_network, agg, method):
    """Identical replies and ledger for COUNT/SUM/AVG × both samplers."""
    query = _query(agg)
    peers = _random_peers(small_network, 120, seed=5)

    ledger_loop = small_network.new_ledger()
    loop = _scalar_loop(
        small_network,
        peers,
        query,
        ledger_loop,
        tuples_per_peer=20,
        sampling_method=method,
        seed=np.random.default_rng(99),
    )
    ledger_batch = small_network.new_ledger()
    batch = small_network.visit_aggregate_batch(
        peers,
        query,
        sink=SINK,
        ledger=ledger_batch,
        tuples_per_peer=20,
        sampling_method=method,
        seed=np.random.default_rng(99),
    )

    assert loop == list(batch)
    assert ledger_loop.snapshot() == ledger_batch.snapshot()


def test_batch_full_scan(small_network):
    """``tuples_per_peer=0`` scans everything; no rng is consumed."""
    query = _query(AggregateOp.SUM)
    peers = _random_peers(small_network, 60, seed=6)
    ledger_loop = small_network.new_ledger()
    loop = _scalar_loop(small_network, peers, query, ledger_loop)
    ledger_batch = small_network.new_ledger()
    batch = small_network.visit_aggregate_batch(
        peers, query, sink=SINK, ledger=ledger_batch
    )
    assert loop == list(batch)
    assert ledger_loop.snapshot() == ledger_batch.snapshot()


def test_batch_int_seed_reseeds_per_visit(small_network):
    """An int seed re-seeds each visit in both paths identically."""
    query = _query(AggregateOp.COUNT)
    peers = _random_peers(small_network, 40, seed=8)
    ledger_loop = small_network.new_ledger()
    loop = _scalar_loop(
        small_network, peers, query, ledger_loop,
        tuples_per_peer=15, seed=321,
    )
    ledger_batch = small_network.new_ledger()
    batch = small_network.visit_aggregate_batch(
        peers, query, sink=SINK, ledger=ledger_batch,
        tuples_per_peer=15, seed=321,
    )
    assert loop == list(batch)
    assert ledger_loop.snapshot() == ledger_batch.snapshot()


def test_values_batch_matches_scalar(small_network):
    """The median visit ships identical values either way."""
    query = AggregationQuery(agg=AggregateOp.MEDIAN, column="A")
    peers = _random_peers(small_network, 80, seed=9)
    ledger_loop = small_network.new_ledger()
    loop_rng = np.random.default_rng(4)  # ONE stream across all visits
    loop = [
        visit_oracle.oracle_visit_values(
            small_network, int(peer), query, sink=SINK, ledger=ledger_loop,
            tuples_per_peer=25, seed=loop_rng,
        )
        for peer in peers
    ]
    ledger_batch = small_network.new_ledger()
    batch = small_network.visit_values_batch(
        peers, query, sink=SINK, ledger=ledger_batch,
        tuples_per_peer=25, seed=np.random.default_rng(4),
    )
    assert loop == list(batch)
    assert ledger_loop.snapshot() == ledger_batch.snapshot()


def test_batch_unknown_peer(small_network):
    with pytest.raises(ProtocolError):
        small_network.visit_aggregate_batch(
            np.asarray([0, small_network.num_peers], dtype=np.int64),
            _query(AggregateOp.COUNT),
            sink=SINK,
            ledger=small_network.new_ledger(),
        )


def test_batch_empty_peer_list(small_network):
    assert (
        list(
            small_network.visit_aggregate_batch(
                np.asarray([], dtype=np.int64),
                _query(AggregateOp.COUNT),
                sink=SINK,
                ledger=small_network.new_ledger(),
            )
        )
        == []
    )


def test_loss_fallback_matches_scalar(small_topology, small_dataset):
    """With loss injected, the batch call IS the per-peer loop.

    Two simulators built identically replay the same fault plan; the
    batch call on one must reproduce the scalar loop on the other,
    dropped peers included.
    """
    query = _query(AggregateOp.COUNT)
    peers = np.arange(100, dtype=np.int64)

    lossy_a = NetworkSimulator(
        small_topology, small_dataset.databases, seed=17,
        fault_plan=FaultPlan(seed=17, reply_loss=0.3),
    )
    lossy_b = NetworkSimulator(
        small_topology, small_dataset.databases, seed=17,
        fault_plan=FaultPlan(seed=17, reply_loss=0.3),
    )

    ledger_loop = lossy_a.new_ledger()
    loop = []
    for peer in peers:
        try:
            loop.append(
                lossy_a.visit_aggregate(
                    int(peer), query, sink=SINK, ledger=ledger_loop,
                    tuples_per_peer=20, seed=55,
                )
            )
        except PeerUnavailableError:
            continue
    ledger_batch = lossy_b.new_ledger()
    batch = lossy_b.visit_aggregate_batch(
        peers, query, sink=SINK, ledger=ledger_batch,
        tuples_per_peer=20, seed=55,
    )

    assert len(batch) < len(peers)  # some replies were actually lost
    assert loop == list(batch)
    assert ledger_loop.snapshot() == ledger_batch.snapshot()


def test_topology_edge_array_roundtrip(small_topology):
    """from_edge_array rebuilds the CSR bit-identically, so cached
    topologies cannot perturb any walk."""
    from repro.network.topology import Topology

    rebuilt = Topology.from_edge_array(
        small_topology.num_peers, small_topology.edge_array
    )
    assert np.array_equal(small_topology.indices, rebuilt.indices)
    assert np.array_equal(small_topology.indptr, rebuilt.indptr)
    assert np.array_equal(small_topology.edge_array, rebuilt.edge_array)


def test_disk_topology_cache_identical(tmp_path, monkeypatch):
    """A disk-cache hit yields the same topology as a cold build."""
    from repro.experiments import configs

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    configs.clear_cache()
    cold = synthetic_bundle(scale=0.02).topology
    configs.clear_cache()
    warm = synthetic_bundle(scale=0.02).topology  # loaded from disk
    configs.clear_cache()
    assert list(tmp_path.glob("*.npz")), "cache file was not written"
    assert np.array_equal(cold.edge_array, warm.edge_array)
    assert np.array_equal(cold.indices, warm.indices)


@pytest.mark.parametrize("engine", ["two-phase", "bfs", "median"])
def test_run_trials_parallel_matches_serial(engine):
    """``workers=4`` returns exactly the ``workers=1`` outcomes."""
    bundle = synthetic_bundle(scale=0.02)
    if engine == "median":
        query = AggregationQuery(agg=AggregateOp.MEDIAN, column="A")
    else:
        query = _query(AggregateOp.COUNT)
    serial = run_trials(
        bundle, query, 0.1, engine=engine, trials=4, workers=1
    )
    parallel = run_trials(
        bundle, query, 0.1, engine=engine, trials=4, workers=4
    )
    assert serial == parallel


# ---------------------------------------------------------------------------
# The sub-sample stream of a batch read (appended; nothing above edited).
# The draw itself is pinned in tests/test_data_localdb.py::TestKeyedDraw.
# ---------------------------------------------------------------------------

SIZES = [40, 7, 25, 0, 26, 40]  # t = 25 sub-samples peers 0, 4 and 5


@pytest.fixture()
def row_index_network():
    """Six peers whose column ``A`` is the local row index, so a
    ``GROUP BY A`` visit ships the rows it sub-sampled as its groups."""
    from repro.data.localdb import LocalDatabase
    from repro.network.topology import Topology

    return NetworkSimulator(
        Topology(len(SIZES), [(p, p + 1) for p in range(len(SIZES) - 1)]),
        [LocalDatabase({"A": np.arange(size)}) for size in SIZES],
        seed=12,
    )


def test_batch_draws_one_double_per_subsampled_row(row_index_network):
    """A shared generator ends where ``random(sum of sub-sampled n_i)``
    leaves it; peers that ship their whole partition draw nothing."""
    from .conftest import assert_uniforms_consumed

    network, query = row_index_network, _query(AggregateOp.SUM)
    rng = np.random.default_rng(77)
    network.read_aggregates(
        np.arange(len(SIZES)), query, SINK, tuples_per_peer=25, seed=rng
    )
    assert_uniforms_consumed(rng, 77, 40 + 26 + 40)
    network.read_aggregates([1, 2, 3], query, SINK, tuples_per_peer=25, seed=rng)
    network.read_aggregates([0, 4, 5], query, SINK, seed=rng)  # t = 0: all rows
    assert_uniforms_consumed(rng, 77, 40 + 26 + 40)
    # seed=None draws from the simulator's own stream, the same way.
    network.visit_values_batch(
        [5, 1, 0], AggregationQuery(agg=AggregateOp.MEDIAN, column="A"),
        SINK, network.new_ledger(), tuples_per_peer=25,
    )
    assert_uniforms_consumed(network._rng, 12, 40 + 40)


def test_batch_int_seed_gives_equal_sized_peers_equal_rows(row_index_network):
    """An int seed re-seeds per visit: every sub-sampled peer ranks the
    first ``n_i`` doubles of the same freshly seeded stream."""
    visits = GroupVisits(
        row_index_network, parse_query("SELECT COUNT(A) FROM T GROUP BY A"),
        SINK, tuples_per_peer=25, seed=5,
    )
    sample = row_index_network.visit_batch(
        np.arange(len(SIZES)), visits, row_index_network.new_ledger()
    )
    groups = np.split(sample.values[:, 0], np.cumsum(sample["shipped"])[:-1])
    shipped = {
        int(peer): tuple(rows.tolist())
        for peer, rows in zip(sample["source"], groups)
    }
    keys = np.random.default_rng(5).random(40)
    for peer, size in enumerate(SIZES):
        rows = np.sort(np.argsort(keys[:size], kind="stable")[:25])
        assert shipped[peer] == tuple(float(row) for row in rows)
    assert shipped[0] == shipped[5]
