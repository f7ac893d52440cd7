"""Edge cases for :class:`repro.metrics.cost.CostLedger`.

Zero-sized batches, zero-byte payloads and depth-0 floods must all be
exact no-ops (or exact zero charges), and the bulk
``record_visit_replies`` path must stay bit-for-bit identical to the
alternating per-event calls it replaces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.metrics.cost import CostLedger, CostModel, QueryCost


def test_empty_reply_batch_is_a_noop():
    ledger = CostLedger()
    before = ledger.snapshot()
    ledger.record_visit_replies([], [], [])
    assert ledger.snapshot() == before == QueryCost()


def test_empty_reply_batch_accepts_empty_cpu_speeds():
    ledger = CostLedger()
    ledger.record_visit_replies([], [], [], cpu_speeds=[])
    assert ledger.snapshot() == QueryCost()


def test_empty_batch_after_activity_preserves_totals():
    ledger = CostLedger()
    ledger.record_hops(3)
    ledger.record_visit(7, 100)
    before = ledger.snapshot()
    ledger.record_visit_replies(
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
    )
    assert ledger.snapshot() == before


def test_zero_byte_reply_still_counts_the_message():
    ledger = CostLedger()
    ledger.record_reply(0)
    snap = ledger.snapshot()
    assert snap.messages == 1
    assert snap.bytes_sent == 0
    assert snap.latency_ms == 0.0


def test_zero_byte_reply_batch():
    ledger = CostLedger()
    ledger.record_visit_replies([1, 2], [0, 0], [0, 0])
    snap = ledger.snapshot()
    assert snap.messages == 2
    assert snap.bytes_sent == 0
    assert snap.peers_visited == snap.distinct_peers == 2
    # only the fixed visit overhead is charged
    assert snap.latency_ms == 2 * ledger.model.visit_overhead_ms


def test_flood_depth_zero_adds_no_latency():
    ledger = CostLedger()
    ledger.record_flood_depth(0)
    assert ledger.snapshot() == QueryCost()


def test_zero_hops_is_a_noop():
    ledger = CostLedger()
    ledger.record_hops(0)
    assert ledger.snapshot() == QueryCost()


def test_zero_byte_flood_message():
    ledger = CostLedger()
    ledger.record_flood_message(0)
    snap = ledger.snapshot()
    assert snap.messages == 1
    assert snap.bytes_sent == 0
    assert snap.latency_ms == 0.0


@pytest.mark.parametrize(
    "call, args",
    [
        ("record_hops", (-1,)),
        ("record_flood_depth", (-1,)),
        ("record_reply", (-1,)),
        ("record_flood_message", (-1,)),
        ("record_visit", (0, -1)),
        ("record_visit", (0, 0, -1.0)),  # a negative CPU speed
    ],
)
def test_negative_quantities_are_rejected(call, args):
    ledger = CostLedger()
    with pytest.raises(ConfigurationError):
        getattr(ledger, call)(*args)


def test_misaligned_batch_arrays_are_rejected():
    ledger = CostLedger()
    with pytest.raises(ConfigurationError):
        ledger.record_visit_replies([1, 2], [0], [0, 0])
    with pytest.raises(ConfigurationError):
        ledger.record_visit_replies([1], [0], [0], cpu_speeds=[1.0, 1.0])


def test_batch_matches_per_event_path_bit_for_bit():
    model = CostModel(
        hop_latency_ms=13.0,
        byte_latency_ms=0.003,
        tuple_processing_ms=0.017,
        visit_overhead_ms=19.0,
    )
    rng = np.random.default_rng(20060406)
    # 500 entries: long enough that any re-association of the latency
    # sum (pairwise, blocked) would round differently from the replay.
    for size in (40, 500):
        peers = rng.integers(0, 50, size=size)
        processed = rng.integers(0, 1000, size=size)
        payloads = rng.integers(0, 4096, size=size)
        speeds = rng.uniform(0.5, 3.0, size=size)

        batch = CostLedger(model)
        batch.record_hops(5)
        batch.record_visit_replies(peers, processed, payloads, speeds)

        scalar = CostLedger(model)
        scalar.record_hops(5)
        for p, tp, by, sp in zip(peers, processed, payloads, speeds):
            scalar.record_visit(int(p), int(tp), float(sp))
            scalar.record_reply(int(by))

        assert batch.snapshot() == scalar.snapshot()


@settings(max_examples=100, deadline=None)
@given(
    size=st.integers(0, 300),
    reply_bytes=st.integers(0, 4096),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_scalar_reply_bytes_and_shared_tuple_counts_leave_the_same_ledger(
    size, reply_bytes, data_seed
):
    """Every aggregate reply has one size, and a visit samples what it
    processes: a scalar ``reply_bytes`` must charge exactly what the
    per-peer array did, and the one tuple count is both of
    ``QueryCost``'s."""
    rng = np.random.default_rng(data_seed)
    peers = rng.integers(0, 50, size=size)
    processed = rng.integers(0, 1000, size=size)
    speeds = rng.uniform(0.5, 3.0, size=size)

    arrays = CostLedger()
    arrays.record_hops(5)
    arrays.record_visit_replies(
        peers, processed, np.full(size, reply_bytes, dtype=np.int64), speeds
    )
    scalar = CostLedger()
    scalar.record_hops(5)
    scalar.record_visit_replies(peers, processed, reply_bytes, speeds)
    cost = scalar.snapshot()
    assert cost == arrays.snapshot()
    assert cost.tuples_sampled == cost.tuples_processed == processed.sum()


def test_scalar_and_shared_arguments_are_still_checked():
    ledger = CostLedger()
    with pytest.raises(ConfigurationError, match="payload_bytes"):
        ledger.record_visit_replies([1, 2], [3, 4], -1)
    with pytest.raises(ConfigurationError, match="tuple counts"):
        ledger.record_visit_replies([1, 2], np.array([3, -4]), 66)
    with pytest.raises(ConfigurationError, match="align"):
        ledger.record_visit_replies([1, 2], [3, 4], [66])
    assert ledger.snapshot() == QueryCost()
