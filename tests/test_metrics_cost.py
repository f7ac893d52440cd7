"""Unit tests for repro.metrics.cost."""

import pytest

from repro.errors import ConfigurationError
from repro.metrics.cost import CostLedger, CostModel, QueryCost


class TestCostModel:
    def test_defaults(self):
        model = CostModel()
        assert model.hop_latency_ms > 0
        assert model.visit_overhead_ms > 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CostModel(hop_latency_ms=-1)
        with pytest.raises(ConfigurationError):
            CostModel(byte_latency_ms=-0.1)

    def test_zero_costs_allowed(self):
        model = CostModel(
            hop_latency_ms=0, byte_latency_ms=0,
            tuple_processing_ms=0, visit_overhead_ms=0,
        )
        assert model.hop_latency_ms == 0


class TestQueryCost:
    def test_addition(self):
        a = QueryCost(messages=2, hops=1, peers_visited=1,
                      distinct_peers=1, tuples_processed=10,
                      tuples_sampled=10, bytes_sent=100, latency_ms=5.0)
        b = QueryCost(messages=3, hops=2, peers_visited=2,
                      distinct_peers=2, tuples_processed=20,
                      tuples_sampled=20, bytes_sent=200, latency_ms=7.0)
        total = a + b
        assert total.messages == 5
        assert total.hops == 3
        assert total.peers_visited == 3
        assert total.latency_ms == 12.0

    def test_default_is_zero(self):
        cost = QueryCost()
        assert cost.messages == 0
        assert cost.latency_ms == 0.0


class TestCostLedger:
    def test_record_hops(self):
        ledger = CostLedger(CostModel(hop_latency_ms=10, byte_latency_ms=0))
        ledger.record_hops(5, message_bytes=30)
        cost = ledger.snapshot()
        assert cost.hops == 5
        assert cost.messages == 5
        assert cost.bytes_sent == 150
        assert cost.latency_ms == 50.0

    def test_byte_latency_in_hops(self):
        ledger = CostLedger(
            CostModel(hop_latency_ms=0, byte_latency_ms=0.5)
        )
        ledger.record_hops(2, message_bytes=10)
        assert ledger.snapshot().latency_ms == 10.0

    def test_record_visit(self):
        model = CostModel(visit_overhead_ms=20, tuple_processing_ms=1)
        ledger = CostLedger(model)
        ledger.record_visit(3, tuples_processed=10)
        cost = ledger.snapshot()
        assert cost.peers_visited == 1
        assert cost.distinct_peers == 1
        assert cost.tuples_processed == 10
        assert cost.tuples_sampled == 10  # a visit samples what it processes
        assert cost.latency_ms == 30.0

    def test_slow_cpu_takes_longer(self):
        model = CostModel(visit_overhead_ms=0, tuple_processing_ms=1)
        fast = CostLedger(model)
        fast.record_visit(0, 100, cpu_speed=2.0)
        slow = CostLedger(model)
        slow.record_visit(0, 100, cpu_speed=0.5)
        assert slow.snapshot().latency_ms == 4 * fast.snapshot().latency_ms

    def test_distinct_vs_visits(self):
        ledger = CostLedger()
        ledger.record_visit(1, 0)
        ledger.record_visit(1, 0)
        ledger.record_visit(2, 0)
        cost = ledger.snapshot()
        assert cost.peers_visited == 3
        assert cost.distinct_peers == 2

    def test_record_reply(self):
        ledger = CostLedger(CostModel(byte_latency_ms=0.1))
        ledger.record_reply(100)
        cost = ledger.snapshot()
        assert cost.messages == 1
        assert cost.bytes_sent == 100
        assert cost.latency_ms == pytest.approx(10.0)

    def test_flood_accounting(self):
        ledger = CostLedger(CostModel(hop_latency_ms=10))
        for _ in range(6):
            ledger.record_flood_message(25)
        ledger.record_flood_depth(3)
        cost = ledger.snapshot()
        assert cost.messages == 6
        assert cost.bytes_sent == 150
        assert cost.latency_ms == 30.0  # depth-based, not per message

    def test_validations(self):
        ledger = CostLedger()
        with pytest.raises(ConfigurationError):
            ledger.record_hops(-1)
        with pytest.raises(ConfigurationError):
            ledger.record_visit(0, -1)
        with pytest.raises(ConfigurationError):
            ledger.record_visit(0, 0, cpu_speed=0)
        with pytest.raises(ConfigurationError):
            ledger.record_reply(-1)
        with pytest.raises(ConfigurationError):
            ledger.record_flood_message(-1)
        with pytest.raises(ConfigurationError):
            ledger.record_flood_depth(-1)

    def test_snapshot_is_immutable_view(self):
        ledger = CostLedger()
        before = ledger.snapshot()
        ledger.record_hops(3)
        after = ledger.snapshot()
        assert before.hops == 0
        assert after.hops == 3

    def test_model_property(self):
        model = CostModel(hop_latency_ms=1)
        assert CostLedger(model).model is model
