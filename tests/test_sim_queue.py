"""Property suite for the discrete-event queue and virtual clock.

The kernel's whole correctness story reduces to one invariant: events
leave the queue in ``(time, seq)`` total order, under *any*
interleaving of schedules, cancels and pops.  Hypothesis drives
arbitrary interleavings against a sorted-list model; the same
programs replayed must be bit-identical (the replay half of the
keystone invariant).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sim.clock import VirtualClock
from repro.sim.queue import EventHandle, EventQueue

# One queue program: a list of operations applied in order.
#   ("schedule", time_ms)  — schedule a payload at time_ms
#   ("cancel", k)          — cancel the k-th scheduled handle (mod count)
#   ("pop",)               — pop the earliest live event
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("schedule"),
            st.floats(
                min_value=0.0,
                max_value=1e6,
                allow_nan=False,
                allow_infinity=False,
            ),
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0)),
        st.tuples(st.just("pop")),
    ),
    max_size=80,
)


def _run_program(ops):
    """Execute one op list; returns the pop order and the model's.

    The model is the sorted multiset of live ``(time, seq)`` keys —
    what a correct queue must pop next at every step.
    """
    queue = EventQueue()
    handles = []
    live = {}  # seq -> (time, seq)
    popped = []
    expected = []
    for op in ops:
        if op[0] == "schedule":
            handle = queue.schedule(op[1], payload=len(handles))
            handles.append(handle)
            live[handle.seq] = handle.sort_key
        elif op[0] == "cancel":
            if not handles:
                continue
            handle = handles[op[1] % len(handles)]
            queue.cancel(handle)
            live.pop(handle.seq, None)
        else:
            event = queue.pop()
            if live:
                expected.append(min(live.values()))
            else:
                assert event is None
                continue
            assert event is not None
            popped.append(event.sort_key)
            live.pop(event.seq)
    return popped, expected


class TestTotalOrder:
    @given(ops=_OPS)
    @settings(max_examples=200, deadline=None)
    def test_pops_follow_time_seq_total_order(self, ops):
        """Any schedule/cancel/pop interleaving pops the live minimum
        of the ``(time, seq)`` order — never a cancelled entry, never
        out of order."""
        popped, expected = _run_program(ops)
        assert popped == expected

    @given(ops=_OPS)
    @settings(max_examples=100, deadline=None)
    def test_same_program_replays_bit_identical(self, ops):
        """Replaying the identical program yields the identical pop
        sequence — no hidden state, no iteration-order dependence."""
        assert _run_program(ops) == _run_program(ops)

    @given(
        times=st.lists(
            st.floats(
                min_value=0.0,
                max_value=100.0,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=2,
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_ties_break_by_schedule_order(self, times):
        """Equal times pop in schedule order (seq is the tiebreaker),
        so simultaneous events have a deterministic total order."""
        queue = EventQueue()
        for time_ms in times:
            queue.schedule(time_ms, payload=None)
        drained = []
        while queue:
            event = queue.pop()
            drained.append((event.time_ms, event.seq))
        assert drained == sorted(drained)
        assert len(drained) == len(times)


class TestQueueBasics:
    def test_len_counts_live_entries_only(self):
        queue = EventQueue()
        first = queue.schedule(5.0, payload="a")
        queue.schedule(1.0, payload="b")
        assert len(queue) == 2
        assert queue.cancel(first)
        assert len(queue) == 1
        assert not queue.cancel(first)  # second cancel is a no-op
        assert queue.pop().payload == "b"
        assert len(queue) == 0
        assert queue.pop() is None
        assert not queue

    def test_peek_does_not_consume(self):
        queue = EventQueue()
        queue.schedule(3.0, payload="x")
        assert queue.peek().payload == "x"
        assert len(queue) == 1
        assert queue.pop().payload == "x"
        assert queue.peek() is None

    def test_peek_skips_cancelled_head(self):
        queue = EventQueue()
        head = queue.schedule(1.0, payload="dead")
        queue.schedule(2.0, payload="live")
        queue.cancel(head)
        assert queue.peek().payload == "live"

    def test_handle_exposes_sort_key(self):
        handle = EventHandle(time_ms=4.0, seq=7, payload=None)
        assert handle.sort_key == (4.0, 7)


class TestVirtualClock:
    def test_starts_at_zero_and_advances(self):
        clock = VirtualClock()
        assert clock.now_ms == 0.0
        clock.advance_to(10.0)
        clock.advance_to(10.0)  # idempotent
        assert clock.read() == 10.0

    def test_rejects_backwards_and_non_finite(self):
        clock = VirtualClock(5.0)
        with pytest.raises(ConfigurationError):
            clock.advance_to(4.0)
        with pytest.raises(ConfigurationError):
            clock.advance_to(math.nan)
        with pytest.raises(ConfigurationError):
            clock.advance_to(math.inf)

    @given(
        steps=st.lists(
            st.floats(
                min_value=0.0,
                max_value=1e3,
                allow_nan=False,
                allow_infinity=False,
            ),
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_under_any_step_sequence(self, steps):
        clock = VirtualClock()
        now = 0.0
        for step in steps:
            now += step
            clock.advance_to(now)
            assert clock.now_ms == now
