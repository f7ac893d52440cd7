"""Unit tests for repro.network.protocol."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError, SamplingError
from repro.network.protocol import (
    GNUTELLA_HEADER_BYTES,
    AggregateReply,
    GroupReply,
    Message,
    MessageType,
    Ping,
    Pong,
    Query,
    QueryHit,
    TupleReply,
    ValueSample,
    WalkerProbe,
    group_reply_bytes,
    tuple_reply_bytes,
)


class TestMessageBasics:
    def test_ping_type_and_size(self):
        ping = Ping(source=0, destination=1)
        assert ping.message_type is MessageType.PING
        assert ping.size_bytes() == GNUTELLA_HEADER_BYTES

    def test_pong_payload(self):
        pong = Pong(source=1, destination=0, ip="10.0.0.1", port=6346)
        assert pong.message_type is MessageType.PONG
        assert pong.size_bytes() == GNUTELLA_HEADER_BYTES + 14

    def test_query_size_tracks_text(self):
        short = Query(source=0, destination=1, text="a")
        long = Query(source=0, destination=1, text="a" * 50)
        assert long.size_bytes() - short.size_bytes() == 49

    def test_query_hit_size_tracks_hits(self):
        none = QueryHit(source=0, destination=1, num_hits=0)
        some = QueryHit(source=0, destination=1, num_hits=5)
        assert some.size_bytes() - none.size_bytes() == 40

    def test_message_ids_unique(self):
        a = Ping(source=0, destination=1)
        b = Ping(source=0, destination=1)
        assert a.message_id != b.message_id

    def test_negative_source_rejected(self):
        with pytest.raises(ProtocolError):
            Ping(source=-1, destination=0)

    def test_negative_ttl_rejected(self):
        with pytest.raises(ProtocolError):
            Ping(source=0, destination=1, ttl=-1)

    def test_negative_hops_rejected(self):
        with pytest.raises(ProtocolError):
            Ping(source=0, destination=1, hops=-2)


class TestForwarding:
    def test_forwarded_advances_hop_and_ttl(self):
        query = Query(source=0, destination=1, ttl=5, text="x")
        forwarded = query.forwarded(1, 2)
        assert forwarded.source == 1
        assert forwarded.destination == 2
        assert forwarded.ttl == 4
        assert forwarded.hops == 1

    def test_forwarded_preserves_id(self):
        query = Query(source=0, destination=1, text="x")
        assert query.forwarded(1, 2).message_id == query.message_id

    def test_forward_at_zero_ttl_rejected(self):
        query = Query(source=0, destination=1, ttl=0, text="x")
        with pytest.raises(ProtocolError):
            query.forwarded(1, 2)

    def test_forward_chain(self):
        message = Ping(source=0, destination=1, ttl=3)
        for expected_hops in (1, 2, 3):
            message = message.forwarded(
                message.destination, message.destination + 1
            )
            assert message.hops == expected_hops


class TestSamplingMessages:
    def test_walker_probe_fields(self):
        probe = WalkerProbe(
            source=0, destination=1, sink=0,
            query_text="SELECT COUNT(A) FROM T", tuples_per_peer=25,
        )
        assert probe.message_type is MessageType.WALKER_PROBE
        assert probe.size_bytes() > GNUTELLA_HEADER_BYTES

    def test_aggregate_reply_fixed_size(self):
        reply = AggregateReply(
            source=3, destination=0, aggregate_value=42.0,
            matching_count=17.0, column_total=100.0,
            degree=4, local_tuples=100, processed_tuples=25,
        )
        assert reply.message_type is MessageType.AGGREGATE_REPLY
        assert reply.size_bytes() == GNUTELLA_HEADER_BYTES + 44

    def test_tuple_reply_size_scales_with_values(self):
        small = TupleReply(source=3, destination=0, values=(1.0,))
        large = TupleReply(
            source=3, destination=0, values=tuple(float(i) for i in range(10))
        )
        assert large.size_bytes() - small.size_bytes() == 72

    def test_tuple_reply_empty_values(self):
        reply = TupleReply(source=3, destination=0, values=())
        assert reply.size_bytes() == GNUTELLA_HEADER_BYTES + 12

    def test_messages_are_immutable(self):
        reply = AggregateReply(source=3, destination=0)
        with pytest.raises(AttributeError):
            # reprolint: disable=RL003 -- asserts frozen messages reject mutation
            reply.aggregate_value = 1.0


# A values reply as the sink sees it: its fields and what it shipped
# (empty rows and zero-value peers included).
value_replies = st.lists(
    st.builds(
        TupleReply,
        source=st.integers(0, 999),
        destination=st.just(0),
        values=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), max_size=6
        ).map(tuple),
        degree=st.integers(1, 50),
        local_tuples=st.integers(0, 500),
        processed_tuples=st.integers(0, 50),
    ),
    max_size=12,
)


def _payload(reply):
    return (
        reply.source,
        reply.destination,
        reply.values,
        reply.degree,
        reply.local_tuples,
        reply.processed_tuples,
    )


class TestWireSizeRule:
    """One size rule per reply kind: the count-vectorised function a
    batch visit charges is what ``size_bytes()`` reads, row for row."""

    COUNTS = [0, 1, 7]

    def test_tuple_reply(self):
        assert tuple_reply_bytes(self.COUNTS).tolist() == [
            TupleReply(
                source=1, destination=0, values=(2.5,) * count
            ).size_bytes()
            for count in self.COUNTS
        ]

    def test_group_reply(self):
        assert group_reply_bytes(self.COUNTS).tolist() == [
            GroupReply(
                source=1, destination=0, entries=((1.0, 2.0, 3.0),) * count
            ).size_bytes()
            for count in self.COUNTS
        ]

    def test_scalar_count(self):
        assert int(tuple_reply_bytes(3)) == GNUTELLA_HEADER_BYTES + 12 + 24
        assert int(group_reply_bytes(2)) == GNUTELLA_HEADER_BYTES + 12 + 48


class TestValueSampleEqualsRows:
    """A :class:`ValueSample` is the list of its ``TupleReply`` rows:
    building, taking, concatenating and iterating it agree with doing
    the same to the list."""

    @given(value_replies)
    @settings(max_examples=80, deadline=None)
    def test_from_replies_round_trips(self, replies):
        sample = ValueSample.from_replies(replies, 0)
        assert len(sample) == len(replies)
        assert [_payload(r) for r in sample] == [_payload(r) for r in replies]
        assert sample.values.tolist() == [v for r in replies for v in r.values]
        assert sample["shipped"].tolist() == [len(r.values) for r in replies]
        assert [
            tuple(sample.values[start:start + shipped])
            for start, shipped in zip(sample.offsets, sample["shipped"])
        ] == [r.values for r in replies]
        assert sample["source"].tolist() == [r.source for r in replies]

    @given(value_replies, st.data())
    @settings(max_examples=80, deadline=None)
    def test_take_is_the_rows_at_the_indices(self, replies, data):
        sample = ValueSample.from_replies(replies, 0).with_probability(
            [1.0 / (1 + r.degree) for r in replies]
        )
        indices = np.asarray(
            data.draw(
                st.lists(st.integers(0, max(len(replies) - 1, 0)))
                if replies
                else st.just([])
            ),
            dtype=np.intp,
        )
        taken = sample.take(indices)
        assert [_payload(r) for r in taken] == [
            _payload(replies[i]) for i in indices
        ]
        assert taken["probability"].tolist() == [
            1.0 / (1 + replies[i].degree) for i in indices
        ]

    @given(value_replies, value_replies)
    @settings(max_examples=80, deadline=None)
    def test_concat_is_the_rows_back_to_back(self, first, second):
        # An odd split, a whole half and an empty one all occur.
        pooled = ValueSample.concat(
            [
                ValueSample.from_replies(first, 0),
                ValueSample.from_replies(second, 0),
            ]
        )
        assert [_payload(r) for r in pooled] == [
            _payload(r) for r in first + second
        ]
        halves = ValueSample.concat(
            [
                pooled.take(np.arange(len(first))),
                pooled.take(np.arange(len(first), len(pooled))),
            ]
        )
        assert halves.values.tolist() == pooled.values.tolist()
        assert halves["shipped"].tolist() == pooled["shipped"].tolist()

    def test_columns_are_read_only(self):
        sample = ValueSample.from_columns(
            0, 2, values=[1.0, 2.0], source=[3, 4], shipped=[2, 0]
        )
        with pytest.raises(ValueError):
            sample.values[0] = 9.0
        with pytest.raises(ValueError):
            sample["source"][0] = 9
        assert [r.values for r in sample] == [(1.0, 2.0), ()]
        with pytest.raises(SamplingError):
            sample["probability"]
