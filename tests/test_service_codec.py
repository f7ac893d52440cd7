"""Round-trip property suite for the sharded reply wire codec.

The slim transport only works if decode(encode(reply)) is the reply,
bit for bit: the serial==sharded parity gates compare estimates, cost
ledgers and counters across the process boundary, so the codec may
not perturb a single float.  Hypothesis builds replies over the full
field space (finite and infinite floats, optional phases/timings,
opaque analysis payloads, and the MEDIAN/QUANTILE and GROUP BY results
the service serves whole) and pins exact equality both ways, plus the
versioning contract: a wire tuple from any other codec version fails
loudly as a :class:`~repro.errors.ServiceError`, never a mis-zip.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.confidence import ConfidenceInterval
from repro.core.groupby import GroupByResult
from repro.core.result import ApproximateResult, MedianResult, PhaseReport
from repro.errors import ReproError, ServiceError
from repro.metrics.cost import QueryCost
from repro.query.parser import parse_query
from repro.service.backend import QueryReply
from repro.service.codec import (
    REPLY_WIRE_VERSION,
    TraceWire,
    decode_reply,
    encode_reply,
    reply_query_id,
)
from repro.service.scheduler import QueryTicket
from repro.sim.timing import QueryTiming

QUERY = parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30")

TICKET = QueryTicket(
    query_id=7,
    query=QUERY,
    delta_req=0.1,
    signature=QUERY.to_sql(),
)

floats = st.floats(allow_nan=False, allow_infinity=True, width=64)
counts = st.integers(min_value=0, max_value=2**40)

costs = st.builds(
    QueryCost,
    messages=counts,
    hops=counts,
    peers_visited=counts,
    distinct_peers=counts,
    tuples_processed=counts,
    tuples_sampled=counts,
    bytes_sent=counts,
    latency_ms=floats,
    timeouts=counts,
)

phases = st.builds(
    PhaseReport,
    peers_visited=counts,
    tuples_sampled=counts,
    hops=counts,
    estimate=st.one_of(st.none(), floats),
)

intervals = st.builds(
    ConfidenceInterval,
    estimate=floats,
    half_width=floats,
    confidence=floats,
)

timings = st.one_of(
    st.none(),
    st.builds(
        QueryTiming,
        started_ms=floats,
        finished_ms=floats,
        deadline_ms=st.one_of(st.none(), floats),
        deadline_missed=st.booleans(),
        epochs_crossed=counts,
        stale_replies=counts,
        staleness_ms=floats,
    ),
)

results = st.builds(
    ApproximateResult,
    query=st.just(QUERY),
    estimate=floats,
    delta_req=floats,
    scale=floats,
    confidence_interval=intervals,
    phase_one=phases,
    phase_two=st.one_of(st.none(), phases),
    cost=costs,
    analysis=st.one_of(st.none(), st.text(max_size=12)),
    requested_sample_size=counts,
    effective_sample_size=counts,
    degraded=st.booleans(),
    timing=timings,
)

#: Every result kind the service serves: the MEDIAN/QUANTILE and GROUP
#: BY ones ride the codec's opaque slot.
served_results = st.one_of(
    results,
    st.builds(
        MedianResult,
        query=st.just(QUERY),
        estimate=floats,
        delta_req=floats,
        rank_error_estimate=floats,
        phase_one=phases,
        phase_two=st.one_of(st.none(), phases),
        cost=costs,
        requested_sample_size=counts,
        effective_sample_size=counts,
        degraded=st.booleans(),
        timing=timings,
    ),
    st.builds(
        GroupByResult,
        query=st.just(QUERY),
        groups=st.dictionaries(
            st.floats(allow_nan=False, allow_infinity=False), floats,
            max_size=5,
        ),
        delta_req=floats,
        phase_one=phases,
        phase_two=st.one_of(st.none(), phases),
        cost=costs,
    ),
)

traces = st.one_of(
    st.none(),
    st.builds(
        TraceWire,
        sha256=st.text(min_size=1, max_size=64),
        canonical_lines=st.lists(st.text(max_size=40), max_size=6).map(
            tuple
        ),
    ),
)


def done_reply(result):
    return QueryReply(
        ticket=TICKET,
        status="done",
        result=result,
        error=None,
        detail="",
        cost=result.cost,
        chunks=3,
        tracer=None,
        warm_runs=1,
        cold_runs=0,
        delta_runs=0,
        cache_hits=1,
        cache_misses=0,
        cache_churn_invalidations=0,
        cache_delta_hits=0,
    )


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(result=served_results, trace=traces)
    def test_done_reply_round_trips_exactly(self, result, trace):
        reply = done_reply(result)
        wire = encode_reply(reply, trace=trace)
        assert reply_query_id(wire) == TICKET.query_id
        decoded, decoded_trace = decode_reply(wire, ticket=TICKET)
        assert decoded == reply
        assert decoded_trace == trace
        if trace is not None:
            # The decoded wire is the parent's trace: TraceLike as is.
            assert decoded_trace.lines == list(trace.canonical_lines)
            assert decoded_trace.num_events == len(trace.canonical_lines)
            assert decoded_trace.digest() == trace.sha256
        # The parent-side result must alias the ticket's query and the
        # reply's own cost object, exactly like a worker-built reply.
        assert decoded.result.query is TICKET.query
        assert decoded.cost is decoded.result.cost

    @settings(max_examples=30, deadline=None)
    @given(
        cost=st.one_of(st.none(), costs),
        status=st.sampled_from(
            ["failed", "budget-exceeded", "deadline-exceeded"]
        ),
        detail=st.text(max_size=30),
        chunks=counts,
    )
    def test_unfinished_reply_round_trips_exactly(
        self, cost, status, detail, chunks
    ):
        error = ReproError("boom") if status == "failed" else None
        reply = QueryReply(
            ticket=TICKET,
            status=status,
            result=None,
            error=error,
            detail=detail,
            cost=cost,
            chunks=chunks,
            tracer=None,
            warm_runs=0,
            cold_runs=1,
            delta_runs=0,
            cache_misses=1,
        )
        decoded, decoded_trace = decode_reply(
            encode_reply(reply, trace=None), ticket=TICKET
        )
        assert decoded_trace is None
        # Errors cross as objects, so identity (not just equality)
        # survives the in-process round trip.
        assert decoded.error is error
        assert decoded == dataclasses.replace(reply, error=decoded.error)
        assert decoded.cost == cost

    def test_opaque_result_passes_through(self):
        median = MedianResult(
            query=QUERY,
            estimate=4.0,
            delta_req=0.1,
            rank_error_estimate=0.02,
            phase_one=PhaseReport(
                peers_visited=5, tuples_sampled=40, hops=9
            ),
            phase_two=None,
            cost=QueryCost(messages=9),
        )
        reply = done_reply(median)
        decoded, _ = decode_reply(
            encode_reply(reply, trace=None), ticket=TICKET
        )
        assert decoded.result is median
        assert decoded.cost is median.cost


class TestVersioning:
    def test_wrong_version_is_refused(self):
        wire = encode_reply(
            done_reply(
                ApproximateResult(
                    query=QUERY,
                    estimate=1.0,
                    delta_req=0.1,
                    scale=10.0,
                    confidence_interval=ConfidenceInterval(1.0, 0.5, 0.95),
                    phase_one=PhaseReport(
                        peers_visited=1, tuples_sampled=1, hops=1
                    ),
                    phase_two=None,
                    cost=QueryCost(),
                )
            ),
            trace=None,
        )
        # Version 1 shipped trace lines in a third trace-slot field and
        # version 2 an event count in place of the lines; a payload
        # from either must fail typed, never mis-zip.
        for version in (1, 2, REPLY_WIRE_VERSION + 1):
            tampered = (version,) + wire[1:8] + (("d", 3, ("x",)),) + wire[9:]
            with pytest.raises(ServiceError, match="version"):
                decode_reply(tampered, ticket=TICKET)
            with pytest.raises(ServiceError, match="version"):
                reply_query_id(tampered)

    def test_malformed_payloads_are_refused(self):
        for payload in [None, 42, "rebound", (), ("x",) * 16]:
            with pytest.raises(ServiceError):
                reply_query_id(payload)

    def test_mismatched_ticket_is_refused(self):
        result = ApproximateResult(
            query=QUERY,
            estimate=1.0,
            delta_req=0.1,
            scale=10.0,
            confidence_interval=ConfidenceInterval(1.0, 0.5, 0.95),
            phase_one=PhaseReport(peers_visited=1, tuples_sampled=1, hops=1),
            phase_two=None,
            cost=QueryCost(),
        )
        wire = encode_reply(done_reply(result), trace=None)
        other = QueryTicket(
            query_id=8,
            query=QUERY,
            delta_req=0.1,
            signature=QUERY.to_sql(),
        )
        with pytest.raises(ServiceError, match="ticket"):
            decode_reply(wire, ticket=other)
