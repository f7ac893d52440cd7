"""Direct probes of the transport layers (codec, shm, fork pool).

These layers only work for a living on the sharded workload, and there
mostly inside worker processes the span recorder cannot see, so they
are measured by calling them directly — on replies captured from the
workload and on the workload's own snapshot.
"""

from __future__ import annotations

import pickle
import statistics
import time
from typing import Any, Dict, Sequence

from repro._pool import ForkPool
from repro.network.simulator import NetworkSimulator
from repro.service.backend import QueryReply
from repro.service.codec import decode_reply, encode_reply
from repro.service.service import QueryOutcome
from repro.service.shm import attach_snapshot, export_snapshot

__all__ = ["codec_probe", "pool_probe", "shm_probe"]

_REPEATS = 5


def _reply_of(outcome: QueryOutcome) -> QueryReply:
    """The reply shape a worker would encode for ``outcome``."""
    return QueryReply(
        ticket=outcome.ticket,
        status=outcome.status,
        result=outcome.result,
        error=outcome.error,
        detail=outcome.detail,
        cost=outcome.cost,
        chunks=outcome.chunks,
        tracer=None,
        warm_runs=0,
        cold_runs=1,
        delta_runs=0,
    )


def codec_probe(outcomes: Sequence[QueryOutcome]) -> Dict[str, float]:
    """Encode/decode cost and wire size per reply of the workload."""
    replies = [_reply_of(outcome) for outcome in outcomes]
    encode_s = []
    decode_s = []
    wires: Sequence[Any] = ()
    for _ in range(_REPEATS):
        started = time.perf_counter()
        wires = [encode_reply(reply, trace=None) for reply in replies]
        encoded = time.perf_counter()
        for wire, reply in zip(wires, replies):
            decode_reply(wire, ticket=reply.ticket)
        decode_s.append(time.perf_counter() - encoded)
        encode_s.append(encoded - started)
    wire_bytes = [
        len(pickle.dumps(wire, pickle.HIGHEST_PROTOCOL)) for wire in wires
    ]
    per_reply = 1e6 / len(replies)
    return {
        "codec.encode_us": statistics.median(encode_s) * per_reply,
        "codec.decode_us": statistics.median(decode_s) * per_reply,
        "codec.wire_bytes": statistics.fmean(wire_bytes),
    }


def shm_probe(simulator: NetworkSimulator) -> Dict[str, float]:
    """Export the snapshot to a segment and map it back, timed."""
    export_s = []
    attach_s = []
    segment_bytes = 0
    for _ in range(_REPEATS):
        started = time.perf_counter()
        pack = export_snapshot(simulator)
        try:
            exported = time.perf_counter()
            view = attach_snapshot(pack.manifest)
            attach_s.append(time.perf_counter() - exported)
            export_s.append(exported - started)
            segment_bytes = pack.manifest.nbytes
            view.close()
        finally:
            pack.close()
            pack.unlink()
    return {
        "shm.export_ms": statistics.median(export_s) * 1e3,
        "shm.attach_ms": statistics.median(attach_s) * 1e3,
        "shm.segment_mb": segment_bytes / 2**20,
    }


def _echo(item: Any) -> Any:
    return item


def pool_probe(workers: int, roundtrips: int = 200) -> Dict[str, float]:
    """Fork a pool of ``workers`` and bounce small messages off it."""
    fork_s = []
    roundtrip_s = []
    for _ in range(_REPEATS):
        started = time.perf_counter()
        pool = ForkPool(workers, _echo, name="bench-probe")
        try:
            # The first reply proves every worker is up and serving.
            pool.broadcast(0, None)
            for _ in range(workers):
                pool.recv()
            fork_s.append(time.perf_counter() - started)
            for index in range(roundtrips):
                sent = time.perf_counter()
                pool.send(index % workers, index, index)
                pool.recv()
                roundtrip_s.append(time.perf_counter() - sent)
        finally:
            pool.close()
    return {
        "pool.fork_ms": statistics.median(fork_s) * 1e3,
        "pool.roundtrip_us": statistics.median(roundtrip_s) * 1e6,
    }
