"""Per-message latency distributions on the counter-hash discipline.

Each draw is a pure function of ``(model seed, message counter, peer,
kind, leg)`` through the same splitmix64 hash
:mod:`repro.network.faults` uses for fault decisions — no Generator
stream is consumed, so arming latency cannot shift a single sampling
draw.  The message counter is owned by the kernel and advances once
per message, which is what makes a latency schedule replay
bit-identically regardless of how probes interleave.

A model whose every distribution is provably zero is *null*
(:attr:`LatencyModel.is_null`): the event-driven simulator treats it
exactly like no model at all, which is the literal form of the
keystone invariant "zero latency == synchronous".
"""

from __future__ import annotations

import dataclasses
import math
from typing import ClassVar, Final

import numpy as np

from ..errors import ConfigurationError
from ..network.faults import (
    counter_prefix,
    counter_tail,
    counter_uniforms,
    kind_code,
)

__all__ = [
    "ZERO_LATENCY",
    "ConstantLatency",
    "ExponentialLatency",
    "LatencyDistribution",
    "LatencyModel",
    "UniformLatency",
]

# Hash-domain separators for the three legs of a message's journey.
_REQUEST_LEG: Final = 0
_REPLY_LEG: Final = 1
_HOP_LEG: Final = 2


class LatencyDistribution:
    """Maps a uniform draw in ``[0, 1)`` to a delay in milliseconds."""

    #: Whether :meth:`sample_ms` reads its uniform.  A distribution
    #: that does not is one number, and nothing is hashed to draw it.
    reads_uniform: ClassVar[bool] = True

    def sample_ms(self, u: float) -> float:
        """The delay for uniform draw ``u``."""
        raise NotImplementedError

    @property
    def is_null(self) -> bool:
        """Whether every draw is provably zero."""
        raise NotImplementedError


@dataclasses.dataclass(frozen=True)
class ConstantLatency(LatencyDistribution):
    """Every message takes exactly ``ms`` milliseconds."""

    reads_uniform: ClassVar[bool] = False

    ms: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.ms) or self.ms < 0.0:
            raise ConfigurationError(
                f"ms must be finite and >= 0, got {self.ms}"
            )

    def sample_ms(self, u: float) -> float:
        return self.ms

    @property
    def is_null(self) -> bool:
        return not self.ms > 0.0


@dataclasses.dataclass(frozen=True)
class UniformLatency(LatencyDistribution):
    """Delays uniform on ``[low_ms, high_ms]``."""

    low_ms: float
    high_ms: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.low_ms) and math.isfinite(self.high_ms)):
            raise ConfigurationError("latency bounds must be finite")
        if self.low_ms < 0.0 or self.high_ms < self.low_ms:
            raise ConfigurationError(
                f"need 0 <= low_ms <= high_ms, got "
                f"[{self.low_ms}, {self.high_ms}]"
            )

    def sample_ms(self, u: float) -> float:
        return self.low_ms + u * (self.high_ms - self.low_ms)

    @property
    def is_null(self) -> bool:
        return not self.high_ms > 0.0


@dataclasses.dataclass(frozen=True)
class ExponentialLatency(LatencyDistribution):
    """Exponential delays with the given mean (inverse-CDF sampled)."""

    mean_ms: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean_ms) or self.mean_ms < 0.0:
            raise ConfigurationError(
                f"mean_ms must be finite and >= 0, got {self.mean_ms}"
            )

    def sample_ms(self, u: float) -> float:
        if not self.mean_ms > 0.0:
            return 0.0
        return -self.mean_ms * math.log1p(-u)

    @property
    def is_null(self) -> bool:
        return not self.mean_ms > 0.0


#: Shared zero distribution, used as the dataclass default below.
ZERO_LATENCY: Final = ConstantLatency()


@dataclasses.dataclass(frozen=True)
class LatencyModel:
    """Latency for the three message legs of the simulated network.

    ``request``/``reply`` shape a probe's round trip (drawn separately
    per leg so asymmetric links are expressible); ``hop`` shapes walk
    forwarding, drawn once per hop.  All draws are keyed by the
    kernel's per-session message counter, so a session's latency
    schedule is frozen at construction time.
    """

    seed: int = 0
    request: LatencyDistribution = ZERO_LATENCY
    reply: LatencyDistribution = ZERO_LATENCY
    hop: LatencyDistribution = ZERO_LATENCY

    @property
    def is_null(self) -> bool:
        """Whether the model is indistinguishable from no latency."""
        return (
            self.request.is_null
            and self.reply.is_null
            and self.hop.is_null
        )

    def probe_delay_ms(self, message: int, peer: int, kind: str) -> float:
        """Round-trip delay of probe ``message`` to ``peer``.

        The request leg draws ``counter_uniform(seed, message, peer,
        kind code, 0)`` and the reply leg the same key ending in 1, so
        the shared prefix is hashed once and each leg finishes it.
        """
        legs = counter_prefix(self.seed, message, peer, kind_code(kind))
        request = self.request.sample_ms(counter_tail(legs, _REQUEST_LEG))
        reply = self.reply.sample_ms(counter_tail(legs, _REPLY_LEG))
        return request + reply

    def hop_delay_ms(self, message: int, hops: int) -> float:
        """Total forwarding delay of a ``hops``-hop walk segment.

        Hop ``i`` draws ``counter_uniform(seed, message, i, hop leg)``;
        the segment's uniforms come from one vectorised hash call and
        the delays are summed left to right, so the total is
        bit-identical to hashing and adding hop by hop.  A hop
        distribution that ignores its uniform hashes nothing: the
        total is the same left-to-right sum of ``hops`` equal delays
        (not ``hops * ms``, which rounds differently).
        """
        hop = self.hop
        if hops <= 0 or hop.is_null:
            return 0.0
        if not hop.reads_uniform:
            return float(np.cumsum(np.full(hops, hop.sample_ms(0.0)))[-1])
        uniforms = counter_uniforms(
            self.seed, message, np.arange(hops, dtype=np.uint64), _HOP_LEG
        )
        sample_ms = hop.sample_ms
        total = 0.0
        for u in uniforms.tolist():
            total += sample_ms(u)
        return total
