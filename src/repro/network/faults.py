"""Deterministic fault injection for the simulated P2P network.

The paper's premise is that peers "depart without a priori
notification" (§1, §3.1).  Beyond a uniform loss of replies, real
unstructured overlays exhibit peers that crash *mid-walk* and stay
down, whole regions partitioning away at once, and latency spikes that
make a probe indistinguishable from a departure until a timeout fires.

:class:`FaultPlan` is a declarative, seeded schedule of such failures,
and the simulator's only failure model (a uniform loss rate ``r`` is
``FaultPlan(seed, reply_loss=r)``):

* **crash windows** — a peer is unreachable for every probe whose step
  index falls inside ``[start, stop)``;
* **regional outages** — the BFS ball of ``radius`` hops around a
  center peer crashes together (a correlated partition);
* **per-message-type reply loss** — independent loss coins, with
  different rates per probe kind (``"aggregate"``, ``"values"``,
  ``"group"``, ...);
* **latency spikes** — a probe occasionally takes ``extra_ms`` longer;
  when a :attr:`FaultPlan.probe_timeout_ms` is configured and the
  spike exceeds it, the probe *times out* instead of completing.

Determinism contract
--------------------

Every stochastic decision is a pure function of
``(plan seed, step index, peer id, message kind)`` via a counter-based
hash (splitmix64) — **no shared RNG stream is consumed**.  The step
index is a monotone clock advanced once per probe by the simulator, so
a plan replays bit-identically across runs, and the batch and scalar
visit paths (which probe the same peers in the same order) see the
same losses, the same crashes and the same ledger totals.

The simulator clock can be started at an offset
(:meth:`FaultPlan.bind` with ``clock_start``), which is how fault
schedules *compose with live-network epochs*: a
:class:`~repro.network.live.LiveNetwork` threads the clock through
successive snapshots so a crash window can begin in one churn epoch
and persist into the next.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple, Union, cast

import numpy as np

from .._util import check_positive_finite
from ..errors import ConfigurationError
from ..obs.events import FaultEvent
from ..obs.tracer import active_tracer
from .topology import Topology

__all__ = [
    "MESSAGE_KINDS",
    "CrashWindow",
    "RegionalOutage",
    "LatencySpike",
    "FaultDecision",
    "FaultPlan",
    "FaultState",
    "counter_prefix",
    "counter_tail",
    "counter_uniform",
    "counter_uniforms",
    "kind_code",
    "splitmix64",
]

#: Probe kinds a plan can schedule faults for, with their hash codes
#: (a kind's position is its code in the counter hash, so the list only
#: grows: ``"ping"`` keeps its code though nothing sends one).
MESSAGE_KINDS: Tuple[str, ...] = (
    "aggregate",
    "values",
    "group",
    "multi",
    "ping",
    "flood",
)
_KIND_CODES: Dict[str, int] = {
    kind: code for code, kind in enumerate(MESSAGE_KINDS, start=1)
}

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One splitmix64 round — the counter-hash behind every decision."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _prefix(seed: int, *parts: int) -> int:
    """The hash state after absorbing ``(seed, *parts)``.

    Draws whose keys differ only in their last part share everything
    up to it: hash the common prefix once and finish each draw with
    :func:`_tail`.
    """
    x = seed & _MASK64
    for part in parts:
        x = _splitmix64(x ^ (part & _MASK64))
    return x


def _tail(prefix: int, last: int) -> float:
    """The uniform a :func:`_prefix` state yields for one more part:
    ``_tail(_prefix(seed, *parts), last)`` *is*
    ``_uniform(seed, *parts, last)`` — the same rounds, the same
    ``/ 2**64``."""
    return _splitmix64(_splitmix64(prefix ^ (last & _MASK64))) / 2.0**64


def _uniform(seed: int, *parts: int) -> float:
    """A uniform draw in ``[0, 1)`` keyed purely by ``(seed, *parts)``.

    Pure counter hashing (no stream) is what makes fault schedules
    replay bit-identically regardless of how probes interleave with
    other randomness.
    """
    return _splitmix64(_prefix(seed, *parts)) / 2.0**64


_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT30, _SHIFT27, _SHIFT31 = np.uint64(30), np.uint64(27), np.uint64(31)


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """:func:`_splitmix64` over a ``uint64`` array.

    Array arithmetic on ``uint64`` wraps modulo 2**64 silently, which
    is exactly the scalar form's ``& _MASK64``; the input must be an
    array (not a numpy scalar) so no overflow warning is raised.
    """
    x = x + _GAMMA
    x = (x ^ (x >> _SHIFT30)) * _MIX1
    x = (x ^ (x >> _SHIFT27)) * _MIX2
    mixed: np.ndarray = x ^ (x >> _SHIFT31)
    return mixed


def _as_u64(value: Union[int, np.ndarray]) -> np.ndarray:
    """``value`` (an int or an integer array) as a ``uint64`` array,
    reduced modulo 2**64 like the scalar hash's ``& _MASK64``."""
    if isinstance(value, int):
        return np.array([value & _MASK64], dtype=np.uint64)
    return np.atleast_1d(value).astype(np.uint64, copy=False)


def _uniforms(seed: int, *parts: Union[int, np.ndarray]) -> np.ndarray:
    """:func:`_uniform` for many keys at once, bit for bit.

    Each part is an int or an integer array; arrays broadcast, and the
    result holds ``_uniform(seed, *key)`` for every broadcast key — the
    same hash rounds, the same ``/ 2**64``.  Leading int parts are
    hashed as Python ints, so a call pays array arithmetic only from
    its first array part on.
    """
    x: Union[int, np.ndarray] = seed & _MASK64
    for part in parts:
        if isinstance(x, int) and isinstance(part, int):
            x = _splitmix64(x ^ (part & _MASK64))
        else:
            x = _splitmix64_array(_as_u64(x) ^ _as_u64(part))
    uniforms: np.ndarray = _splitmix64_array(_as_u64(x)) / 2.0**64
    return uniforms


#: Public names for the counter-hash discipline, so other subsystems
#: (the discrete-event kernel's latency draws, churn timelines) can
#: key their own decisions off the same primitive instead of minting a
#: Generator stream.
splitmix64 = _splitmix64
counter_prefix = _prefix
counter_tail = _tail
counter_uniform = _uniform
counter_uniforms = _uniforms


def kind_code(kind: str) -> int:
    """The stable hash code for a probe ``kind`` (raises on unknown)."""
    code = _KIND_CODES.get(kind)
    if code is None:
        raise ConfigurationError(
            f"unknown message kind {kind!r}; expected one of {MESSAGE_KINDS}"
        )
    return code


def _check_rate(name: str, value: float) -> None:
    # Rates live in [0, 1): rate 1.0 would be a blackout, which a
    # crash window expresses honestly (and cheaply) instead.
    if not 0.0 <= value < 1.0:
        raise ConfigurationError(
            f"{name} must be in [0, 1), got {value}"
        )


@dataclasses.dataclass(frozen=True)
class CrashWindow:
    """Peer ``peer_id`` is unreachable for steps in ``[start, stop)``."""

    peer_id: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.peer_id < 0:
            raise ConfigurationError(
                f"peer_id must be >= 0, got {self.peer_id}"
            )
        if self.start < 0:
            raise ConfigurationError(f"start must be >= 0, got {self.start}")
        if self.stop <= self.start:
            raise ConfigurationError(
                f"window [{self.start}, {self.stop}) is empty"
            )


@dataclasses.dataclass(frozen=True)
class RegionalOutage:
    """The BFS ball of ``radius`` hops around ``center`` crashes
    together for steps in ``[start, stop)`` — a correlated regional
    partition.  ``radius=0`` degenerates to a single-peer crash."""

    center: int
    radius: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.center < 0:
            raise ConfigurationError(
                f"center must be >= 0, got {self.center}"
            )
        if self.radius < 0:
            raise ConfigurationError(
                f"radius must be >= 0, got {self.radius}"
            )
        if self.start < 0:
            raise ConfigurationError(f"start must be >= 0, got {self.start}")
        if self.stop <= self.start:
            raise ConfigurationError(
                f"window [{self.start}, {self.stop}) is empty"
            )


@dataclasses.dataclass(frozen=True)
class LatencySpike:
    """With probability ``rate``, a probe takes ``extra_ms`` longer."""

    rate: float
    extra_ms: float

    def __post_init__(self) -> None:
        _check_rate("latency spike rate", self.rate)
        check_positive_finite("extra_ms", self.extra_ms)


@dataclasses.dataclass(frozen=True)
class FaultDecision:
    """What the plan decided for one probe (one clock step)."""

    step: int
    crashed: bool = False
    lost: bool = False
    timed_out: bool = False
    extra_latency_ms: float = 0.0

    @property
    def failed(self) -> bool:
        """Whether the probe produced no reply."""
        return self.crashed or self.lost or self.timed_out


LossRates = Union[float, Mapping[str, float], Tuple[Tuple[str, float], ...]]


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A seeded, fully deterministic failure schedule.

    Attributes
    ----------
    seed:
        Keys every stochastic decision (loss coins, spike coins).  Two
        plans with the same seed and schedule replay identically.
    crashes:
        Individual peer crash windows.
    outages:
        Correlated regional outages (BFS balls), expanded against a
        concrete topology at :meth:`bind` time.
    reply_loss:
        Either one rate for every message kind, or a mapping from kind
        (see :data:`MESSAGE_KINDS`) to rate.  Rates live in ``[0, 1)``.
        A lost reply is charged one visit of 0 tuples and raises
        :class:`~repro.errors.PeerUnavailableError`.
    latency_spike:
        Optional :class:`LatencySpike` applied to surviving probes.
    probe_timeout_ms:
        The sink's patience.  A spiked probe whose extra latency
        exceeds this times out (:class:`~repro.errors.ProbeTimeoutError`)
        instead of completing; crashes are also detected after this
        wait.  ``None`` means wait-forever-in-model (crash detection
        then charges one visit overhead instead).
    """

    seed: int = 0
    crashes: Tuple[CrashWindow, ...] = ()
    outages: Tuple[RegionalOutage, ...] = ()
    reply_loss: LossRates = 0.0
    latency_spike: Optional[LatencySpike] = None
    probe_timeout_ms: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "outages", tuple(self.outages))
        loss = self.reply_loss
        if isinstance(loss, (int, float)):
            _check_rate("reply_loss", float(loss))
            normalized: Tuple[Tuple[str, float], ...] = tuple(
                (kind, float(loss)) for kind in MESSAGE_KINDS if loss
            )
        else:
            items = loss.items() if isinstance(loss, Mapping) else loss
            pairs: List[Tuple[str, float]] = []
            for kind, rate in items:
                if kind not in _KIND_CODES:
                    raise ConfigurationError(
                        f"unknown message kind {kind!r}; "
                        f"expected one of {MESSAGE_KINDS}"
                    )
                _check_rate(f"reply_loss[{kind!r}]", float(rate))
                pairs.append((kind, float(rate)))
            if len({kind for kind, _ in pairs}) != len(pairs):
                raise ConfigurationError("duplicate message kind in reply_loss")
            normalized = tuple(sorted(pairs))
        object.__setattr__(self, "reply_loss", normalized)
        if self.probe_timeout_ms is not None:
            check_positive_finite("probe_timeout_ms", self.probe_timeout_ms)

    def loss_rate(self, kind: str) -> float:
        """The reply-loss rate for a message kind."""
        if kind not in _KIND_CODES:
            raise ConfigurationError(
                f"unknown message kind {kind!r}; "
                f"expected one of {MESSAGE_KINDS}"
            )
        pairs = cast(Tuple[Tuple[str, float], ...], self.reply_loss)
        for name, rate in pairs:
            if name == kind:
                return rate
        return 0.0

    @property
    def is_null(self) -> bool:
        """Whether this plan can never inject anything."""
        return (
            not self.crashes
            and not self.outages
            and not self.reply_loss
            and self.latency_spike is None
        )

    def bind(
        self,
        topology: Topology,
        clock_start: int = 0,
        strict_peers: bool = True,
    ) -> "FaultState":
        """Compile the plan against a concrete topology.

        Outage balls are expanded via BFS, peer ids validated, and a
        fresh step clock started at ``clock_start`` (later offsets let
        schedules span live-network epochs).  With
        ``strict_peers=False`` schedule entries naming peers outside
        the topology are skipped instead of raising — the behaviour
        live networks need, where a scheduled peer may have departed
        by the time the next epoch is snapshotted.
        """
        return FaultState(
            self, topology, clock_start=clock_start, strict_peers=strict_peers
        )


def _bfs_ball(topology: Topology, center: int, radius: int) -> FrozenSet[int]:
    """Peers within ``radius`` hops of ``center`` (inclusive)."""
    indptr = topology.indptr
    indices = topology.indices
    visited = {center}
    frontier = [center]
    for _ in range(radius):
        next_frontier: List[int] = []
        for peer in frontier:
            for neighbor in indices[indptr[peer]:indptr[peer + 1]]:
                neighbor_id = int(neighbor)
                if neighbor_id not in visited:
                    visited.add(neighbor_id)
                    next_frontier.append(neighbor_id)
        if not next_frontier:
            break
        frontier = next_frontier
    return frozenset(visited)


class FaultState:
    """A :class:`FaultPlan` bound to one topology: the replayable,
    clocked form the simulator consults.

    The only mutable piece is the step clock; every decision is a pure
    function of the step it consumed, so two states built from the
    same plan (and clock offset) emit identical decision sequences.
    The compiled schedule (crash-window index, expanded outage balls,
    loss table) is never written after ``__init__``, which is what
    lets :meth:`fork` share it between states.
    """

    def __init__(
        self,
        plan: FaultPlan,
        topology: Topology,
        clock_start: int = 0,
        strict_peers: bool = True,
    ):
        self._restart(clock_start)
        num_peers = topology.num_peers
        windows: Dict[int, List[Tuple[int, int]]] = {}

        def add_window(peer: int, start: int, stop: int) -> None:
            windows.setdefault(peer, []).append((start, stop))

        for crash in plan.crashes:
            if crash.peer_id >= num_peers:
                if not strict_peers:
                    continue
                raise ConfigurationError(
                    f"crash window names peer {crash.peer_id}, but the "
                    f"topology has {num_peers} peers"
                )
            add_window(crash.peer_id, crash.start, crash.stop)
        for outage in plan.outages:
            if outage.center >= num_peers:
                if not strict_peers:
                    continue
                raise ConfigurationError(
                    f"outage centered on peer {outage.center}, but the "
                    f"topology has {num_peers} peers"
                )
            for peer in _bfs_ball(topology, outage.center, outage.radius):
                add_window(peer, outage.start, outage.stop)
        self._plan = plan
        self._windows = {
            peer: sorted(spans) for peer, spans in windows.items()
        }
        self._loss: Dict[int, float] = {
            _KIND_CODES[kind]: rate
            for kind, rate in cast(
                Tuple[Tuple[str, float], ...], plan.reply_loss
            )
        }

    def _restart(self, clock_start: int) -> "FaultState":
        """Validate and set the step clock; returns ``self``."""
        if clock_start < 0:
            raise ConfigurationError(
                f"clock_start must be >= 0, got {clock_start}"
            )
        self._clock = clock_start
        return self

    def fork(self, clock_start: int) -> "FaultState":
        """A state replaying this one's schedule on its own clock.

        O(1): the fork shares the compiled schedule by reference — no
        re-validation, no BFS — and owns only a clock started at
        ``clock_start``, so it makes exactly the decisions a freshly
        bound state would.  This is how every query session gets an
        isolated fault clock without re-compiling the plan.
        """
        return copy.copy(self)._restart(clock_start)

    @property
    def plan(self) -> FaultPlan:
        """The schedule this state replays."""
        return self._plan

    @property
    def clock(self) -> int:
        """Step index the *next* probe will consume."""
        return self._clock

    def is_crashed(self, peer: int, step: int) -> bool:
        """Whether ``peer`` is inside a crash/outage window at ``step``."""
        for start, stop in self._windows.get(int(peer), ()):
            if start <= step < stop:
                return True
        return False

    def crashed_peers(self, step: int) -> FrozenSet[int]:
        """All peers down at ``step`` (used by flood exclusion)."""
        return frozenset(
            peer
            for peer, spans in self._windows.items()
            if any(start <= step < stop for start, stop in spans)
        )

    def next_step(self) -> int:
        """Advance the clock by one probe and return the consumed step."""
        step = self._clock
        self._clock += 1
        return step

    def probe(self, peer: int, kind: str) -> FaultDecision:
        """Decide one probe's fate; consumes exactly one clock step.

        Decision order: crash windows dominate (no coin is flipped for
        a dead peer), then the per-kind loss coin, then the latency
        spike coin (which escalates to a timeout when the spike
        exceeds the plan's probe timeout).  An unknown ``kind`` is
        refused before the clock steps, crashed peer or not.
        """
        code = kind_code(kind)
        step = self.next_step()
        decision = self._decide(peer, code, step)
        if decision.failed or decision.extra_latency_ms > 0.0:
            tracer = active_tracer()
            if tracer is not None:
                if decision.crashed:
                    outcome = "crashed"
                elif decision.lost:
                    outcome = "lost"
                elif decision.timed_out:
                    outcome = "timeout"
                else:
                    outcome = "spike"
                tracer.emit(
                    FaultEvent, step, int(peer), kind, outcome,
                    decision.extra_latency_ms,
                )
        return decision

    def _decide(self, peer: int, code: int, step: int) -> FaultDecision:
        """The plan's decision for a probe of kind code ``code`` to
        ``peer`` at ``step`` — a pure function of its arguments.

        The loss coin is ``counter_uniform(seed, step, peer, code, 0)``
        and the spike coin ``counter_uniform(seed, step, peer, code,
        1)``; the two keys differ only in their last part, so the
        prefix is hashed once and each coin finishes it
        (:func:`counter_tail`).  A coin is flipped only where its
        outcome can matter: none for a crashed peer, no loss coin at
        rate 0, no spike coin after a loss or without a spike.
        """
        if self.is_crashed(peer, step):
            return FaultDecision(step=step, crashed=True)
        loss_rate = self._loss.get(code, 0.0)
        spike = self._plan.latency_spike
        if loss_rate > 0.0 or spike is not None:
            coins = _prefix(self._plan.seed, step, peer, code)
            if loss_rate > 0.0 and _tail(coins, 0) < loss_rate:
                return FaultDecision(step=step, lost=True)
            if spike is not None and _tail(coins, 1) < spike.rate:
                timeout = self._plan.probe_timeout_ms
                if timeout is not None and spike.extra_ms > timeout:
                    return FaultDecision(step=step, timed_out=True)
                return FaultDecision(
                    step=step, extra_latency_ms=spike.extra_ms
                )
        return FaultDecision(step=step)
