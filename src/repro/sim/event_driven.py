"""The event-driven network simulator.

:class:`EventDrivenSimulator` subclasses the synchronous
:class:`~repro.network.simulator.NetworkSimulator` and gives its
probes, walks and floods *duration* on a per-session
:class:`~repro.sim.kernel.SimulationKernel`.  Three ingredients arm
the time domain: a non-null :class:`~repro.sim.latency.LatencyModel`,
a non-empty :class:`~repro.sim.timeline.ChurnTimeline`, or a timeout/
deadline.  While none is armed, **every** override delegates straight
to the base class — the keystone parity invariant "zero latency is
bit-identical to the synchronous simulator" holds by construction,
fault plans and all (``tests/test_sim_parity.py`` pins it).

Timed-mode semantics (all deterministic; see ``docs/simulation.md``):

* each probe draws a request+reply delay from the counter hash, sends,
  and blocks in virtual time via ``kernel.await_delivery`` — timeline
  events scheduled in between genuinely happen mid-flight;
* a departure of the probed peer mid-flight loses the message: the
  sink waits out its patience and raises
  :class:`~repro.errors.PeerDepartedError` (substituted, not retried);
* a fault-plan latency spike **past** the probe timeout no longer
  conflates "slow" with "lost": the sink still times out (same ledger
  charge as the synchronous path), but the reply stays in flight,
  marked late, and surfaces as a
  :class:`~repro.obs.events.LateDeliveryEvent` when the kernel drains
  past its delivery time;
* a reply delivered after an ``epoch`` timeline mark is *stale* —
  traced, counted in the result's
  :class:`~repro.sim.timing.QueryTiming`, and (with
  ``stale_mode="reject"``) dropped as a typed
  :class:`~repro.errors.StaleReplyError`.

Failure probes are stamped at the instant the sink commits to the
failure; the waited time is charged to the ledger and the clock
advances before the next event.  Successful probes compute and emit at
the reply's delivery time.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Tuple

from .._util import SeedLike
from ..data.localdb import LocalDatabase
from ..errors import (
    ConfigurationError,
    PeerCrashedError,
    PeerDepartedError,
    PeerUnavailableError,
    ProbeTimeoutError,
    StaleReplyError,
)
from ..metrics.cost import CostLedger, CostModel
from ..network.faults import FaultPlan
from ..network.peer import Peer
from ..network.simulator import NetworkSimulator, _emit_probe
from ..network.topology import Topology
from ..obs.events import StaleReplyEvent
from ..obs.tracer import active_tracer
from .clock import VirtualClock
from .kernel import DELIVERED, DEPARTED, SimulationKernel
from .latency import LatencyModel
from .timeline import ChurnTimeline
from .timing import QueryTiming, TimingToken

__all__ = ["EventDrivenSimulator"]

_STALE_MODES = ("accept", "reject")


class EventDrivenSimulator(NetworkSimulator):
    """A :class:`NetworkSimulator` whose messages take virtual time."""

    def __init__(
        self,
        topology: Topology,
        databases: Sequence[LocalDatabase],
        peers: Optional[Sequence[Peer]] = None,
        cost_model: Optional[CostModel] = None,
        seed: SeedLike = None,
        reply_loss_rate: float = 0.0,
        fault_plan: Optional[FaultPlan] = None,
        fault_clock: int = 0,
        fault_strict_peers: bool = True,
        peer_labels: Optional[Sequence[int]] = None,
        latency: Optional[LatencyModel] = None,
        timeline: Optional[ChurnTimeline] = None,
        probe_timeout_ms: Optional[float] = None,
        stale_mode: str = "accept",
    ):
        super().__init__(
            topology,
            databases,
            peers=peers,
            cost_model=cost_model,
            seed=seed,
            reply_loss_rate=reply_loss_rate,
            fault_plan=fault_plan,
            fault_clock=fault_clock,
            fault_strict_peers=fault_strict_peers,
            peer_labels=peer_labels,
        )
        if probe_timeout_ms is not None and probe_timeout_ms <= 0:
            raise ConfigurationError(
                f"probe_timeout_ms must be positive, got {probe_timeout_ms}"
            )
        if stale_mode not in _STALE_MODES:
            raise ConfigurationError(
                f"unknown stale_mode {stale_mode!r}; "
                f"expected one of {_STALE_MODES}"
            )
        self._latency = latency
        self._timeline = timeline
        self._probe_timeout_ms = probe_timeout_ms
        self._stale_mode = stale_mode
        self._reset_time_domain()

    def _reset_time_domain(self) -> None:
        """Start one query's virtual time: fresh kernel, no deadline."""
        self._deadline_ms_value: Optional[float] = None
        self._pending_spike_ms = 0.0
        self._kernel = SimulationKernel(
            latency=self._latency, timeline=self._timeline
        )

    # ------------------------------------------------------------------
    # Time-domain state
    # ------------------------------------------------------------------

    @property
    def time_armed(self) -> bool:
        """Whether the time domain is active.

        While False (no effective latency, no timeline, no timeout,
        no deadline) every override delegates to the synchronous base
        class, which is the parity invariant in executable form.
        """
        if self._latency is not None and not self._latency.is_null:
            return True
        if self._timeline is not None and not self._timeline.is_empty:
            return True
        return (
            self._probe_timeout_ms is not None
            or self._deadline_ms_value is not None
        )

    @property
    def kernel(self) -> SimulationKernel:
        """This session's discrete-event kernel."""
        return self._kernel

    @property
    def latency(self) -> Optional[LatencyModel]:
        """The configured latency model, if any."""
        return self._latency

    @property
    def timeline(self) -> Optional[ChurnTimeline]:
        """The configured churn timeline, if any."""
        return self._timeline

    @property
    def stale_mode(self) -> str:
        """What happens to stale replies: ``accept`` or ``reject``."""
        return self._stale_mode

    @property
    def virtual_clock(self) -> Optional[VirtualClock]:
        """The kernel's clock when time is armed, else None.

        Returning None in passthrough mode keeps un-armed sessions
        indistinguishable from synchronous ones all the way up the
        stack (no ``vt`` stamps in traces, no timing on results).
        """
        return self._kernel.clock if self.time_armed else None

    @property
    def virtual_now_ms(self) -> float:
        """Current virtual time (0.0 until something advances it)."""
        return self._kernel.now_ms

    @property
    def deadline_ms(self) -> Optional[float]:
        return self._deadline_ms_value

    @property
    def supports_deadlines(self) -> bool:
        """Deadlines always work here: arming one arms the time domain."""
        return True

    def validate_deadline(self, deadline_ms: float) -> None:
        """Deadline checks without arming (shared with the sharded
        backend's parent-side submit validation)."""
        if deadline_ms <= 0:
            raise ConfigurationError(
                f"deadline_ms must be positive, got {deadline_ms}"
            )

    def arm_deadline(self, deadline_ms: float) -> None:
        self.validate_deadline(deadline_ms)
        self._deadline_ms_value = deadline_ms

    def drain(self) -> None:
        """Run every still-queued event (late deliveries surface)."""
        self._kernel.drain()

    # ------------------------------------------------------------------
    # Timing windows
    # ------------------------------------------------------------------

    def begin_timing(self) -> Optional[TimingToken]:
        if not self.time_armed:
            return None
        kernel = self._kernel
        kernel.drain_due()
        return TimingToken(
            started_ms=kernel.now_ms,
            epoch=kernel.epoch,
            epoch_started_ms=kernel.epoch_started_ms,
            stale_replies=kernel.stale_replies,
        )

    def finish_timing(
        self, token: Optional[TimingToken]
    ) -> Optional[QueryTiming]:
        if token is None:
            return None
        kernel = self._kernel
        finished_ms = kernel.now_ms
        deadline_ms = self._deadline_ms_value
        return QueryTiming(
            started_ms=token.started_ms,
            finished_ms=finished_ms,
            deadline_ms=deadline_ms,
            deadline_missed=(
                deadline_ms is not None and finished_ms > deadline_ms
            ),
            epochs_crossed=kernel.epoch - token.epoch,
            stale_replies=kernel.stale_replies - token.stale_replies,
            staleness_ms=finished_ms - token.epoch_started_ms,
        )

    # ------------------------------------------------------------------
    # Probe path
    # ------------------------------------------------------------------

    def _patience_ms(self) -> Optional[float]:
        """How long the sink waits for a reply (None: forever)."""
        state = self._fault_state
        if state is not None and state.plan.probe_timeout_ms is not None:
            return state.plan.probe_timeout_ms
        return self._probe_timeout_ms

    def _departed_wait_ms(self) -> float:
        """The wasted wait charged for probing a departed peer."""
        patience = self._patience_ms()
        if patience is not None:
            return patience
        return self.cost_model.visit_overhead_ms

    def _apply_faults(
        self, peer_id: int, kind: str, ledger: CostLedger
    ) -> None:
        if not self.time_armed:
            super()._apply_faults(peer_id, kind, ledger)
            return
        state = self._fault_state
        if state is None:
            return
        decision = state.probe(peer_id, kind)
        if decision.crashed:
            ledger.record_timeout(peer_id, waited_ms=self._fault_wait_ms())
            raise PeerCrashedError(
                f"peer {peer_id} is down (crash window at fault step "
                f"{decision.step})"
            )
        if decision.lost:
            ledger.record_visit(peer_id, 0, 0)
            raise PeerUnavailableError(
                f"peer {peer_id} failed to reply (scheduled {kind} loss "
                f"at fault step {decision.step})"
            )
        if decision.timed_out:
            # The slow-vs-lost fix: a spike past the sink's patience is
            # *slow*, not gone.  Carry it into the delivery delay — the
            # sink will time out in await_delivery (same ledger charge
            # as the synchronous path) while the reply stays in flight
            # and lands late, observably.
            spike = state.plan.latency_spike
            assert spike is not None
            self._pending_spike_ms += spike.extra_ms
            return
        if decision.extra_latency_ms > 0.0:
            ledger.record_wait(decision.extra_latency_ms)
            self._pending_spike_ms += decision.extra_latency_ms

    def _probe_checks(
        self,
        peer_id: int,
        kind: str,
        ledger: CostLedger,
        drop_reply: bool = True,
        request_messages: int = 0,
        request_hops: int = 0,
    ) -> None:
        if not self.time_armed:
            super()._probe_checks(
                peer_id,
                kind,
                ledger,
                drop_reply=drop_reply,
                request_messages=request_messages,
                request_hops=request_hops,
            )
            return
        kernel = self._kernel
        kernel.drain_due()
        if kernel.is_departed(peer_id):
            wait_ms = self._departed_wait_ms()
            ledger.record_timeout(peer_id, waited_ms=wait_ms)
            _emit_probe(
                peer_id,
                kind,
                "departed",
                messages=request_messages,
                hops=request_hops,
                visits=1,
                timeouts=1,
            )
            kernel.advance_by(wait_ms)
            raise PeerDepartedError(
                f"peer {peer_id} departed before the {kind} probe "
                f"(virtual time {kernel.now_ms:.3f} ms)"
            )
        self._pending_spike_ms = 0.0
        try:
            super()._probe_checks(
                peer_id,
                kind,
                ledger,
                drop_reply=drop_reply,
                request_messages=request_messages,
                request_hops=request_hops,
            )
        except PeerCrashedError:
            kernel.advance_by(self._fault_wait_ms())
            raise
        sent_ms = kernel.now_ms
        delay_ms = kernel.probe_delay_ms(peer_id, kind)
        delay_ms += self._pending_spike_ms
        self._pending_spike_ms = 0.0
        outcome = kernel.await_delivery(
            peer_id, kind, delay_ms, self._patience_ms()
        )
        if outcome.status == DEPARTED:
            ledger.record_timeout(
                peer_id, waited_ms=kernel.now_ms - sent_ms
            )
            _emit_probe(
                peer_id,
                kind,
                "departed",
                messages=request_messages,
                hops=request_hops,
                visits=1,
                timeouts=1,
            )
            raise PeerDepartedError(
                f"peer {peer_id} departed mid-flight during a {kind} "
                f"probe (virtual time {kernel.now_ms:.3f} ms)"
            )
        if outcome.status != DELIVERED:  # TIMED_OUT
            ledger.record_timeout(
                peer_id, waited_ms=kernel.now_ms - sent_ms
            )
            _emit_probe(
                peer_id,
                kind,
                "timeout",
                messages=request_messages,
                hops=request_hops,
                visits=1,
                timeouts=1,
            )
            raise ProbeTimeoutError(
                f"{kind} probe to peer {peer_id} exceeded its patience; "
                f"the reply will land late at "
                f"{outcome.delivered_ms:.3f} ms"
            )
        if outcome.stale:
            tracer = active_tracer()
            if tracer is not None:
                tracer.emit(
                    StaleReplyEvent(
                        peer=peer_id,
                        probe_kind=kind,
                        sent_epoch=outcome.sent_epoch,
                        delivered_epoch=outcome.delivered_epoch,
                    )
                )
            if self._stale_mode == "reject":
                ledger.record_visit(peer_id, 0, 0)
                _emit_probe(
                    peer_id,
                    kind,
                    "stale",
                    messages=request_messages,
                    hops=request_hops,
                    visits=1,
                )
                raise StaleReplyError(
                    f"reply from peer {peer_id} answers epoch "
                    f"{outcome.sent_epoch} but the network is at epoch "
                    f"{outcome.delivered_epoch}"
                )

    # ------------------------------------------------------------------
    # Walks, floods, batches
    # ------------------------------------------------------------------

    def walk_hops(
        self, hops: int, ledger: CostLedger, message_bytes: int
    ) -> None:
        super().walk_hops(hops, ledger, message_bytes)
        if self.time_armed and hops > 0:
            kernel = self._kernel
            kernel.drain_due()
            kernel.advance_by(kernel.hop_delay_ms(hops))

    def _batch_fallback_needed(self) -> bool:
        # Per-probe latency draws and timeline events interleave with
        # the visit stream exactly like fault-clock steps do.
        return super()._batch_fallback_needed() or self.time_armed

    def _batch_fallback_reason(self) -> str:
        if super()._batch_fallback_needed():
            return super()._batch_fallback_reason()
        return "virtual-time"

    def _flood_down_peers(self) -> FrozenSet[int]:
        down = super()._flood_down_peers()
        if self.time_armed:
            self._kernel.drain_due()
            down = down | self._kernel.departed_peers()
        return down

    def flood(
        self,
        start: int,
        ttl: int,
        ledger: CostLedger,
        max_peers: Optional[int] = None,
    ) -> List[Tuple[int, int]]:
        reached = super().flood(start, ttl, ledger, max_peers=max_peers)
        if self.time_armed:
            depth = max(d for _, d in reached)
            if depth > 0:
                kernel = self._kernel
                kernel.advance_by(kernel.hop_delay_ms(depth))
        return reached

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------

    def session(
        self,
        seed: SeedLike = None,
        fault_clock: Optional[int] = None,
    ) -> "EventDrivenSimulator":
        """An isolated per-query view with a **fresh** time domain.

        Everything else is the base class's O(1) session; this
        override only resets what belongs to one query's virtual
        time.  The session shares the frozen latency model and
        timeline but starts its own kernel — clock at 0, message
        counter 0 — so every session replays the identical time
        domain regardless of how sessions interleave: the event-driven
        form of the serving layer's serial==concurrent invariant.  The
        deadline is *not* inherited; the service arms it per query.
        """
        clone = super().session(seed=seed, fault_clock=fault_clock)
        clone._reset_time_domain()
        return clone
