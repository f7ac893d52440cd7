"""The event-driven network simulator.

:class:`EventDrivenSimulator` is the synchronous
:class:`~repro.network.simulator.NetworkSimulator` plus *duration*:
each session owns a :class:`VirtualTime` — a
:class:`~repro.sim.kernel.SimulationKernel` and the sink's patience —
and hands it to the base class when the time domain is armed.  Three
ingredients arm it: a non-null :class:`~repro.sim.latency.LatencyModel`,
a non-empty :class:`~repro.sim.timeline.ChurnTimeline`, or a timeout/
deadline.  That is decided where it can change (construction,
:meth:`~EventDrivenSimulator.session`,
:meth:`~EventDrivenSimulator.arm_deadline`) and nowhere else.  The
base class's probe, walk, flood and timing methods call into the
domain at their seams when they hold one; an un-armed session holds
none and *runs the synchronous simulator's code and nothing else* —
the keystone parity invariant "zero latency is bit-identical to the
synchronous simulator" holds because there is no second code path,
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

from typing import FrozenSet, Optional, Sequence

from .._util import SeedLike, check_positive_finite
from ..data.localdb import LocalDatabase
from ..errors import (
    ConfigurationError,
    PeerDepartedError,
    ProbeTimeoutError,
    StaleReplyError,
)
from ..metrics.cost import CostLedger, CostModel
from ..network.faults import FaultPlan
from ..network.simulator import NetworkSimulator, _emit_probe
from ..network.topology import Topology
from ..obs.events import StaleReplyEvent
from ..obs.tracer import emit_if_tracing
from .kernel import DELIVERED, DEPARTED, SimulationKernel
from .latency import LatencyModel
from .timeline import ChurnTimeline
from .timing import QueryTiming, TimingToken

__all__ = ["EventDrivenSimulator", "VirtualTime"]

_STALE_MODES = ("accept", "reject")


class VirtualTime:
    """One session's time domain: the kernel and the sink's patience.

    The simulator's probe, walk, flood and timing methods call these
    at their seams while the session holds the domain
    (``NetworkSimulator._time``); each is the timed half of the method
    that calls it.
    """

    def __init__(
        self,
        kernel: SimulationKernel,
        patience_ms: Optional[float],
        departed_wait_ms: float,
        stale_mode: str,
    ):
        self.kernel = kernel
        #: How long the sink waits for a reply (None: forever).
        self.patience_ms = patience_ms
        #: The wasted wait charged for probing a departed peer.
        self.departed_wait_ms = departed_wait_ms
        self.stale_mode = stale_mode
        self.deadline_ms: Optional[float] = None

    def refuse_departed(
        self, peer_id: int, kind: str, ledger: CostLedger
    ) -> None:
        """Before the gauntlet: a peer already gone never answers."""
        kernel = self.kernel
        kernel.drain_due()
        if kernel.is_departed(peer_id):
            ledger.record_timeout(peer_id, waited_ms=self.departed_wait_ms)
            _emit_probe(peer_id, kind, "departed", 1)
            kernel.advance_by(self.departed_wait_ms)
            raise PeerDepartedError(
                f"peer {peer_id} departed before the {kind} probe "
                f"(virtual time {kernel.now_ms:.3f} ms)"
            )

    def await_reply(
        self, peer_id: int, kind: str, ledger: CostLedger, spike_ms: float
    ) -> None:
        """After the gauntlet: send, and block until the reply's fate."""
        kernel = self.kernel
        sent_ms = kernel.now_ms
        outcome = kernel.await_delivery(
            peer_id,
            kind,
            kernel.probe_delay_ms(peer_id, kind) + spike_ms,
            self.patience_ms,
        )
        if outcome.status == DEPARTED:
            ledger.record_timeout(peer_id, waited_ms=kernel.now_ms - sent_ms)
            _emit_probe(peer_id, kind, "departed", 1)
            raise PeerDepartedError(
                f"peer {peer_id} departed mid-flight during a {kind} "
                f"probe (virtual time {kernel.now_ms:.3f} ms)"
            )
        if outcome.status != DELIVERED:  # TIMED_OUT
            ledger.record_timeout(peer_id, waited_ms=kernel.now_ms - sent_ms)
            _emit_probe(peer_id, kind, "timeout", 1)
            raise ProbeTimeoutError(
                f"{kind} probe to peer {peer_id} exceeded its patience; "
                f"the reply will land late at "
                f"{outcome.delivered_ms:.3f} ms"
            )
        if outcome.stale:
            emit_if_tracing(
                StaleReplyEvent, peer_id, kind, outcome.sent_epoch,
                outcome.delivered_epoch,
            )
            if self.stale_mode == "reject":
                ledger.record_visit(peer_id, 0)
                _emit_probe(peer_id, kind, "stale", 0)
                raise StaleReplyError(
                    f"reply from peer {peer_id} answers epoch "
                    f"{outcome.sent_epoch} but the network is at epoch "
                    f"{outcome.delivered_epoch}"
                )

    def forward(self, hops: int) -> None:
        """A walk segment of ``hops`` forwards takes its hop delays."""
        kernel = self.kernel
        kernel.drain_due()
        kernel.advance_by(kernel.hop_delay_ms(hops))

    def flooded(self, depth: int) -> None:
        """A flood takes as long as its deepest path."""
        if depth > 0:
            self.kernel.advance_by(self.kernel.hop_delay_ms(depth))

    def departed_peers(self) -> FrozenSet[int]:
        """The timeline's currently departed set (floods skip them)."""
        self.kernel.drain_due()
        return self.kernel.departed_peers()

    def begin_timing(self) -> TimingToken:
        kernel = self.kernel
        kernel.drain_due()
        return TimingToken(
            started_ms=kernel.now_ms,
            epoch=kernel.epoch,
            epoch_started_ms=kernel.epoch_started_ms,
            stale_replies=kernel.stale_replies,
        )

    def finish_timing(self, token: TimingToken) -> QueryTiming:
        kernel = self.kernel
        finished_ms = kernel.now_ms
        deadline_ms = self.deadline_ms
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


class EventDrivenSimulator(NetworkSimulator):
    """A :class:`NetworkSimulator` whose messages take virtual time."""

    def __init__(
        self,
        topology: Topology,
        databases: Sequence[LocalDatabase],
        cost_model: Optional[CostModel] = None,
        seed: SeedLike = None,
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
            cost_model=cost_model,
            seed=seed,
            fault_plan=fault_plan,
            fault_clock=fault_clock,
            fault_strict_peers=fault_strict_peers,
            peer_labels=peer_labels,
        )
        if probe_timeout_ms is not None:
            check_positive_finite("probe_timeout_ms", probe_timeout_ms)
        if stale_mode not in _STALE_MODES:
            raise ConfigurationError(
                f"unknown stale_mode {stale_mode!r}; "
                f"expected one of {_STALE_MODES}"
            )
        self._latency = latency
        self._timeline = timeline
        self._stale_mode = stale_mode
        # The fault plan's timeout wins over the simulator's, so one
        # plan means one patience on either simulator.
        self._patience: Optional[float] = probe_timeout_ms
        if fault_plan is not None and fault_plan.probe_timeout_ms is not None:
            self._patience = fault_plan.probe_timeout_ms
        self._armed_by_configuration = (
            (latency is not None and not latency.is_null)
            or (timeline is not None and not timeline.is_empty)
            or probe_timeout_ms is not None
        )
        self._reset_time_domain()

    def _reset_time_domain(self) -> None:
        """Start one query's virtual time: fresh kernel, no deadline."""
        patience = self._patience
        self._domain = VirtualTime(
            SimulationKernel(latency=self._latency, timeline=self._timeline),
            patience_ms=patience,
            departed_wait_ms=(
                patience
                if patience is not None
                else self.cost_model.visit_overhead_ms
            ),
            stale_mode=self._stale_mode,
        )
        self._time = self._domain if self._armed_by_configuration else None

    # ------------------------------------------------------------------
    # Time-domain state
    # ------------------------------------------------------------------

    @property
    def time_armed(self) -> bool:
        """Whether this session holds its time domain.

        While False (no effective latency, no timeline, no timeout,
        no deadline) the session runs the synchronous simulator's code
        and nothing else, which is the parity invariant in executable
        form.
        """
        return self._time is not None

    @property
    def kernel(self) -> SimulationKernel:
        """This session's discrete-event kernel."""
        return self._domain.kernel

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
    def virtual_now_ms(self) -> float:
        """Current virtual time (0.0 until something advances it)."""
        return self._domain.kernel.now_ms

    def validate_deadline(self, deadline_ms: float) -> None:
        """Deadline checks without arming (shared with the sharded
        backend's parent-side submit validation)."""
        check_positive_finite("deadline_ms", deadline_ms)

    def arm_deadline(self, deadline_ms: float) -> None:
        """Deadlines always work here: arming one arms the time domain."""
        self.validate_deadline(deadline_ms)
        self._domain.deadline_ms = deadline_ms
        self._time = self._domain

    def drain(self) -> None:
        """Run every still-queued event (late deliveries surface)."""
        self._domain.kernel.drain()

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
