"""In-process P2P network simulator.

:class:`NetworkSimulator` binds together a frozen :class:`Topology`,
one :class:`~repro.data.localdb.LocalDatabase` per peer, peer
identities, and a :class:`~repro.metrics.cost.CostLedger`.  Every
cross-peer interaction of the sampling algorithms goes through it as a
typed protocol message, so costs (messages, bytes, latency) are
accounted exactly where the paper's cost model says they arise:

* ``visit_aggregate`` — the paper's ``Visit`` procedure for COUNT/SUM
  (§4): run the query on at most ``t`` sub-sampled tuples, scale by
  ``#tuples / #processedTuples``, reply directly to the sink with the
  scaled aggregate and the peer's degree.
* ``visit_values`` — the median/quantile visit (§5.6): return the local
  median (or a raw value sample) instead, which costs real bandwidth.
* ``flood`` — Gnutella's BFS flooding with a TTL, used by the naive
  baseline the paper contrasts against (§3.1, Figure 7).
* ``ping`` — membership probe, used by the churn machinery.
"""

from __future__ import annotations

import copy
import functools
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np
from numpy.typing import ArrayLike

from .._util import SeedLike, ensure_rng, seed_sequence
from ..data.flat import DatabaseTable, FlatDataset
from ..data.localdb import LocalDatabase
from ..data.segments import (
    segment_aggregate,
    segment_ramps,
    segment_sample_indices,
    segment_sums,
)
from ..errors import (
    ConfigurationError,
    PeerCrashedError,
    PeerUnavailableError,
    ProbeTimeoutError,
    ProtocolError,
)
from ..metrics.cost import CostLedger, CostModel
from ..obs.events import (
    BatchFallbackEvent,
    BatchVisitEvent,
    FloodEvent,
    ProbeEvent,
    TraceCost,
)
from ..obs.tracer import active_tracer, emit_if_tracing
from ..query.model import AggregateOp, AggregationQuery
from .faults import FaultPlan, FaultState
from .peer import Peer, PeerTable
from .protocol import (
    GNUTELLA_HEADER_BYTES,
    AggregateReply,
    AggregateSample,
    GroupReply,
    Ping,
    Pong,
    Query,
    TupleReply,
    ValueSample,
)
from .topology import Topology

if TYPE_CHECKING:  # pragma: no cover - annotation-only (obs/sim layering)
    from ..sim.clock import VirtualClock
    from ..sim.event_driven import VirtualTime
    from ..sim.timing import QueryTiming, TimingToken


__all__ = [
    "NetworkSimulator",
]

_Sim = TypeVar("_Sim", bound="NetworkSimulator")


def _emit_probe(
    peer: int,
    kind: str,
    outcome: str,
    replies: int = 0,
    messages: int = 0,
    hops: int = 0,
    visits: int = 0,
    timeouts: int = 0,
) -> None:
    """Trace one resolved probe (no-op when tracing is off).

    The keyword charge fields mirror exactly what the emission site
    just recorded on the ledger, which is what lets trace cost totals
    reconcile with :class:`~repro.metrics.cost.CostLedger` snapshots.
    """
    tracer = active_tracer()
    if tracer is not None:
        tracer.emit(
            ProbeEvent, peer, kind, outcome, replies,
            _probe_charge(messages, hops, visits, timeouts),
        )


#: A probe's charge is one of a handful of values, each built once: a
#: retained trace then holds no per-probe object for the GC to track.
_probe_charge = functools.lru_cache(maxsize=None)(TraceCost)


def _check_tuples_per_peer(tuples_per_peer: int) -> None:
    """The one budget validator every visit entry point runs first."""
    if tuples_per_peer < 0:
        raise ConfigurationError("tuples_per_peer must be >= 0")


def _check_sampling_method(sampling_method: str) -> None:
    """The one sampling-method validator every visit entry point runs
    first, whether or not the visit ends up sub-sampling: row-level
    (``"uniform"``) or block-level (``"block"``)."""
    if sampling_method not in ("uniform", "block"):
        raise ConfigurationError(
            f"unknown sampling method {sampling_method!r}; "
            "expected 'uniform' or 'block'"
        )


def _check_pushdown(query: AggregationQuery) -> None:
    """Aggregate visits compute at the peer; holistic aggregates
    (MEDIAN, quantiles) cannot and must ship values instead."""
    if not query.agg.supports_pushdown:
        raise ConfigurationError(
            f"{query.agg.value} cannot be pushed down; use visit_values"
        )


#: What a delivered aggregate probe charges: its visit and its one
#: reply.  Shared by every ``ok`` event (a ``TraceCost`` is immutable).
_AGGREGATE_OK_CHARGE = TraceCost(messages=1, visits=1)


def _checked_labels(peer_labels: Sequence[int], num_peers: int) -> np.ndarray:
    """``peer_labels`` as an array, if they can be the identities of
    ``num_peers`` vertices: distinct non-negative integers, one each."""
    labels = np.asarray(peer_labels)
    if labels.shape != (num_peers,):
        raise ConfigurationError(
            f"peer labels of shape {labels.shape} for {num_peers} peers"
        )
    ordered = np.sort(labels)  # a topology has at least one peer
    repeated = (ordered[1:] == ordered[:-1]).any()
    if labels.dtype.kind not in "iu" or ordered[0] < 0 or repeated:
        raise ConfigurationError(
            "peer labels must be distinct non-negative integers, got "
            f"{labels.dtype}, lowest {ordered[:4].tolist()}"
        )
    return labels


class NetworkSnapshot:
    """What a network *is*: everything immutable for its lifetime.

    Built once by :class:`NetworkSimulator` and shared **by reference**
    by that simulator and every :meth:`~NetworkSimulator.session` of
    it, so a session costs nothing proportional to the network.
    Identities are a :class:`~repro.network.peer.PeerTable` (columns,
    each drawn on first read; a ``Peer`` is built per read).
    ``databases`` is kept as given when it is a
    :class:`~repro.data.flat.DatabaseTable` — slices of
    one store, a ``LocalDatabase`` built per read, and that store *is*
    :attr:`flat` — and frozen into a tuple otherwise.  The derived
    views (:attr:`flat`, :meth:`total_tuples`) are write-once memos:
    peers' data never changes under a snapshot (churn produces *new*
    simulators via ``LiveNetwork.snapshot``), so whichever simulator
    or session touches a view first builds it for all of them.
    """

    def __init__(
        self,
        topology: Topology,
        databases: Sequence[LocalDatabase],
        peers: Optional[Sequence[Peer]],
        cost_model: Optional[CostModel],
        peer_labels: Optional[Sequence[int]],
    ):
        num_peers = topology.num_peers
        if len(databases) != num_peers:
            raise ConfigurationError(
                f"{len(databases)} databases for {num_peers} peers"
            )
        labels = (
            None
            if peer_labels is None
            else _checked_labels(peer_labels, num_peers)
        )
        self.topology = topology
        # A store-backed table stays as it is (a tuple of it would be
        # one built LocalDatabase per peer) and its store is the flat
        # view; anything else is frozen, and concatenated on demand.
        self.databases: Sequence[LocalDatabase]
        self._flat: Optional[FlatDataset]
        if isinstance(databases, DatabaseTable):
            self.databases, self._flat = databases, databases.store
        else:
            self.databases, self._flat = tuple(databases), None
        self.cost_model = cost_model or CostModel()
        self.peer_labels: Optional[Tuple[int, ...]] = (
            None if labels is None else tuple(labels.tolist())
        )
        if peers is not None:
            if len(peers) != num_peers:
                raise ConfigurationError(
                    f"{len(peers)} peer identities for {num_peers} peers"
                )
            self.peers = PeerTable.from_peers(peers)
        else:
            # Row = label where there is one: a peer keeps its
            # capabilities and address across churn epochs, while
            # vertex ids are compacted.  (Identities are cosmetic,
            # hence the fixed seed.)
            self.peers = PeerTable.synthesize(
                np.arange(num_peers) if labels is None else labels, 12345
            )
        self._total_tuples: Optional[int] = None

    @property
    def flat(self) -> FlatDataset:
        """Concatenated columnar view over all peers' databases."""
        if self._flat is None:
            self._flat = FlatDataset.from_databases(self.databases)
        return self._flat

    def adopt_flat(self, flat: FlatDataset) -> None:
        """Install a pre-built flat view instead of concatenating."""
        if flat.num_peers != self.topology.num_peers:
            raise ConfigurationError(
                f"flat view has {flat.num_peers} peers, "
                f"network has {self.topology.num_peers}"
            )
        self._flat = flat
        self._total_tuples = flat.num_tuples

    def total_tuples(self) -> int:
        """Network-wide tuple count N."""
        if self._total_tuples is None:
            if self._flat is not None:
                self._total_tuples = self._flat.num_tuples
            else:
                self._total_tuples = sum(
                    database.num_tuples for database in self.databases
                )
        return self._total_tuples

    def cpu_speeds(self) -> np.ndarray:
        """Per-peer CPU speeds, for the cost accounting."""
        return self.peers.cpu_speed


class NetworkSimulator:
    """The simulated unstructured P2P network.

    Parameters
    ----------
    topology:
        The connection graph.
    databases:
        One local database per peer, indexed by peer id.  A
        :class:`~repro.data.flat.DatabaseTable` (what
        ``generate_dataset`` and ``load_dataset`` return) is kept as
        it is and its store serves as :attr:`flat_dataset`; any other
        sequence is frozen into a tuple and concatenated on first use.
    peers:
        Optional peer identities (``peers[i].peer_id`` must be ``i``);
        synthesized deterministically when omitted — by label when
        ``peer_labels`` is given, so a peer keeps its capabilities and
        address across churn epochs, by vertex id otherwise.
    cost_model:
        Unit costs for the latency model.
    seed:
        Seed for the simulator's own randomness (local sub-sampling,
        failure injection).
    reply_loss_rate:
        Probability, in ``[0, 1)``, that a visited peer fails to reply
        (departed mid-query, or its reply was lost).  Visits that fail
        raise :class:`~repro.errors.PeerUnavailableError`; the walk hop
        cost has already been paid, and engines skip the observation.
        A rate of exactly 1 is rejected — a total blackout is a
        :class:`~repro.network.faults.CrashWindow`, not a loss rate.
    fault_plan:
        Optional :class:`~repro.network.faults.FaultPlan` — the
        richer, fully deterministic failure schedule (crash windows,
        correlated outages, per-message-type loss, latency spikes and
        probe timeouts).  Composes with ``reply_loss_rate``.
    fault_clock:
        Step offset at which the bound fault plan's clock starts;
        :class:`~repro.network.live.LiveNetwork` uses it to let fault
        schedules span churn epochs.
    fault_strict_peers:
        Whether the fault plan's peer ids must all exist in this
        topology (default).  Live networks pass ``False`` so schedules
        survive peers departing between epochs.
    peer_labels:
        Optional stable identity per vertex.  Vertex ids are compacted
        per churn epoch and do *not* persist across snapshots;
        ``peer_labels[v]`` is the label that does.
        :class:`~repro.network.live.LiveNetwork` passes its churn
        snapshot's labels, which is what lets delta re-estimation match
        a retained sample's peers against a later epoch's live set,
        and a peer keep its capabilities and address.  Labels are
        distinct small non-negative integers (a churn process numbers
        peers sequentially): identities are drawn up to the largest one.
        ``None`` (default) means no cross-epoch identity is available.
    """

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
    ):
        self._snapshot = NetworkSnapshot(
            topology, databases, peers, cost_model, peer_labels
        )
        if not 0.0 <= reply_loss_rate < 1.0:
            raise ConfigurationError(
                f"reply_loss_rate must be in [0, 1), got {reply_loss_rate}"
            )
        self._reply_loss_rate = reply_loss_rate
        self._reseed(seed)
        self._fault_state: Optional[FaultState] = (
            fault_plan.bind(
                topology,
                clock_start=fault_clock,
                strict_peers=fault_strict_peers,
            )
            if fault_plan is not None
            else None
        )

    def _reseed(self, seed: SeedLike) -> None:
        """(Re)start the sub-sampling and failure streams from ``seed``.

        Each becomes a ``Generator`` on its first draw (a clean session
        draws from neither); a ``Generator`` handed in is the
        sub-sampling stream itself.
        """
        self._seed_seq = seed_sequence(seed)
        self._failure_seed = self._seed_seq.spawn(1)[0]
        vars(self).pop("_failure_rng", None)
        if isinstance(seed, np.random.Generator):
            self._rng = seed
        else:
            vars(self).pop("_rng", None)

    @functools.cached_property
    def _rng(self) -> np.random.Generator:
        return ensure_rng(self._seed_seq)

    @functools.cached_property
    def _failure_rng(self) -> np.random.Generator:
        return ensure_rng(self._failure_seed)

    def _maybe_drop_reply(self, peer_id: int, ledger: CostLedger) -> None:
        """Simulate a lost reply with the configured probability.

        The visit overhead has been incurred by the time the loss is
        noticed, so it is charged before raising.
        """
        if (
            self._reply_loss_rate > 0.0
            and self._failure_rng.random() < self._reply_loss_rate
        ):
            ledger.record_visit(peer_id, 0, 0)
            raise PeerUnavailableError(
                f"peer {peer_id} failed to reply"
            )

    def _fault_wait_ms(self) -> float:
        """How long the sink idles before declaring a probe dead."""
        state = self._fault_state
        assert state is not None
        timeout = state.plan.probe_timeout_ms
        if timeout is not None:
            return timeout
        return self._snapshot.cost_model.visit_overhead_ms

    def _apply_faults(
        self, peer_id: int, kind: str, ledger: CostLedger
    ) -> float:
        """Consult the fault plan for one probe; charge and raise.

        Consumes exactly one fault-clock step per call (the batch
        paths resolve their probes one by one whenever a plan is
        active, so both paths advance the clock identically).  Returns
        the spike milliseconds the reply carries into its delivery —
        read only when the session holds a time domain.
        """
        state = self._fault_state
        if state is None:
            return 0.0
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
            if self._time is not None:
                # Slow is not lost: with a time domain, a spike past
                # the sink's patience is carried into the delivery
                # delay — the sink times out in await_delivery (same
                # ledger charge as below) while the reply stays in
                # flight and lands late, observably.
                spike = state.plan.latency_spike
                assert spike is not None
                return spike.extra_ms
            ledger.record_timeout(peer_id, waited_ms=self._fault_wait_ms())
            raise ProbeTimeoutError(
                f"probe to peer {peer_id} exceeded the "
                f"{state.plan.probe_timeout_ms} ms timeout (latency spike "
                f"at fault step {decision.step})"
            )
        if decision.extra_latency_ms > 0.0:
            ledger.record_wait(decision.extra_latency_ms)
        return decision.extra_latency_ms

    def _probe_checks(
        self,
        peer_id: int,
        kind: str,
        ledger: CostLedger,
        drop_reply: bool = True,
        request_messages: int = 0,
        request_hops: int = 0,
    ) -> None:
        """Run one probe's failure gauntlet, tracing the outcome.

        ``request_messages``/``request_hops`` fold a request charge the
        caller already paid (ping's forward hop) into the failure
        event, so trace cost totals reconcile with the ledger even for
        probes that die before replying.

        This is the whole story of a probe.  A session holding a time
        domain adds the two ends: a peer the timeline already removed
        is refused before the gauntlet, and a probe that survives it
        is sent and awaited in virtual time (where it can still
        depart, time out or go stale).
        """
        time = self._time
        if time is not None:
            time.refuse_departed(
                peer_id, kind, ledger, request_messages, request_hops
            )
        try:
            spike_ms = self._apply_faults(peer_id, kind, ledger)
            if drop_reply:
                self._maybe_drop_reply(peer_id, ledger)
        except PeerCrashedError:
            _emit_probe(
                peer_id,
                kind,
                "crashed",
                messages=request_messages,
                hops=request_hops,
                visits=1,
                timeouts=1,
            )
            if time is not None:
                time.kernel.advance_by(self._fault_wait_ms())
            raise
        except ProbeTimeoutError:
            _emit_probe(
                peer_id,
                kind,
                "timeout",
                messages=request_messages,
                hops=request_hops,
                visits=1,
                timeouts=1,
            )
            raise
        except PeerUnavailableError:
            _emit_probe(
                peer_id,
                kind,
                "lost",
                messages=request_messages,
                hops=request_hops,
                visits=1,
            )
            raise
        if time is not None:
            time.await_reply(
                peer_id, kind, ledger, spike_ms, request_messages, request_hops
            )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def topology(self) -> Topology:
        """The frozen connection graph."""
        return self._snapshot.topology

    @property
    def num_peers(self) -> int:
        """Number of peers in the network."""
        return self._snapshot.topology.num_peers

    @property
    def cost_model(self) -> CostModel:
        """The unit-cost model used by new ledgers."""
        return self._snapshot.cost_model

    @property
    def reply_loss_rate(self) -> float:
        """Probability in ``[0, 1)`` that a visited peer fails to
        reply."""
        return self._reply_loss_rate

    @property
    def fault_plan(self) -> Optional[FaultPlan]:
        """The bound fault schedule, if any."""
        state = self._fault_state
        return state.plan if state is not None else None

    @property
    def fault_state(self) -> Optional[FaultState]:
        """The clocked fault state (exposes the replay clock)."""
        return self._fault_state

    @property
    def faults_active(self) -> bool:
        """Whether any failure source (legacy rate or plan) is armed."""
        return self._reply_loss_rate > 0.0 or self._fault_state is not None

    @property
    def peer_labels(self) -> Optional[Tuple[int, ...]]:
        """Stable cross-epoch identity per vertex, when known.

        ``peer_labels[v]`` identifies the peer at vertex ``v`` across
        churn epochs (vertex ids themselves are compacted per epoch).
        ``None`` when the network was not built from a churn snapshot.
        """
        return self._snapshot.peer_labels

    @property
    def flat_dataset(self) -> FlatDataset:
        """Concatenated columnar view over all peers' databases.

        Built on first access — through this simulator or any session
        of it — and shared by all of them; the batch-visit fast path
        and the exact evaluator read through it instead of scanning
        peers one by one.
        """
        return self._snapshot.flat

    def adopt_flat_dataset(self, flat: FlatDataset) -> None:
        """Install a pre-built flat view instead of concatenating.

        Forked workers attach the parent's columns from shared memory
        (:mod:`repro.service.shm`) and hand the resulting
        :class:`FlatDataset` to their simulator here, so the flat view
        is mapped, never copied.  The adopted view must describe this
        network's peers exactly.
        """
        self._snapshot.adopt_flat(flat)

    def _check_peer(self, peer_id: int) -> None:
        if isinstance(peer_id, bool) or not isinstance(
            peer_id, (int, np.integer)
        ):
            raise ProtocolError(f"peer id must be an integer, got {peer_id!r}")
        if not 0 <= peer_id < self.num_peers:
            raise ProtocolError(f"unknown peer {peer_id}")

    def peer(self, peer_id: int) -> Peer:
        """Peer ``peer_id``'s identity (built per call: equal by value
        across calls and sessions, not the same object)."""
        self._check_peer(peer_id)
        return self._snapshot.peers[peer_id]

    def database(self, peer_id: int) -> LocalDatabase:
        """Peer ``peer_id``'s local database (over a store-backed
        dataset it is built per call, like :meth:`peer`: equal by
        value across calls and sessions, not the same object)."""
        self._check_peer(peer_id)
        return self._snapshot.databases[peer_id]

    def databases(self) -> List[LocalDatabase]:
        """All local databases, indexed by peer id."""
        return list(self._snapshot.databases)

    def new_ledger(self) -> CostLedger:
        """A fresh cost ledger bound to this network's cost model."""
        return CostLedger(self._snapshot.cost_model)

    # ------------------------------------------------------------------
    # The time domain.  A session either holds one (``_time``, set by
    # the event-driven subclass in ``repro.sim`` when latency, a
    # timeline, a timeout or a deadline arms it) or it doesn't — the
    # synchronous simulator, and the class default.  The methods below
    # and the probe / flood paths call into it at their seams, so
    # engines and the serving layer stay simulator-agnostic without
    # importing the sim package.
    # ------------------------------------------------------------------

    _time: Optional["VirtualTime"] = None

    def walk_hops(
        self, hops: int, ledger: CostLedger, message_bytes: int
    ) -> None:
        """Charge one walk segment's forwarding to ``ledger``.

        Engines and walkers route every post-walk ``record_hops``
        charge through here so a session with a time domain advances
        its virtual clock alongside the charge.  Without one this
        charges and nothing more — bit-identical to the direct call it
        replaces.
        """
        ledger.record_hops(hops, message_bytes=message_bytes)
        if self._time is not None and hops > 0:
            self._time.forward(hops)

    @property
    def virtual_clock(self) -> Optional["VirtualClock"]:
        """The session's virtual clock, when time is armed (else None).

        None keeps un-armed sessions indistinguishable from
        synchronous ones all the way up the stack (no ``vt`` stamps in
        traces, no timing on results).
        """
        return self._time.kernel.clock if self._time is not None else None

    @property
    def deadline_ms(self) -> Optional[float]:
        """The armed virtual-time deadline, if any."""
        return self._time.deadline_ms if self._time is not None else None

    def validate_deadline(self, deadline_ms: float) -> None:
        """Raise exactly what :meth:`arm_deadline` would, without arming.

        This is the single definition of deadline validation: the
        inline backend hits it through ``arm_deadline`` inside
        ``build_task``, the sharded backend calls it directly at
        submit in the parent — so the two paths cannot drift in error
        type, message or precedence.  Deadlines are meaningless
        without a virtual clock, so the synchronous simulator refuses
        them loudly rather than letting a service silently run
        un-deadlined.
        """
        raise ConfigurationError(
            "deadlines need virtual time: use an EventDrivenSimulator "
            "(repro.sim) with latency, a timeline or a probe timeout"
        )

    def arm_deadline(self, deadline_ms: float) -> None:
        """Arm a virtual-time deadline for this session's queries."""
        self.validate_deadline(deadline_ms)

    def begin_timing(self) -> Optional["TimingToken"]:
        """Capture the start of a query's timing window (None un-armed)."""
        return self._time.begin_timing() if self._time is not None else None

    def finish_timing(
        self, token: Optional["TimingToken"]
    ) -> Optional["QueryTiming"]:
        """Close a timing window opened by :meth:`begin_timing`."""
        if self._time is None or token is None:
            return None
        return self._time.finish_timing(token)

    def session(
        self: _Sim,
        seed: SeedLike = None,
        fault_clock: Optional[int] = None,
    ) -> _Sim:
        """An isolated per-query view of this frozen network.

        O(1) in the size of the network: the session *is* this
        simulator's :class:`NetworkSnapshot` (topology, databases,
        identities, cost model, labels and every memoized view, shared
        by reference) plus its own *entire stochastic state* — its own
        sub-sampling RNG, its own failure RNG and its own fault clock
        forked off the already-compiled fault schedule.  This is what
        makes concurrent query execution deterministic: each query runs
        against its own session seeded from a per-query stream, so no
        interleaving of sessions can perturb any other session's draws
        or fault decisions.

        ``fault_clock`` defaults to this simulator's *current* fault
        clock, so a session created mid-run sees the fault schedule
        from "now" onward.
        """
        clone = copy.copy(self)
        clone._reseed(seed)
        state = self._fault_state
        if state is not None:
            clone._fault_state = state.fork(
                state.clock if fault_clock is None else fault_clock
            )
        return clone

    def total_tuples(self) -> int:
        """Network-wide tuple count N (computed once, then cached)."""
        return self._snapshot.total_tuples()

    # ------------------------------------------------------------------
    # Membership probes
    # ------------------------------------------------------------------

    def ping(self, source: int, destination: int, ledger: CostLedger) -> Pong:
        """Ping a direct neighbor; returns its Pong."""
        if not self.topology.has_edge(source, destination):
            raise ProtocolError(
                f"peer {source} is not connected to {destination}"
            )
        ping = Ping(source=source, destination=destination)
        ledger.record_hops(1, message_bytes=ping.size_bytes())
        self._probe_checks(
            destination,
            "ping",
            ledger,
            drop_reply=False,
            request_messages=1,
            request_hops=1,
        )
        peer = self.peer(destination)
        pong = Pong(
            source=destination,
            destination=source,
            ip=peer.ip,
            port=peer.port,
            shared_tuples=self.database(destination).num_tuples,
        )
        ledger.record_reply(pong.size_bytes())
        _emit_probe(destination, "ping", "ok", replies=1, messages=2, hops=1)
        return pong

    # ------------------------------------------------------------------
    # The paper's Visit procedure (§4)
    # ------------------------------------------------------------------

    def _open_visit(
        self,
        peer_id: int,
        kind: str,
        ledger: CostLedger,
        tuples_per_peer: int,
        sampling_method: str,
        seed: SeedLike,
    ) -> Tuple[Dict[str, np.ndarray], int, int]:
        """The preamble every scalar visit shares.

        Validates the arguments *before* anything observable happens
        (a rejected call must not consume a fault-clock step or charge
        the ledger), runs the probe's failure gauntlet, then reads the
        peer's rows (:meth:`_read_rows`).
        """
        _check_tuples_per_peer(tuples_per_peer)
        _check_sampling_method(sampling_method)
        self._check_peer(peer_id)
        self._probe_checks(peer_id, kind, ledger)
        return self._read_rows(peer_id, tuples_per_peer, sampling_method, seed)

    def _read_rows(
        self,
        peer_id: int,
        tuples_per_peer: int,
        sampling_method: str,
        seed: SeedLike,
    ) -> Tuple[Dict[str, np.ndarray], int, int]:
        """One peer's rows: ``tuples_per_peer`` sub-sampled tuples when
        the partition is larger than the budget, the whole partition
        otherwise.  Returns ``(columns, total, processed)``."""
        database = self._snapshot.databases[peer_id]
        total = database.num_tuples
        if tuples_per_peer and total > tuples_per_peer:
            columns = database.sample(
                tuples_per_peer,
                method=sampling_method,
                seed=self._rng if seed is None else ensure_rng(seed),
            )
            return columns, total, tuples_per_peer
        return database.scan(), total, total

    @staticmethod
    def check_aggregate_visits(
        query: AggregationQuery, tuples_per_peer: int, sampling_method: str
    ) -> None:
        """Check what a whole collection of aggregate visits fixes.

        The query, the per-peer budget and the sampling method are the
        same for every probe of a collection, so they are checked once
        — before anything observable happens — and each probe then
        runs :meth:`probe_aggregate_prechecked`.
        """
        _check_pushdown(query)
        _check_tuples_per_peer(tuples_per_peer)
        _check_sampling_method(sampling_method)

    @staticmethod
    def check_values_visits(
        tuples_per_peer: int, ship: str, sampling_method: str
    ) -> None:
        """:meth:`check_aggregate_visits` for values visits."""
        if ship not in ("median", "sample"):
            raise ConfigurationError(f"unknown ship mode {ship!r}")
        _check_tuples_per_peer(tuples_per_peer)
        _check_sampling_method(sampling_method)

    def probe_aggregate(
        self,
        peer_id: int,
        query: AggregationQuery,
        ledger: CostLedger,
        tuples_per_peer: int = 0,
        sampling_method: str = "uniform",
    ) -> None:
        """The *fate* half of an aggregate visit: everything but rows.

        Whether ``peer_id``'s reply arrives (raising exactly what
        :meth:`visit_aggregate` raises when it does not), when, what
        the ledger pays and which trace events fire depend on the peer
        id, its partition size, the fault clock and virtual time —
        never on row values: an :class:`AggregateReply` has a fixed
        size and the visit processes ``min(partition, t)`` rows under
        either sampling method.  So the whole charge of a successful
        visit is posted here, before a row is read, and the rows of
        every surviving probe of a collection are read later in one
        vectorised pass (:meth:`read_aggregates`).  ``query`` is only
        validated.

        This is :meth:`check_aggregate_visits` followed by
        :meth:`probe_aggregate_prechecked`; a loop over many peers
        runs the first once and the second per probe.

        Values visits have no such half: a :class:`TupleReply`'s size,
        hence its ledger charge, depends on the rows it ships, so
        :meth:`visit_values` stays one per-peer step.
        """
        self.check_aggregate_visits(query, tuples_per_peer, sampling_method)
        self.probe_aggregate_prechecked(peer_id, ledger, tuples_per_peer)

    def probe_aggregate_prechecked(
        self, peer_id: int, ledger: CostLedger, tuples_per_peer: int
    ) -> None:
        """Resolve one probe of a collection whose arguments
        :meth:`check_aggregate_visits` has already accepted — the part
        of :meth:`probe_aggregate` that depends on the probe."""
        self._check_peer(peer_id)
        self._probe_checks(peer_id, "aggregate", ledger)
        processed = int(self._snapshot.flat.peer_tuple_counts[peer_id])
        if tuples_per_peer:
            processed = min(processed, tuples_per_peer)
        ledger.record_visit(
            peer_id,
            tuples_processed=processed,
            tuples_sampled=processed,
            cpu_speed=float(self._snapshot.cpu_speeds()[peer_id]),
        )
        ledger.record_reply(AggregateReply.SIZE_BYTES)
        tracer = active_tracer()
        if tracer is not None:
            tracer.emit(
                ProbeEvent, peer_id, "aggregate", "ok", 1, _AGGREGATE_OK_CHARGE
            )

    def visit_aggregate(
        self,
        peer_id: int,
        query: AggregationQuery,
        sink: int,
        ledger: CostLedger,
        tuples_per_peer: int = 0,
        sampling_method: str = "uniform",
        seed: SeedLike = None,
    ) -> AggregateReply:
        """Execute ``query`` locally at ``peer_id`` and reply to the sink.

        If the peer holds at most ``tuples_per_peer`` tuples (or the
        budget is 0, meaning unlimited), the query runs on the whole
        partition; otherwise on ``tuples_per_peer`` sub-sampled tuples,
        and the result is scaled by ``#tuples / #processedTuples``
        exactly as in the paper's pseudocode.  The reply also carries
        the peer's degree, from which the sink reconstructs the
        stationary probability.

        One visit is :meth:`probe_aggregate` (fate) followed by a read
        of this one peer's rows.
        """
        self.probe_aggregate(
            peer_id, query, ledger, tuples_per_peer, sampling_method
        )
        return self._local_reply(
            peer_id, query, sink,
            *self._read_rows(peer_id, tuples_per_peer, sampling_method, seed),
        )

    def _local_reply(
        self,
        peer_id: int,
        query: AggregationQuery,
        sink: int,
        columns: Dict[str, np.ndarray],
        total: int,
        processed: int,
    ) -> AggregateReply:
        """``peer_id``'s reply to ``query`` over the ``processed`` rows
        in ``columns``, scaled up to its ``total`` rows.

        A single-segment call into the same kernel the batch path
        uses, so scalar and batched visits agree bit-for-bit.
        """
        counts, sums, column_sums, variances = segment_aggregate(
            query,
            columns,
            starts=np.zeros(1, dtype=np.int64),
            counts=np.asarray([processed], dtype=np.int64),
        )
        scale = (total / processed) if processed else 0.0
        scaled_count = float(counts[0]) * scale
        # SUM and AVG replies carry the scaled sum as primary.
        return AggregateReply(
            source=peer_id,
            destination=sink,
            aggregate_value=(
                scaled_count
                if query.agg is AggregateOp.COUNT
                else float(sums[0]) * scale
            ),
            matching_count=scaled_count,
            column_total=float(column_sums[0]) * scale,
            contribution_variance=float(variances[0]),
            degree=self.topology.degree(peer_id),
            local_tuples=total,
            processed_tuples=processed,
        )

    # ------------------------------------------------------------------
    # Vectorized batch visits (the fast path)
    # ------------------------------------------------------------------

    def _resolve_batch_rng(
        self, seed: SeedLike
    ) -> Tuple[Optional[np.random.Generator], Optional[int]]:
        """Split ``seed`` into ``(shared_rng, per_visit_seed)``.

        A per-peer loop calls ``visit_aggregate(..., seed=seed)`` once
        per visit: a ``Generator`` (or ``None`` → the simulator stream)
        is consumed sequentially across visits, while an *integer* seed
        re-seeds a fresh generator at every visit.  The batch path
        hands every sub-sampled peer the same keys that pattern would
        — one draw of all their doubles from a shared generator, the
        head of one freshly seeded stream for an integer seed — so it
        selects the same rows (:meth:`_batch_sample_plan`).
        """
        if seed is None:
            return self._rng, None
        if isinstance(seed, np.random.Generator):
            return seed, None
        return None, seed

    def _validate_batch_peers(self, peer_ids: ArrayLike) -> np.ndarray:
        peers = np.asarray(peer_ids)
        if peers.ndim > 1 or (peers.size and peers.dtype.kind not in "iu"):
            raise ProtocolError(
                "peer ids must be a flat sequence of integers, got "
                f"{peer_ids!r}"
            )
        peers = peers.reshape(-1)
        if peers.size and (peers.min() < 0 or peers.max() >= self.num_peers):
            unknown = (peers < 0) | (peers >= self.num_peers)
            raise ProtocolError(f"unknown peer {int(peers[unknown][0])}")
        return peers.astype(np.int64, copy=False)

    def _batch_sample_plan(
        self,
        peers: np.ndarray,
        tuples_per_peer: int,
        sampling_method: str,
        shared_rng: Optional[np.random.Generator],
        per_visit_seed: Optional[int],
    ) -> Tuple[Dict[str, np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
        """Pick every visited peer's rows, in visit order.

        Returns ``(columns, starts, processed, totals)``: the gathered
        (sub-sampled) rows of all visits laid out contiguously, the
        per-visit segment starts, the per-visit processed-row counts,
        and each visited peer's partition size.

        The uniform sub-sample is :func:`~repro.data.segments.
        segment_sample_indices` over every sub-sampled peer at once, on
        the same keys the scalar path draws one peer at a time (see
        :meth:`LocalDatabase.uniform_sample_indices` for the stream
        contract): a shared generator hands out ``sum(n_i)`` doubles in
        one call, an integer seed gives every peer the first ``n_i``
        doubles of the freshly seeded stream.  Block-level sampling
        keeps its per-peer ``rng.permutation`` draw.
        """
        uniform = sampling_method == "uniform"  # the entry point checked it
        flat = self.flat_dataset
        totals = flat.peer_tuple_counts[peers]
        processed = (
            np.minimum(totals, tuples_per_peer) if tuples_per_peer else totals
        )
        sampled = totals > processed
        if not sampled.any():
            # Whole partitions are read front to back ...
            local = segment_ramps(processed)
        else:
            # ... and the larger ones through their sub-sample.
            sizes = totals[sampled]
            if uniform:
                if shared_rng is not None:
                    keys = shared_rng.random(int(sizes.sum()))
                else:
                    keys = ensure_rng(per_visit_seed).random(
                        int(sizes.max())
                    )[segment_ramps(sizes)]
                chosen = segment_sample_indices(keys, sizes, tuples_per_peer)
            else:
                databases = self._snapshot.databases
                chosen = np.concatenate([
                    databases[peer_id].block_sample_indices(
                        tuples_per_peer,
                        seed=(
                            shared_rng
                            if shared_rng is not None
                            else ensure_rng(per_visit_seed)
                        ),
                    )
                    for peer_id in peers[sampled].tolist()
                ])
            if sampled.all():
                local = chosen
            else:
                local = segment_ramps(processed)
                local[np.repeat(sampled, processed)] = chosen
        local += np.repeat(flat.offsets[peers], processed)
        return (
            flat.gather(local), np.cumsum(processed) - processed,
            processed, totals,
        )

    def _batch_fallback_needed(self) -> bool:
        """Whether batch visits must resolve their probes one by one.

        Loss draws and fault-clock steps interleave with the visit
        stream, so any armed failure source forces per-probe fate; so
        does a time domain (per-probe latency draws and timeline
        events interleave the same way).
        """
        return self.faults_active or self._time is not None

    def _batch_fallback_reason(self) -> str:
        """Why :meth:`_batch_fallback_needed` returned True (traced)."""
        return "faults-active" if self.faults_active else "virtual-time"

    def read_aggregates(
        self,
        peer_ids: ArrayLike,
        query: AggregationQuery,
        sink: int,
        tuples_per_peer: int = 0,
        sampling_method: str = "uniform",
        seed: SeedLike = None,
    ) -> AggregateSample:
        """The *data* half of aggregate visits, for many peers at once.

        Sub-samples, filters, aggregates and scales the rows of every
        peer in ``peer_ids`` — in order, consuming ``seed`` draw for
        draw as one :meth:`visit_aggregate` per peer would — as single
        numpy passes over the flat columnar view, and returns the
        replies as one :class:`AggregateSample`, a row per peer.
        Touches neither ledger, fault clock, virtual time nor tracer:
        that is the fate half (:meth:`probe_aggregate` per probe, or
        the bulk charge in :meth:`visit_aggregate_batch`).
        """
        self.check_aggregate_visits(query, tuples_per_peer, sampling_method)
        return self.read_aggregates_prechecked(
            self._validate_batch_peers(peer_ids),
            query, sink, tuples_per_peer, sampling_method, seed,
        )

    def read_aggregates_prechecked(
        self,
        peers: np.ndarray,
        query: AggregationQuery,
        sink: int,
        tuples_per_peer: int,
        sampling_method: str,
        seed: SeedLike,
    ) -> AggregateSample:
        """:meth:`read_aggregates` over arguments already checked —
        by :meth:`check_aggregate_visits`, and ``peers`` a flat int64
        array of known peers (what :meth:`_validate_batch_peers`
        returns, or the survivors of checked probes) — the part that
        reads rows."""
        if peers.size == 0:
            return AggregateSample.from_columns(sink, 0)
        shared_rng, per_visit_seed = self._resolve_batch_rng(seed)
        columns, starts, processed, totals = self._batch_sample_plan(
            peers, tuples_per_peer, sampling_method, shared_rng, per_visit_seed
        )
        aggregates = segment_aggregate(
            query, columns, starts=starts, counts=processed
        )
        scales = np.zeros(peers.size, dtype=np.float64)
        np.divide(totals, processed, out=scales, where=processed > 0)
        # Count, sum and column sum, scaled up to every peer's total.
        count, total, column_total = aggregates[:3] * scales
        return AggregateSample.from_columns(
            sink,
            peers.size,
            source=peers,
            degree=self.topology.degrees[peers],
            local_tuples=totals,
            processed_tuples=processed,
            aggregate_value=count if query.agg is AggregateOp.COUNT else total,
            matching_count=count,
            column_total=column_total,
            contribution_variance=aggregates[3],
        )

    def visit_aggregate_batch(
        self,
        peer_ids: ArrayLike,
        query: AggregationQuery,
        sink: int,
        ledger: CostLedger,
        tuples_per_peer: int = 0,
        sampling_method: str = "uniform",
        seed: SeedLike = None,
    ) -> AggregateSample:
        """Visit many peers in one vectorized pass.

        Equivalent to calling :meth:`visit_aggregate` for each id in
        ``peer_ids`` (in order, with the same ``seed``), skipping peers
        that fail to reply — but sub-sampling, filtering, scaling, and
        cost accounting run as single numpy passes over the flat
        columnar view.  The replies (one :class:`AggregateSample`, a
        row each) and the ledger end up bit-for-bit identical to the
        per-peer loop.

        With any failure source armed (``reply_loss_rate > 0`` or a
        bound :class:`~repro.network.faults.FaultPlan`) it is *fate per
        probe, data per batch*: loss draws and fault-clock steps
        interleave with the visit stream, so each probe is resolved,
        charged and traced on its own, in order
        (:meth:`probe_aggregate`), and the rows of the survivors are
        then read in the same single pass (:meth:`read_aggregates`).

        The arguments are checked here, once; the rows are read by the
        body :meth:`read_aggregates` shares, not through it.
        """
        self.check_aggregate_visits(query, tuples_per_peer, sampling_method)
        peers = self._validate_batch_peers(peer_ids)
        if peers.size == 0:
            return AggregateSample.from_columns(sink, 0)
        tracer = active_tracer()
        if self._batch_fallback_needed():
            if tracer is not None:
                tracer.emit(
                    BatchFallbackEvent, "aggregate", int(peers.size),
                    self._batch_fallback_reason(),
                )
            survivors: List[int] = []
            for peer_id in peers.tolist():
                try:
                    self.probe_aggregate_prechecked(
                        peer_id, ledger, tuples_per_peer
                    )
                except PeerUnavailableError:
                    continue  # lost reply: the sample just shrinks
                survivors.append(peer_id)
            return self.read_aggregates_prechecked(
                np.asarray(survivors, dtype=np.int64),
                query, sink, tuples_per_peer, sampling_method, seed,
            )

        replies = self.read_aggregates_prechecked(
            peers, query, sink, tuples_per_peer, sampling_method, seed
        )
        processed = replies["processed_tuples"]
        ledger.record_visit_replies(
            peers,
            tuples_processed=processed,
            tuples_sampled=processed,
            reply_bytes=AggregateReply.SIZE_BYTES,
            cpu_speeds=self._snapshot.cpu_speeds()[peers],
        )
        if tracer is not None:
            tracer.emit(
                BatchVisitEvent, "aggregate", int(peers.size), len(replies)
            )
        return replies

    def _values_sample(
        self,
        peers: np.ndarray,
        query: AggregationQuery,
        sink: int,
        ship: str,
        columns: Dict[str, np.ndarray],
        starts: np.ndarray,
        processed: np.ndarray,
        totals: np.ndarray,
    ) -> ValueSample:
        """The values replies of ``peers``, whose processed rows lie in
        ``columns`` segment after segment: every matching value, or each
        peer's local quantile of them for ``ship="median"``."""
        column = np.asarray(columns[query.column])
        if column.size:
            mask = query.predicate.mask(columns)
            values = column[mask]
            shipped = segment_sums(
                mask.astype(np.float64), starts, processed
            ).astype(np.int64)
        else:
            values = np.empty(0, dtype=column.dtype)
            shipped = np.zeros(peers.size, dtype=np.int64)
        if ship == "median" and values.size:
            # quantile_fraction raises for non-quantile aggregates, so
            # it is consulted only when some peer has a value to ship.
            fraction = query.quantile_fraction
            values = np.array([
                float(np.quantile(segment, fraction))
                for segment in np.split(values, np.cumsum(shipped)[:-1])
                if segment.size
            ])
            shipped = np.minimum(shipped, 1)
        return ValueSample.from_columns(
            sink,
            peers.size,
            values=values,
            source=peers,
            degree=self.topology.degrees[peers],
            local_tuples=totals,
            processed_tuples=processed,
            shipped=shipped,
        )

    def visit_values_batch(
        self,
        peer_ids: ArrayLike,
        query: AggregationQuery,
        sink: int,
        ledger: CostLedger,
        tuples_per_peer: int = 0,
        ship: str = "median",
        sampling_method: str = "uniform",
        seed: SeedLike = None,
    ) -> ValueSample:
        """Batched :meth:`visit_values`: one vectorized pass for the
        median/quantile visit, bit-for-bit equivalent to the per-peer
        loop like :meth:`visit_aggregate_batch`.  The replies come back
        as one :class:`ValueSample`, a row per peer.

        With any failure source armed it *is* the per-peer loop: a
        values visit cannot post its fate ahead of its data (see
        :meth:`probe_aggregate`), so there is nothing to batch.
        """
        self.check_values_visits(tuples_per_peer, ship, sampling_method)
        peers = self._validate_batch_peers(peer_ids)
        if peers.size == 0:
            return ValueSample.from_columns(sink, 0)
        if self._batch_fallback_needed():
            tracer = active_tracer()
            if tracer is not None:
                tracer.emit(
                    BatchFallbackEvent, "values", int(peers.size),
                    self._batch_fallback_reason(),
                )
            replies: List[TupleReply] = []
            for peer_id in peers:
                try:
                    replies.append(
                        self.visit_values(
                            int(peer_id),
                            query,
                            sink=sink,
                            ledger=ledger,
                            tuples_per_peer=tuples_per_peer,
                            ship=ship,
                            sampling_method=sampling_method,
                            seed=seed,
                        )
                    )
                except PeerUnavailableError:
                    continue  # lost reply: the sample just shrinks
            return ValueSample.from_replies(replies, sink)

        shared_rng, per_visit_seed = self._resolve_batch_rng(seed)
        sample = self._values_sample(
            peers, query, sink, ship,
            *self._batch_sample_plan(
                peers, tuples_per_peer, sampling_method,
                shared_rng, per_visit_seed,
            ),
        )
        processed = sample["processed_tuples"]
        ledger.record_visit_replies(
            peers,
            tuples_processed=processed,
            tuples_sampled=processed,
            # What TupleReply.size_bytes() gives each row.
            reply_bytes=GNUTELLA_HEADER_BYTES + 4 + 4 + 4 + 8 * sample["shipped"],
            cpu_speeds=self._snapshot.cpu_speeds()[peers],
        )
        tracer = active_tracer()
        if tracer is not None:
            tracer.emit(BatchVisitEvent, "values", int(peers.size), len(sample))
        return sample

    def visit_multi_aggregate(
        self,
        peer_id: int,
        queries: Sequence[AggregationQuery],
        sink: int,
        ledger: CostLedger,
        tuples_per_peer: int = 0,
        sampling_method: str = "uniform",
        seed: SeedLike = None,
    ) -> List[AggregateReply]:
        """Evaluate several queries in one visit.

        All queries run on the *same* local sub-sample, so the peer is
        charged one visit overhead and one scan; each query gets its
        own (small) reply.  This is the peer-side half of multi-query
        batching: a dashboard of ``k`` aggregates costs barely more
        than its most demanding member.
        """
        if not queries:
            raise ConfigurationError("queries must be non-empty")
        for query in queries:
            if not query.agg.supports_pushdown:
                raise ConfigurationError(
                    f"{query.agg.value} cannot be pushed down"
                )
        columns, total, processed = self._open_visit(
            peer_id, "multi", ledger,
            tuples_per_peer, sampling_method, seed,
        )

        replies = [
            self._local_reply(peer_id, query, sink, columns, total, processed)
            for query in queries
        ]
        for reply in replies:
            ledger.record_reply(reply.size_bytes())
        # One visit: one overhead, one scan of the shared sub-sample.
        ledger.record_visit(
            peer_id,
            tuples_processed=processed,
            tuples_sampled=min(processed, tuples_per_peer or processed),
            cpu_speed=float(self._snapshot.cpu_speeds()[peer_id]),
        )
        _emit_probe(
            peer_id,
            "multi",
            "ok",
            replies=len(replies),
            messages=len(replies),
            visits=1,
        )
        return replies

    def visit_group_aggregate(
        self,
        peer_id: int,
        query: AggregationQuery,
        sink: int,
        ledger: CostLedger,
        tuples_per_peer: int = 0,
        sampling_method: str = "uniform",
        seed: SeedLike = None,
    ) -> GroupReply:
        """GROUP BY visit: per-group scaled (count, sum) triples.

        Same sub-sampling and scaling discipline as
        :meth:`visit_aggregate`, but the reply carries one entry per
        group value seen in the processed tuples.
        """
        if query.group_by is None:
            raise ConfigurationError("query has no GROUP BY column")
        if not query.agg.supports_pushdown:
            raise ConfigurationError(
                f"GROUP BY is not supported for {query.agg.value}"
            )
        columns, total, processed = self._open_visit(
            peer_id, "group", ledger,
            tuples_per_peer, sampling_method, seed,
        )

        entries = []
        if processed:
            mask = query.predicate.mask(columns)
            groups = np.asarray(columns[query.group_by])[mask]
            values = np.asarray(columns[query.column])[mask]
            scale = total / processed
            for group in np.unique(groups):
                in_group = groups == group
                entries.append(
                    (
                        float(group),
                        float(np.count_nonzero(in_group)) * scale,
                        float(values[in_group].sum()) * scale,
                    )
                )

        reply = GroupReply(
            source=peer_id,
            destination=sink,
            entries=tuple(entries),
            degree=self.topology.degree(peer_id),
            local_tuples=total,
            processed_tuples=processed,
        )
        ledger.record_visit(
            peer_id,
            tuples_processed=processed,
            tuples_sampled=min(processed, tuples_per_peer or processed),
            cpu_speed=float(self._snapshot.cpu_speeds()[peer_id]),
        )
        ledger.record_reply(reply.size_bytes())
        _emit_probe(peer_id, "group", "ok", replies=1, messages=1, visits=1)
        return reply

    # ------------------------------------------------------------------
    # Median/quantile visit (§5.6): no push-down, ship statistics
    # ------------------------------------------------------------------

    def visit_values(
        self,
        peer_id: int,
        query: AggregationQuery,
        sink: int,
        ledger: CostLedger,
        tuples_per_peer: int = 0,
        ship: str = "median",
        sampling_method: str = "uniform",
        seed: SeedLike = None,
    ) -> TupleReply:
        """Visit for holistic aggregates: ship values back to the sink.

        ``ship="median"`` sends only the local quantile of the
        (sub-sampled) matching tuples — the paper's median algorithm;
        ``ship="sample"`` sends the raw matching sample, for quantile
        estimators that need more than a point statistic.
        """
        if ship not in ("median", "sample"):
            raise ConfigurationError(f"unknown ship mode {ship!r}")
        columns, total, processed = self._open_visit(
            peer_id, "values", ledger,
            tuples_per_peer, sampling_method, seed,
        )
        (reply,) = self._values_sample(
            np.asarray([peer_id]), query, sink, ship, columns,
            np.zeros(1, dtype=np.int64), np.asarray([processed]),
            np.asarray([total]),
        )
        ledger.record_visit(
            peer_id,
            tuples_processed=processed,
            tuples_sampled=processed,
            cpu_speed=float(self._snapshot.cpu_speeds()[peer_id]),
        )
        ledger.record_reply(reply.size_bytes())
        _emit_probe(peer_id, "values", "ok", replies=1, messages=1, visits=1)
        return reply

    # ------------------------------------------------------------------
    # Gnutella flooding (the naive BFS baseline)
    # ------------------------------------------------------------------

    def _flood_down_peers(self) -> FrozenSet[int]:
        """Peers that neither respond nor forward during a flood.

        Consumes one fault-clock step when a plan is bound (the whole
        flood is one scheduled decision); a time domain unions in the
        timeline's currently departed set.
        """
        down: FrozenSet[int] = frozenset()
        if self._fault_state is not None:
            down = self._fault_state.crashed_peers(
                self._fault_state.next_step()
            )
        if self._time is not None:
            down |= self._time.departed_peers()
        return down

    def flood(
        self,
        start: int,
        ttl: int,
        ledger: CostLedger,
        max_peers: Optional[int] = None,
    ) -> List[Tuple[int, int]]:
        """Flood a query from ``start`` with the given TTL.

        Returns ``(peer, depth)`` pairs in BFS order, including the
        start peer at depth 0.  Every edge traversal is charged as a
        message, which is exactly why the paper calls flooding
        resource-hungry.

        Under a bound :class:`~repro.network.faults.FaultPlan` the
        whole flood consumes one fault-clock step; peers inside a
        crash/outage window at that step neither respond nor forward
        (messages sent to them are still charged), so a correlated
        outage is observed as a partition.
        """
        self._check_peer(start)
        if ttl < 0:
            raise ConfigurationError("ttl must be >= 0")
        down = self._flood_down_peers()
        probe = Query(source=start, destination=start, ttl=ttl, text="agg")
        message_bytes = probe.size_bytes()
        visited = {start}
        reached: List[Tuple[int, int]] = [(start, 0)]
        frontier = [start]
        depth = 0
        max_depth = 0
        messages = 0
        full = False  # max_peers reached: stop mid-frontier
        while frontier and depth < ttl and not full:
            depth += 1
            next_frontier: List[int] = []
            for peer in frontier:
                for neighbor in self.topology.neighbors(peer):
                    neighbor = int(neighbor)
                    ledger.record_flood_message(message_bytes)
                    messages += 1
                    if neighbor in down:
                        continue  # down: the message lands on silence
                    if neighbor not in visited:
                        visited.add(neighbor)
                        next_frontier.append(neighbor)
                        reached.append((neighbor, depth))
                        max_depth = depth
                        if max_peers is not None and len(reached) >= max_peers:
                            full = True
                            break
                if full:
                    break
            frontier = next_frontier
        ledger.record_flood_depth(max_depth)
        emit_if_tracing(
            FloodEvent, start, ttl, len(reached), max_depth, messages
        )
        if self._time is not None:
            self._time.flooded(max_depth)
        return reached
