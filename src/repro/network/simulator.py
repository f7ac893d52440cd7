"""In-process P2P network simulator.

:class:`NetworkSimulator` binds together a frozen :class:`Topology`,
one :class:`~repro.data.localdb.LocalDatabase` per peer, the peers' CPU
speeds, and a :class:`~repro.metrics.cost.CostLedger`.  Every
cross-peer interaction of the sampling algorithms goes through it as a
typed protocol message, so costs (messages, bytes, latency) are
accounted exactly where the paper's cost model says they arise:

* the paper's ``Visit`` procedure (§4): run the query on at most ``t``
  sub-sampled tuples, scale by ``#tuples / #processedTuples``, reply
  directly to the sink.  Every reply kind is one kernel over a chunk's
  gathered rows (:mod:`repro.network.visits`): the scaled COUNT/SUM
  aggregate and the peer's degree, a panel of them on one sub-sample,
  per-group entries, or the local median / a raw value sample for
  holistic aggregates (§5.6) — and one driver runs every kind
  (``visit_batch``; ``visit_aggregate_batch`` and
  ``visit_values_batch`` name the first and the last): a clean chunk
  in one pass, a faulted one fate per probe (``probe_visit``);
* ``flood`` — Gnutella's BFS flooding with a TTL, used by the naive
  baseline the paper contrasts against (§3.1, Figure 7).

Whether a probed peer's reply arrives is the bound
:class:`~repro.network.faults.FaultPlan`'s decision (a uniform loss
rate ``r`` is ``FaultPlan(seed, reply_loss=r)``) and, in a session
holding a time domain, virtual time's.
"""

from __future__ import annotations

import functools
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np
from numpy.typing import ArrayLike

from .._util import (
    SeedLike,
    ensure_rng,
    readonly_view,
    seed_sequence,
    shallow_copy,
)
from ..data.flat import DatabaseTable, FlatDataset
from ..data.localdb import LocalDatabase
from ..data.segments import select_rows
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
from ..query.model import AggregationQuery
from .faults import FaultPlan, FaultState
from .protocol import AggregateReply, AggregateSample, Query, ValueSample
from .topology import Topology
from .visits import AggregateVisits, ChunkRows, ValueVisits, Visits

if TYPE_CHECKING:  # pragma: no cover - annotation-only (obs/sim layering)
    from ..sim.clock import VirtualClock
    from ..sim.event_driven import VirtualTime
    from ..sim.timing import QueryTiming, TimingToken


__all__ = [
    "NetworkSimulator",
]

_Sim = TypeVar("_Sim", bound="NetworkSimulator")
#: A reply kind's sample.
_S = TypeVar("_S")
#: What a layer above derives from a snapshot.
_T = TypeVar("_T")


def _emit_probe(peer: int, kind: str, outcome: str, timeouts: int) -> None:
    """Trace one failed probe (no-op when tracing is off).

    Its charge mirrors what the emission site just recorded on the
    ledger — one visit, and one timeout when the sink waited — which
    is what lets trace cost totals reconcile with
    :class:`~repro.metrics.cost.CostLedger` snapshots.
    """
    tracer = active_tracer()
    if tracer is not None:
        tracer.emit(
            ProbeEvent, peer, kind, outcome, 0,
            _probe_charge(0, 0, 1, timeouts),
        )


#: A probe's charge is one of a handful of values, each built once: a
#: retained trace then holds no per-probe object for the GC to track.
_probe_charge = functools.lru_cache(maxsize=None)(TraceCost)


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


def _draw_cpu_speeds(rows: np.ndarray, seed: SeedLike) -> np.ndarray:
    """Rows ``rows`` of the endless log-normal CPU-speed column drawn
    from ``seed``: one array draw up to the largest row, so a row does
    not depend on how many are drawn."""
    drawn = ensure_rng(seed).lognormal(0.0, 0.35, int(rows.max()) + 1)
    return readonly_view(drawn[rows])


class NetworkSnapshot:
    """What a network *is*: everything immutable for its lifetime.

    Built once by :class:`NetworkSimulator` and shared **by reference**
    by that simulator and every :meth:`~NetworkSimulator.session` of
    it, so a session costs nothing proportional to the network.
    ``databases`` is kept as given when it is a
    :class:`~repro.data.flat.DatabaseTable` — slices of
    one store, a ``LocalDatabase`` built per read, and that store *is*
    :attr:`flat` — and frozen into a tuple otherwise.  The derived
    views (:attr:`flat`, :meth:`total_tuples`, :meth:`cpu_speeds`,
    :attr:`derived`) are write-once memos:
    peers' data never changes under a snapshot (churn produces *new*
    simulators via ``LiveNetwork.snapshot``), so whichever simulator
    or session touches a view first builds it for all of them.
    """

    def __init__(
        self,
        topology: Topology,
        databases: Sequence[LocalDatabase],
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
        self._labels = None if labels is None else labels.astype(np.int64)
        self._total_tuples: Optional[int] = None
        self._cpu_speeds: Optional[np.ndarray] = None
        # What layers above derive from this snapshot alone
        # (NetworkSimulator.derived).
        self.derived: Dict[Hashable, Any] = {}

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
        """Per-peer relative CPU speeds (1.0 is the reference machine;
        a visit's tuple processing time scales inversely with it), for
        the cost accounting: drawn on first read and kept, read-only.

        Row ``r`` of one endless log-normal column (the heterogeneity
        observed in deployed Gnutella networks), drawn by a generator
        over the first child of the fixed seed 12345 — a cosmetic
        draw, so nothing seeds it.  The row is the peer's label where
        there is one, its vertex id otherwise: a peer keeps its speed
        across churn epochs while vertex ids are compacted, whoever
        else joins or leaves.
        """
        if self._cpu_speeds is None:
            rows = self._labels
            if rows is None:
                rows = np.arange(self.topology.num_peers)
            self._cpu_speeds = _draw_cpu_speeds(
                rows, seed_sequence(12345).spawn(1)[0]
            )
        return self._cpu_speeds

    def __getstate__(self) -> dict:
        # The speeds are drawn again on first read: a pickled array
        # would come back writable.  Derived state is built again too.
        return dict(vars(self), _cpu_speeds=None, derived={})


class NetworkSimulator:
    """The simulated unstructured P2P network.

    Parameters
    ----------
    topology:
        The connection graph.
    databases:
        One local database per peer, indexed by peer id.  A
        :class:`~repro.data.flat.DatabaseTable` (what
        ``generate_dataset`` returns) is kept as it is and its store
        serves as :attr:`flat_dataset`; any other
        sequence is frozen into a tuple and concatenated on first use.
    cost_model:
        Unit costs for the latency model.
    seed:
        Seed for the simulator's own randomness (local sub-sampling).
    fault_plan:
        Optional :class:`~repro.network.faults.FaultPlan` — the fully
        deterministic failure schedule (crash windows, correlated
        outages, per-message-type loss, latency spikes and probe
        timeouts).  A probe that fails raises
        :class:`~repro.errors.PeerUnavailableError`; the walk hop cost
        has already been paid, and engines skip the observation.
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
        and a peer keep its CPU speed.  Labels are distinct small
        non-negative integers (a churn process numbers peers
        sequentially): speeds are drawn up to the largest one.
        ``None`` (default) means no cross-epoch identity is available.
    """

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
    ):
        self._snapshot = NetworkSnapshot(
            topology, databases, cost_model, peer_labels
        )
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
        """(Re)start the sub-sampling stream from ``seed``.

        It becomes a ``Generator`` on its first draw; a ``Generator``
        handed in is the stream itself.
        """
        self._seed_seq = seed_sequence(seed)
        if isinstance(seed, np.random.Generator):
            self._rng = seed
        else:
            vars(self).pop("_rng", None)

    @functools.cached_property
    def _rng(self) -> np.random.Generator:
        return ensure_rng(self._seed_seq)

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
            # The visit overhead has been incurred by the time the loss
            # is noticed, so it is charged before raising.
            ledger.record_visit(peer_id, 0)
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
        self, peer_id: int, kind: str, ledger: CostLedger
    ) -> None:
        """Run one probe's failure gauntlet, tracing a failure.

        This is the whole story of a probe.  A session holding a time
        domain adds the two ends: a peer the timeline already removed
        is refused before the gauntlet, and a probe that survives it
        is sent and awaited in virtual time (where it can still
        depart, time out or go stale).
        """
        time = self._time
        if time is not None:
            time.refuse_departed(peer_id, kind, ledger)
        try:
            spike_ms = self._apply_faults(peer_id, kind, ledger)
        except PeerUnavailableError as error:
            # A crash and a timeout each count as a timeout (the sink
            # waited); only a crash's wait passes in virtual time here.
            crashed = isinstance(error, PeerCrashedError)
            timed_out = crashed or isinstance(error, ProbeTimeoutError)
            _emit_probe(
                peer_id,
                kind,
                "crashed" if crashed else "timeout" if timed_out else "lost",
                int(timed_out),
            )
            if crashed and time is not None:
                time.kernel.advance_by(self._fault_wait_ms())
            raise
        if time is not None:
            time.await_reply(peer_id, kind, ledger, spike_ms)

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
        """Whether a fault plan is bound."""
        return self._fault_state is not None

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

    def derived(self, key: Hashable, build: Callable[[], _T]) -> _T:
        """``build()``, built on the first request for ``key`` and kept
        with the snapshot: shared by this simulator and every session
        of it (a served engine's walk and estimators)."""
        memo = self._snapshot.derived
        if key not in memo:
            memo[key] = build()
        return memo[key]  # type: ignore[no-any-return]

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

    def database(self, peer_id: int) -> LocalDatabase:
        """Peer ``peer_id``'s local database (over a store-backed
        dataset it is built per call: equal by value across calls and
        sessions, not the same object)."""
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
        cost model, labels and every memoized view, shared by
        reference) plus its own *entire stochastic state* — its own
        sub-sampling RNG and its own fault clock forked off the
        already-compiled fault schedule.  This is what
        makes concurrent query execution deterministic: each query runs
        against its own session seeded from a per-query stream, so no
        interleaving of sessions can perturb any other session's draws
        or fault decisions.

        ``fault_clock`` defaults to this simulator's *current* fault
        clock, so a session created mid-run sees the fault schedule
        from "now" onward.
        """
        clone = shallow_copy(self)
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
    # The paper's Visit procedure (§4): one driver for every reply kind
    # ------------------------------------------------------------------

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
        stationary probability.  A reply that does not arrive raises.

        One visit is one probe (:meth:`probe_visit`: fate) and a read
        of this one peer's rows through the aggregate kernel.
        """
        visits = AggregateVisits(
            self, query, sink, tuples_per_peer, sampling_method, seed
        )
        visits.check()
        (reply,) = self.read_visits(
            visits, [self.probe_visit(peer_id, visits, ledger)]
        )
        return reply

    def probe_visit(
        self, peer_id: int, visits: Visits[Any], ledger: CostLedger
    ) -> Any:
        """Resolve one probe of a collection whose arguments
        ``visits.check()`` has accepted: the peer check, the failure
        gauntlet (raising what a lost, crashed or timed-out probe
        raises) and, when the probe gets through, its charge and its
        ``ok`` event — which depend on the peer, the fault clock and
        virtual time, never on row values.  So a reply of fixed size is
        charged before a row is read: the probe returns the peer, whose
        rows :meth:`read_visits` reads with every survivor's.  A reply
        sized by its rows is read here, through its kind's kernel with
        one segment, and the probe returns that one-row sample.
        """
        self._check_peer(peer_id)
        self._probe_checks(peer_id, visits.kind, ledger)
        reply_bytes = visits.reply_bytes
        part: Any = peer_id
        if reply_bytes is None:
            rows = self._gather(np.asarray([peer_id], dtype=np.int64), visits)
            part = visits.kernel(rows)
            processed = int(rows.processed[0])
            reply_bytes = int(visits.sized(part)[0])
        else:
            processed = int(self._snapshot.flat.peer_tuple_counts[peer_id])
            if visits.tuples_per_peer:
                processed = min(processed, visits.tuples_per_peer)
        cpu_speed = float(self._snapshot.cpu_speeds()[peer_id])
        leading = visits.leading_replies
        for _ in range(leading):
            ledger.record_reply(reply_bytes)
        ledger.record_visit(peer_id, processed, cpu_speed)
        if not leading:
            ledger.record_reply(reply_bytes)
        tracer = active_tracer()
        if tracer is not None:
            replies = leading or 1
            tracer.emit(
                ProbeEvent, peer_id, visits.kind, "ok", replies,
                _probe_charge(replies, 0, 1, 0),
            )
        return part

    def read_visits(self, visits: Visits[_S], parts: Sequence[Any]) -> _S:
        """The sample of a collection's replies from what its probes
        (:meth:`probe_visit`) returned, in order: the surviving peers'
        rows read in one pass for a reply of fixed size, the one-row
        samples put end to end for the others.  Touches neither
        ledger, fault clock, virtual time nor tracer."""
        if visits.reply_bytes is None and parts:
            concatenated: _S = type(parts[0]).concat(parts)
            return concatenated
        peers = np.asarray(
            parts if visits.reply_bytes is not None else (), dtype=np.int64
        )
        return visits.kernel(self._gather(peers, visits))

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

    def _gather(self, peers: np.ndarray, visits: Visits[Any]) -> ChunkRows:
        """Pick every visited peer's rows, in visit order: the chunk's
        gathered (sub-sampled) rows, what every kind's kernel reads.

        A per-peer loop hands each visit the same ``visits.seed``: a
        ``Generator`` (``None``: the simulator's stream) is consumed
        visit after visit, an integer re-seeds a fresh generator at
        every visit.  The uniform sub-sample is one compiled pass over
        every visited peer (:func:`~repro.data.segments.select_rows`),
        on the keys that loop would draw: a shared generator hands out
        ``sum(n_i)`` doubles in one call, an integer seed gives every
        peer the first ``n_i`` doubles of the freshly seeded stream.
        Block-level sampling keeps its per-peer ``rng.permutation``
        draw.
        """
        flat = self._snapshot.flat
        size = visits.tuples_per_peer
        seed = self._rng if visits.seed is None else visits.seed
        if visits.sampling_method == "uniform":  # the check ran
            rows, starts, processed, totals = select_rows(
                flat.offsets, peers, size, seed
            )
        else:
            totals = flat.peer_tuple_counts[peers]
            processed = np.minimum(totals, size) if size else totals
            starts = np.cumsum(processed) - processed
            databases = self._snapshot.databases
            rows = np.concatenate([
                offset + (
                    databases[peer].block_sample_indices(
                        size, seed=ensure_rng(seed)
                    )
                    if kept < total
                    else np.arange(total)
                )
                for peer, offset, kept, total in zip(
                    peers.tolist(), flat.offsets[peers].tolist(),
                    processed.tolist(), totals.tolist(),
                )
            ] or [np.empty(0, dtype=np.int64)])
        return ChunkRows(
            peers, flat.gather(rows), starts, processed, totals
        )

    def visit_batch(
        self, peer_ids: ArrayLike, visits: Visits[_S], ledger: CostLedger
    ) -> _S:
        """The one batch visit behind every kind's entry point:
        ``visits`` of each peer in ``peer_ids``, in order, a reply that
        does not arrive skipped — replies and ledger bit for bit those
        of one visit per peer.

        The arguments are checked once, before anything observable
        happens.  A clean chunk is planned, reduced and charged in one
        pass: its rows gathered, its kind's kernel run over them once,
        every visit and reply charged by one ledger call, one
        ``batch-visit`` event.  A bound fault plan or a time domain
        interleaves fault-clock steps and per-probe timing with the
        visits, so then each probe is resolved, charged and traced on
        its own, in order (:meth:`probe_visit`), and the rows are read
        as :meth:`read_visits` reads them.
        """
        visits.check()
        peers = self._validate_batch_peers(peer_ids)
        if peers.size == 0:
            return self.read_visits(visits, [])
        tracer = active_tracer()
        if self._fault_state is not None or self._time is not None:
            if tracer is not None:
                tracer.emit(
                    BatchFallbackEvent, visits.kind, int(peers.size),
                    "faults-active" if self.faults_active else "virtual-time",
                )
            parts = []
            for peer_id in peers.tolist():
                try:
                    parts.append(self.probe_visit(peer_id, visits, ledger))
                except PeerUnavailableError:
                    continue  # lost reply: the sample just shrinks
            return self.read_visits(visits, parts)
        rows = self._gather(peers, visits)
        sample = visits.kernel(rows)
        reply_bytes = visits.reply_bytes
        leading = visits.leading_replies
        ledger.record_visit_pass(
            peers, rows.processed,
            visits.sized(sample) if reply_bytes is None else reply_bytes,
            self._snapshot.cpu_speeds()[peers], leading,
        )
        if tracer is not None:
            visited = int(peers.size)
            tracer.emit(
                BatchVisitEvent, visits.kind, visited, visited * (leading or 1)
            )
        return sample

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
        that is the fate half (:meth:`probe_visit`).
        """
        visits = AggregateVisits(
            self, query, sink, tuples_per_peer, sampling_method, seed
        )
        visits.check()
        return self.read_visits(visits, self._validate_batch_peers(peer_ids))

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
        """Visit many peers in one vectorized pass: :meth:`visit_aggregate`
        for each id in ``peer_ids`` (in order, with the same ``seed``),
        a peer that fails to reply skipped.  The replies come back as
        one :class:`AggregateSample`, a row each (:meth:`visit_batch`).
        """
        return self.visit_batch(
            peer_ids,
            AggregateVisits(
                self, query, sink, tuples_per_peer, sampling_method, seed
            ),
            ledger,
        )

    def visit_values_batch(
        self,
        peer_ids: ArrayLike,
        query: AggregationQuery,
        sink: int,
        ledger: CostLedger,
        tuples_per_peer: int = 0,
        sampling_method: str = "uniform",
        seed: SeedLike = None,
    ) -> ValueSample:
        """The median/quantile visit (§5.6) of many peers, like
        :meth:`visit_aggregate_batch`: no push-down, each peer ships
        the local quantile of its (sub-sampled) matching values (the
        paper's median algorithm).  The replies come back as one
        :class:`ValueSample`, a row per peer."""
        return self.visit_batch(
            peer_ids,
            ValueVisits(
                self, query, sink, tuples_per_peer, sampling_method, seed
            ),
            ledger,
        )

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
