"""A live P2P network: churn with a data lifecycle.

The paper's premise is a network where "nodes can join and depart ...
with ease" while the *data* changes even faster.  The sampling
algorithm always runs against a frozen snapshot;
:class:`LiveNetwork` is the thing being snapshotted — it advances
churn (via :class:`~repro.network.churn.ChurnProcess`) *and* manages
the data those peers carry:

* a **joining** peer brings a fresh partition drawn from the dataset's
  value distribution (new peers share new files);
* a **departing** peer either takes its data with it
  (``handoff=False``, the realistic default — content leaves with the
  node) or hands its partition to a random neighbor
  (``handoff=True``, modelling re-replication);
* :meth:`snapshot` freezes the current topology + databases into a
  ready :class:`~repro.network.simulator.NetworkSimulator`.

Long-running tests drive queries across snapshots to show the
algorithm keeps meeting its accuracy requirement as both the graph and
the data drift — with only M and \\|E| refreshed per snapshot, exactly
the slow-changing parameters the paper allows.

Churn here happens *between* snapshots; a query never sees it move.
To race a query against churn **mid-flight** — departures and epoch
boundaries interleaved with in-flight replies on a virtual clock —
schedule a :class:`~repro.sim.timeline.ChurnTimeline` on an
:class:`~repro.sim.event_driven.EventDrivenSimulator` instead (its
``"epoch"`` marks play the role of this module's snapshot
boundaries).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from .._util import SeedLike, check_positive, ensure_rng
from ..data.localdb import LocalDatabase
from ..data.zipf import ZipfDistribution
from ..errors import ChurnError, ConfigurationError
from ..metrics.cost import CostModel
from ..obs.events import ChurnEpochEvent
from ..obs.tracer import active_tracer
from .churn import ChurnConfig, ChurnProcess
from .faults import FaultPlan
from .simulator import NetworkSimulator
from .topology import Topology


__all__ = [
    "LiveNetwork",
]


class LiveNetwork:
    """A churning network whose peers carry evolving data.

    Parameters
    ----------
    topology:
        The initial graph.
    databases:
        Initial per-peer databases (indexed by initial peer id).
    churn_config:
        Join/leave behaviour.
    distribution:
        Value distribution used to stock joining peers.
    tuples_per_new_peer:
        Partition size for joining peers.
    column:
        Column name for newly generated partitions.  Joins need the
        existing databases to hold this column and no other.
    handoff:
        Departing peers hand their partition to a random neighbor
        instead of taking it away.
    block_size:
        Block size of newly created partitions.
    fault_plan:
        Optional :class:`~repro.network.faults.FaultPlan` composed
        with churn: every snapshot's simulator runs the plan, and the
        fault *clock* persists across snapshots — a crash window that
        opens in one epoch is still in force in the next.  Schedule
        entries naming departed peers are skipped (non-strict bind).
    """

    def __init__(
        self,
        topology: Topology,
        databases: Sequence[LocalDatabase],
        churn_config: Optional[ChurnConfig] = None,
        distribution: Optional[ZipfDistribution] = None,
        tuples_per_new_peer: int = 100,
        column: str = "A",
        handoff: bool = False,
        block_size: int = 25,
        fault_plan: Optional[FaultPlan] = None,
        seed: SeedLike = None,
    ):
        if len(databases) != topology.num_peers:
            raise ConfigurationError(
                f"{len(databases)} databases for {topology.num_peers} peers"
            )
        check_positive("tuples_per_new_peer", tuples_per_new_peer)
        self._rng = ensure_rng(seed)
        self._process = ChurnProcess(
            topology,
            config=churn_config,
            seed=self._rng.spawn(1)[0],
        )
        self._distribution = distribution or ZipfDistribution()
        self._tuples_per_new_peer = tuples_per_new_peer
        self._column = column
        self._handoff = handoff
        self._block_size = block_size
        self._fault_plan = fault_plan
        self._last_faulty_simulator: Optional[NetworkSimulator] = None
        # Databases keyed by the churn process's stable labels.
        self._databases: Dict[int, LocalDatabase] = {
            label: database for label, database in enumerate(databases)
        }
        # Running tuple total, maintained incrementally by join/leave so
        # queries against a churning network never re-sum every peer.
        self._total_tuples = sum(
            database.num_tuples for database in self._databases.values()
        )

    # ------------------------------------------------------------------

    @property
    def num_peers(self) -> int:
        """Current number of live peers."""
        return self._process.num_peers

    @property
    def fault_plan(self) -> Optional[FaultPlan]:
        """The fault schedule composed with this network, if any."""
        return self._fault_plan

    @property
    def fault_clock(self) -> int:
        """The step the next snapshot's fault state will start from.

        Reads the clock of the most recent snapshot's fault state, so
        probes run against one epoch advance the schedule seen by the
        next.
        """
        if self._last_faulty_simulator is not None:
            state = self._last_faulty_simulator.fault_state
            if state is not None:
                return state.clock
        return 0

    def total_tuples(self) -> int:
        """Tuples currently stored across live peers (cached; updated
        incrementally on every join and leave)."""
        return self._total_tuples

    # ------------------------------------------------------------------
    # Lifecycle events
    # ------------------------------------------------------------------

    def _fresh_partition(self) -> LocalDatabase:
        values = self._distribution.sample(
            self._tuples_per_new_peer, seed=self._rng
        )
        return LocalDatabase(
            {self._column: values}, block_size=self._block_size
        )

    def join(self) -> int:
        """A peer joins with a fresh partition; returns its label.

        A fresh partition holds ``column`` alone, so a network whose
        peers hold other columns too cannot stock a joiner: that raises
        :class:`ConfigurationError` before anything changes.
        """
        held = next(iter(self._databases.values()), None)
        if held is not None and held.column_names != [self._column]:
            raise ConfigurationError(
                f"a joining peer holds only {self._column!r}; "
                f"the network's peers hold {held.column_names}"
            )
        label = self._process.join()
        partition = self._fresh_partition()
        self._databases[label] = partition
        self._total_tuples += partition.num_tuples
        return label

    def leave(self, label: Optional[int] = None) -> int:
        """A peer departs; its data leaves or is handed off."""
        snapshot_before = self._process.snapshot(advance_epoch=False)
        departed = self._process.leave(label)
        departing_db = self._databases.pop(departed, None)
        if departing_db is not None:
            self._total_tuples -= departing_db.num_tuples
        if self._handoff and departing_db is not None:
            vertex = snapshot_before.labels.index(departed)
            neighbors = snapshot_before.topology.neighbors(vertex)
            survivors = [
                snapshot_before.labels[int(n)]
                for n in neighbors
                if snapshot_before.labels[int(n)] in self._databases
            ]
            if survivors:
                target = survivors[
                    int(self._rng.integers(len(survivors)))
                ]
                # Every column, the departing rows after the kept ones.
                merged = {
                    name: np.concatenate([kept, departing_db.column(name)])
                    for name, kept in self._databases[target].store.items()
                }
                self._databases[target] = LocalDatabase(
                    merged, block_size=self._block_size
                )
                # Handed-off tuples survive on the target peer.
                self._total_tuples += departing_db.num_tuples
        return departed

    def step(self, steps: int = 1) -> Dict[str, int]:
        """Run stochastic churn steps with the data lifecycle applied."""
        if steps < 1:
            raise ConfigurationError("steps must be >= 1")
        totals = {"joins": 0, "leaves": 0}
        config = self._process.config
        for _ in range(steps):
            if self._rng.random() < config.join_rate:
                self.join()
                totals["joins"] += 1
            if (
                self._rng.random() < config.leave_rate
                and self.num_peers > 2
            ):
                self.leave()
                totals["leaves"] += 1
        return totals

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot(
        self,
        cost_model: Optional[CostModel] = None,
        seed: SeedLike = None,
    ) -> NetworkSimulator:
        """Freeze the current network into a queryable simulator.

        The snapshot owns its topology and references the current
        per-peer databases (data mutates only via this LiveNetwork, so
        a snapshot stays consistent for the duration of a query, the
        paper's operating assumption).

        With a ``fault_plan`` configured, the snapshot's simulator
        starts its fault clock where the previous snapshot's left off,
        so crash windows and loss schedules span epochs.
        """
        churn_snapshot = self._process.snapshot()
        tracer = active_tracer()
        if tracer is not None:
            tracer.emit(
                ChurnEpochEvent, churn_snapshot.epoch,
                churn_snapshot.topology.num_peers, self.fault_clock,
            )
        databases = []
        for label in churn_snapshot.labels:
            database = self._databases.get(label)
            if database is None:
                # A peer the churn process knows but we never stocked
                # (can only happen via direct process manipulation).
                raise ChurnError(f"peer {label} has no database")
            databases.append(database)
        simulator = NetworkSimulator(
            churn_snapshot.topology,
            databases,
            cost_model=cost_model,
            seed=seed if seed is not None else self._rng.spawn(1)[0],
            fault_plan=self._fault_plan,
            fault_clock=self.fault_clock,
            fault_strict_peers=False,
            peer_labels=churn_snapshot.labels,
        )
        if self._fault_plan is not None:
            self._last_faulty_simulator = simulator
        return simulator
