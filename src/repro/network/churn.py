"""Peer join/leave dynamics (paper §1, §3.1).

Unstructured P2P networks let "nodes join the system at random times
and depart without a priori notification".  The sampling algorithm runs
against a frozen :class:`Topology` snapshot — the paper's assumption
that topology changes slowly relative to a query — while this module
evolves the network *between* queries:

* joins attach a new peer to existing peers (uniformly or degree-
  preferentially, the latter preserving the power-law shape);
* departures remove a peer and its edges, optionally healing the hole
  by reconnecting orphaned low-degree neighbors.

:class:`ChurnProcess` keeps a mutable networkx graph and emits fresh
:class:`Topology` snapshots on demand; robustness tests run queries
across snapshots to confirm estimates stay unbiased as the graph
drifts.

This module mutates the *graph* between queries.  Its scheduled
counterpart is :class:`~repro.sim.timeline.ChurnTimeline`, which
replays departures/joins/epochs at virtual-clock times *during* a
query on an :class:`~repro.sim.event_driven.EventDrivenSimulator` —
the two compose: evolve a topology here, then hand a snapshot plus a
timeline to the timed simulator to study the race.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from .._util import SeedLike, check_fraction, check_positive, ensure_rng
from ..errors import ChurnError
from .topology import Topology


__all__ = [
    "ChurnConfig",
    "ChurnProcess",
    "ChurnSnapshot",
]


@dataclasses.dataclass(frozen=True)
class ChurnConfig:
    """Churn behaviour knobs.

    Attributes
    ----------
    join_degree:
        Number of connections a joining peer opens.
    attachment:
        ``"preferential"`` (degree-proportional targets, keeps the
        power law) or ``"uniform"``.
    heal_on_leave:
        Reconnect neighbors that would be disconnected by a departure.
    leave_rate / join_rate:
        Per-step probabilities used by :meth:`ChurnProcess.step`.
    """

    join_degree: int = 3
    attachment: str = "preferential"
    heal_on_leave: bool = True
    leave_rate: float = 0.01
    join_rate: float = 0.01

    def __post_init__(self) -> None:
        check_positive("join_degree", self.join_degree)
        if self.attachment not in ("preferential", "uniform"):
            raise ChurnError(f"unknown attachment {self.attachment!r}")
        check_fraction("leave_rate", self.leave_rate)
        check_fraction("join_rate", self.join_rate)


class ChurnProcess:
    """Evolves a P2P topology through joins and departures.

    Node labels are stable across the lifetime of the process: a peer
    that joins gets a fresh label, and labels of departed peers are
    never reused.  :meth:`snapshot` compacts labels to ``0..M-1`` and
    returns both the frozen topology and the label mapping so callers
    can migrate per-peer state (databases) across snapshots.
    """

    def __init__(
        self,
        topology: Topology,
        config: Optional[ChurnConfig] = None,
        seed: SeedLike = None,
    ):
        self._graph = topology.to_networkx()
        self._config = config or ChurnConfig()
        self._rng = ensure_rng(seed)
        self._next_label = topology.num_peers
        self._joined: List[int] = []
        self._departed: List[int] = []
        self._epoch = 0

    @property
    def config(self) -> ChurnConfig:
        """The churn configuration."""
        return self._config

    @property
    def num_peers(self) -> int:
        """Current number of live peers."""
        return self._graph.number_of_nodes()

    @property
    def joined_peers(self) -> List[int]:
        """Labels of peers that joined since construction."""
        return list(self._joined)

    @property
    def departed_peers(self) -> List[int]:
        """Labels of peers that departed since construction."""
        return list(self._departed)

    @property
    def epoch(self) -> int:
        """Number of snapshots taken so far.

        Fault plans composed with churn use the epoch to tell
        consecutive network generations apart while the fault *clock*
        keeps running across them (a crash window can span epochs).
        """
        return self._epoch

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def _pick_targets(self, count: int) -> List[int]:
        nodes = list(self._graph.nodes())
        if not nodes:
            return []
        count = min(count, len(nodes))
        if self._config.attachment == "uniform":
            picks = self._rng.choice(len(nodes), size=count, replace=False)
            return [nodes[int(i)] for i in picks]
        degrees = np.asarray(
            [self._graph.degree(node) + 1 for node in nodes], dtype=float
        )
        weights = degrees / degrees.sum()
        picks = self._rng.choice(
            len(nodes), size=count, replace=False, p=weights
        )
        return [nodes[int(i)] for i in picks]

    def join(self) -> int:
        """A new peer joins; returns its label."""
        label = self._next_label
        self._next_label += 1
        targets = self._pick_targets(self._config.join_degree)
        self._graph.add_node(label)
        for target in targets:
            self._graph.add_edge(label, target)
        self._joined.append(label)
        return label

    def leave(self, label: Optional[int] = None) -> int:
        """A peer departs; returns its label.

        A uniformly random peer is chosen when ``label`` is omitted.
        With ``heal_on_leave``, former neighbors left with degree zero
        are re-attached so the network does not shed isolated peers.
        """
        nodes = list(self._graph.nodes())
        if len(nodes) <= 2:
            raise ChurnError("refusing to shrink the network below 2 peers")
        if label is None:
            label = nodes[int(self._rng.integers(len(nodes)))]
        if label not in self._graph:
            raise ChurnError(f"peer {label} is not in the network")
        neighbors = list(self._graph.neighbors(label))
        self._graph.remove_node(label)
        if self._config.heal_on_leave:
            for orphan in neighbors:
                if self._graph.degree(orphan) == 0:
                    for target in self._pick_targets(1):
                        if target != orphan:
                            self._graph.add_edge(orphan, target)
        self._departed.append(label)
        return label

    def step(self) -> Dict[str, int]:
        """One stochastic churn step; returns event counts."""
        events = {"joins": 0, "leaves": 0}
        if self._rng.random() < self._config.join_rate:
            self.join()
            events["joins"] += 1
        if (
            self._rng.random() < self._config.leave_rate
            and self.num_peers > 2
        ):
            self.leave()
            events["leaves"] += 1
        return events

    def run(self, steps: int) -> Dict[str, int]:
        """Run ``steps`` churn steps; returns total event counts."""
        totals = {"joins": 0, "leaves": 0}
        for _ in range(steps):
            events = self.step()
            totals["joins"] += events["joins"]
            totals["leaves"] += events["leaves"]
        return totals

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot(self, advance_epoch: bool = True) -> "ChurnSnapshot":
        """Freeze the current graph into a topology + label mapping.

        ``advance_epoch=False`` takes an internal peek (e.g. the
        neighbor lookup during a handoff departure) without counting a
        new network generation.
        """
        labels = sorted(self._graph.nodes())
        compact = {label: index for index, label in enumerate(labels)}
        edges = [
            (compact[u], compact[v]) for u, v in self._graph.edges()
        ]
        topology = Topology(num_peers=len(labels), edges=edges)
        epoch = self._epoch
        if advance_epoch:
            self._epoch += 1
        return ChurnSnapshot(topology=topology, labels=labels, epoch=epoch)


@dataclasses.dataclass(frozen=True)
class ChurnSnapshot:
    """A frozen topology plus the stable labels behind its vertex ids.

    ``labels[i]`` is the stable churn-process label of topology vertex
    ``i``; callers use it to carry per-peer state across snapshots.
    ``epoch`` is the 0-based snapshot generation (order taken from the
    owning :class:`ChurnProcess`).
    """

    topology: Topology
    labels: List[int]
    epoch: int = 0

    def vertex_of(self, label: int) -> int:
        """Topology vertex id for a stable label."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise ChurnError(f"peer {label} not present in snapshot") from None
