"""Spectral pre-processing of the P2P graph (paper §3.3).

The paper assumes a pre-processing step that determines "the speed of
convergence of a random walk in this graph", driven by the second
eigenvalue of the walk's transition matrix: graphs with small cuts have
a second eigenvalue close to 1 and mix slowly, expanders mix in
``O(log M)`` steps.  This module computes that eigenvalue and turns it
into actionable parameters:

* :func:`analyze_topology` — the full spectral profile;
* :func:`recommend_jump` — a jump size ``j`` such that correlation
  between consecutive selected peers (which decays like ``lambda_2^j``)
  falls below a target;
* :func:`conductance` — cut quality of a labelled partition, used by
  Figure 12-style experiments to relate cut size and mixing.

scipy is imported by the eigensolve, not by this module: nothing on
the serving path asks for a spectrum, so nothing there loads it.
"""

from __future__ import annotations

import dataclasses
import math
import weakref
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .._util import check_fraction, check_positive
from ..errors import TopologyError
from .topology import Topology

if TYPE_CHECKING:
    import scipy.sparse as sp


__all__ = [
    "SpectralProfile",
    "analyze_topology",
    "recommend_jump",
    "conductance",
]


@dataclasses.dataclass(frozen=True)
class SpectralProfile:
    """Spectral summary of a topology's random-walk behaviour.

    Attributes
    ----------
    num_peers, num_edges:
        Graph size, recorded for provenance.
    second_eigenvalue:
        ``lambda_2`` of the transition matrix ``P = D^-1 A`` (signed;
        the largest eigenvalue below the trivial 1).
    spectral_gap:
        ``1 - lambda_star`` where ``lambda_star`` is the largest
        *absolute* non-trivial eigenvalue; governs mixing.
    min_stationary:
        Smallest stationary probability, used in mixing-time bounds.
    """

    num_peers: int
    num_edges: int
    second_eigenvalue: float
    spectral_gap: float
    min_stationary: float

    @property
    def relaxation_time(self) -> float:
        """``1 / spectral_gap`` — the walk's decorrelation timescale."""
        if self.spectral_gap <= 0:
            return math.inf
        return 1.0 / self.spectral_gap

    def mixing_time(self, epsilon: float = 0.01) -> float:
        """Standard upper bound on hops to get ``epsilon``-close to
        stationary in total variation:
        ``log(1 / (epsilon * pi_min)) / gap``.
        """
        check_positive("epsilon", epsilon)
        if self.spectral_gap <= 0:
            return math.inf
        return (
            math.log(1.0 / (epsilon * self.min_stationary))
            / self.spectral_gap
        )

    def recommended_jump(self, target_correlation: float = 0.05) -> int:
        """Smallest ``j`` with ``lambda_star^j <= target_correlation``.

        Selections ``j`` hops apart have correlation decaying like the
        non-trivial spectral radius to the ``j``-th power; this inverts
        that decay.
        """
        check_fraction("target_correlation", target_correlation)
        lambda_star = 1.0 - self.spectral_gap
        if lambda_star <= 0:
            return 1
        if target_correlation <= 0 or lambda_star >= 1:
            return max(1, self.num_peers)  # cannot decorrelate: walk forever
        return max(
            1, math.ceil(math.log(target_correlation) / math.log(lambda_star))
        )


def _normalized_adjacency(topology: Topology) -> sp.csr_matrix:
    """``D^{-1/2} A D^{-1/2}`` — symmetric, same spectrum as ``D^-1 A``."""
    import scipy.sparse as sp

    m = topology.num_peers
    degrees = topology.degrees.astype(float)
    if np.any(degrees == 0):
        raise TopologyError(
            "spectral analysis requires every peer to have a neighbor"
        )
    inv_sqrt = 1.0 / np.sqrt(degrees)
    rows = []
    cols = []
    for u, v in topology.edges():
        rows.append(u)
        cols.append(v)
        rows.append(v)
        cols.append(u)
    data = inv_sqrt[rows] * inv_sqrt[cols]
    return sp.csr_matrix((data, (rows, cols)), shape=(m, m))


# Topologies are immutable, so a profile computed once is valid for the
# object's lifetime; keying weakly lets discarded topologies free their
# profile with them.  The Lanczos solve dominates harness start-up for
# repeated trials, which is why this is memoized rather than recomputed.
_PROFILE_CACHE: "weakref.WeakKeyDictionary[Topology, SpectralProfile]" = (
    weakref.WeakKeyDictionary()
)


def analyze_topology(topology: Topology) -> SpectralProfile:
    """Compute the spectral profile of ``topology``.

    Uses sparse Lanczos iteration on the symmetric normalized
    adjacency; falls back to dense eigendecomposition for tiny graphs
    where Lanczos cannot run.  Profiles are memoized per topology
    object (topologies are immutable), so repeated trials over one
    network pay for the eigensolve once.
    """
    cached = _PROFILE_CACHE.get(topology)
    if cached is not None:
        return cached
    profile = _analyze_topology_uncached(topology)
    _PROFILE_CACHE[topology] = profile
    return profile


def _analyze_topology_uncached(topology: Topology) -> SpectralProfile:
    if not topology.is_connected():
        raise TopologyError(
            "spectral analysis requires a connected topology; analyze the "
            "giant component instead"
        )
    matrix = _normalized_adjacency(topology)
    m = topology.num_peers
    if m <= 16:
        eigenvalues = np.linalg.eigvalsh(matrix.toarray())
    else:
        import scipy.sparse.linalg as spla

        upper = spla.eigsh(
            matrix, k=2, which="LA", return_eigenvectors=False, maxiter=5000
        )
        lower = spla.eigsh(
            matrix, k=1, which="SA", return_eigenvectors=False, maxiter=5000
        )
        eigenvalues = np.concatenate([lower, upper])
    eigenvalues = np.sort(eigenvalues)
    second = float(eigenvalues[-2])
    smallest = float(eigenvalues[0])
    lambda_star = max(abs(second), abs(smallest))
    # Numerical guard: lambda_star can exceed 1 by roundoff.
    lambda_star = min(lambda_star, 1.0 - 1e-12)
    pi = topology.stationary_distribution()
    return SpectralProfile(
        num_peers=topology.num_peers,
        num_edges=topology.num_edges,
        second_eigenvalue=second,
        spectral_gap=1.0 - lambda_star,
        min_stationary=float(pi.min()),
    )


def recommend_jump(
    topology: Topology,
    target_correlation: float = 0.05,
    profile: Optional[SpectralProfile] = None,
) -> int:
    """Pre-processing step: pick the jump size for this topology.

    A thin wrapper over :meth:`SpectralProfile.recommended_jump` that
    computes the profile on demand.
    """
    if profile is None:
        profile = analyze_topology(topology)
    return profile.recommended_jump(target_correlation)


def conductance(topology: Topology, group: Sequence[int]) -> float:
    """Conductance of the cut ``(group, complement)``.

    ``cut(S) / min(vol(S), vol(complement))`` with volumes measured in
    degree mass.  Low conductance = small cut = slow mixing, the
    regime Figure 12 probes by shrinking the cut size.
    """
    group_set = set(int(p) for p in group)
    if not group_set:
        raise TopologyError("conductance of an empty group")
    if len(group_set) >= topology.num_peers:
        raise TopologyError("group must be a proper subset of the peers")
    degrees = topology.degrees
    volume_group = int(sum(degrees[p] for p in group_set))
    volume_total = int(degrees.sum())
    volume_rest = volume_total - volume_group
    if min(volume_group, volume_rest) == 0:
        raise TopologyError("one side of the cut has zero volume")
    cut = topology.cut_size(sorted(group_set))
    return cut / float(min(volume_group, volume_rest))
