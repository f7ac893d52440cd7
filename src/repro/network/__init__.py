"""Unstructured P2P network substrate.

This subpackage implements everything the paper assumes about the
network side of the system:

* :mod:`repro.network.topology` — the immutable connection graph with a
  CSR adjacency hot path and stationary-distribution helpers (§3.3);
* :mod:`repro.network.generators` — synthetic power-law topologies with
  controllable sub-graphs/cut sizes, and a Gnutella-2001-like generator
  (§5.2.1);
* :mod:`repro.network.walker` — the Markov-chain random walk with the
  jump parameter ``j`` (§3.3, §4);
* :mod:`repro.network.spectral` — second-eigenvalue / mixing-time
  pre-processing (§3.3);
* :mod:`repro.network.protocol` — Gnutella-style typed messages (§3.1);
* :mod:`repro.network.simulator` — the in-process message bus with
  latency/bandwidth accounting, tying topology + data together;
* :mod:`repro.network.churn` — peer join/leave dynamics;
* :mod:`repro.network.faults` — deterministic fault injection (crash
  windows, regional outages, reply loss, latency spikes/timeouts).
"""

__all__: list[str] = []
