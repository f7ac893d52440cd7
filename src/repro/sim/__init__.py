"""Deterministic discrete-event simulation kernel.

The synchronous :class:`~repro.network.simulator.NetworkSimulator`
models *whether* a probe succeeds but not *when*: latency exists only
as a timeout coin-flip inside the fault plan.  This package gives
probes, replies and churn a duration on a virtual clock, so scenarios
like "query racing churn" or "staleness vs deadline" become
expressible — while preserving the project's replay discipline:

* the event queue breaks ties by ``(time, seq)``, a total order, so
  two same-seed runs pop events in the exact same sequence;
* every latency draw comes from the splitmix64 counter hash (the same
  discipline :mod:`repro.network.faults` uses), keyed by a per-session
  message counter — no Generator stream is consumed, so arming latency
  cannot perturb sampling draws;
* churn joins/departures are scheduled :class:`ChurnTimeline` entries
  that interleave with message deliveries through the same queue.

The keystone parity invariant: an :class:`EventDrivenSimulator` with
no latency model, no timeline and no deadline is **bit-identical** to
the synchronous simulator — results, cost ledgers and trace digests —
because its sessions hold no time domain and run the synchronous
simulator's code and nothing else (``tests/test_sim_parity.py`` pins
this).
"""

__all__: list[str] = []
