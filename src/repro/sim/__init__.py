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

from .clock import VirtualClock
from .event_driven import EventDrivenSimulator
from .kernel import (
    DELIVERED,
    DEPARTED,
    TIMED_OUT,
    DeliveryOutcome,
    SimulationKernel,
)
from .latency import (
    ZERO_LATENCY,
    ConstantLatency,
    ExponentialLatency,
    LatencyDistribution,
    LatencyModel,
    UniformLatency,
)
from .queue import EventHandle, EventQueue
from .timeline import ChurnTimeline, TimelineEntry
from .timing import QueryTiming, TimingToken

__all__ = [
    "DELIVERED",
    "DEPARTED",
    "TIMED_OUT",
    "ZERO_LATENCY",
    "ChurnTimeline",
    "ConstantLatency",
    "DeliveryOutcome",
    "EventDrivenSimulator",
    "EventHandle",
    "EventQueue",
    "ExponentialLatency",
    "LatencyDistribution",
    "LatencyModel",
    "QueryTiming",
    "SimulationKernel",
    "TimelineEntry",
    "TimingToken",
    "UniformLatency",
    "VirtualClock",
]
