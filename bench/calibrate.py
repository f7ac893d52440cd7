"""Machine-speed calibration, interleaved with the load.

The benchmark runs on small shared VMs whose speed drifts by tens of
percent over seconds to minutes (a noisy neighbour, not this program:
every workload slows together and ``/proc/stat`` shows no steal).  Raw
wall time then says more about the neighbour than about the commit.

So the driver interleaves *slices* of fixed work with the load — after
every query or burst, about 6% of the time just spent — and each
round's host times are scaled by how fast the slices ran:

    machine_speed   = NOMINAL_SLICE_S / mean slice time in the round
    normalised time = raw time * machine_speed

A slice mixes what the program under test mixes — interpreter-bound
arithmetic, small numpy passes, a cache-missing gather over 16 MB and
a burst of small-object allocation — so it slows down when and roughly
as much as the load does.  It touches nothing of ``repro``: a faster
commit does not make the slices faster.  On the box the benchmark was
defined on, normalising cut the round-to-round spread of a round's
wall time from 11-17% to 4-7%.

The raw numbers are not hidden: ``bench.machine_speed`` and
``bench.raw_throughput_qps`` are reported per layer.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

__all__ = ["NOMINAL_SLICE_S", "Calibrator"]

#: One slice's time on the 2-vCPU box the benchmark was defined on,
#: when quiet.  Only fixes the unit: ``machine_speed`` reads 1.0 there.
NOMINAL_SLICE_S = 600e-6

#: Calibration work per second of load.
SLICE_SHARE = 1 / 15


class _Cell:
    __slots__ = ("left", "right")

    def __init__(self, left: int, right: int):
        self.left = left
        self.right = right


class Calibrator:
    """Runs slices and accumulates their timings; :meth:`reset`
    starts a new round."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._small = (np.arange(50_000, dtype=np.int64) * 7919) % 100
        self._picks = (np.arange(4000, dtype=np.int64) * 104_729) % 50_000
        self._large = np.arange(2_000_000, dtype=np.int64)
        self._scatter = (np.arange(20_000, dtype=np.int64) * 1_000_003) % 2_000_000
        self.reset()

    def reset(self) -> None:
        """Forget the slices run so far."""
        self.elapsed_s = 0.0
        self.slices = 0

    def _slice(self) -> None:
        mixed = 0
        for index in range(3000):
            mixed += (index * 7) ^ (mixed >> 3)
        values = self._small[self._picks]
        selected = (values > 10) & (values < 50)
        (values * selected).sum()
        np.cumsum(values)
        self._large[self._scatter].sum()
        cells = [_Cell(index, index) for index in range(600)]
        del cells

    def run_for(self, busy_s: float) -> None:
        """Slices proportionate to ``busy_s`` seconds of load just
        served (at least one)."""
        count = max(1, round(busy_s * SLICE_SHARE / NOMINAL_SLICE_S))
        clock = self._clock
        started = clock()
        for _ in range(count):
            self._slice()
        self.elapsed_s += clock() - started
        self.slices += count

    @property
    def machine_speed(self) -> float:
        """1.0 = the defining box when quiet; lower = slower now."""
        if not self.slices:
            raise RuntimeError("no calibration slice has run")
        return NOMINAL_SLICE_S / (self.elapsed_s / self.slices)
