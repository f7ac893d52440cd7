"""Wall-clock spans around the layers' entry points, from outside.

For the traced round only, :func:`recording` swaps the entry points
listed in ``_method_targets`` / ``_function_targets`` for wrappers that
record ``(name, start, end, parent, query_id)`` in memory, and puts the
originals back on exit.  Nothing under ``src/`` knows about it.  A
span's *self time* is its duration minus the part its child spans
cover, so the layers' self times sum to the covered wall time and a
saving in one layer shows up in exactly one number.

Counts are taken at the same boundaries (peers per visit call, hops
per take, rows per local aggregation, retries per collection), so a
ratio is measured where the work happens.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = [
    "LayerTotals",
    "Span",
    "SpanRecorder",
    "install",
    "recording",
    "uninstall",
]

Annotator = Callable[["Span", tuple, dict, Any], None]


class Span:
    """One timed call.  ``parent`` indexes the recorder's span list
    (-1 for a root); ``counts`` holds what the boundary counted."""

    __slots__ = ("name", "start", "end", "parent", "query_id", "failed", "counts")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.query_id: Optional[int] = None
        self.failed = False
        self.counts: Optional[Dict[str, float]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class LayerTotals:
    """Everything recorded under one span name."""

    __slots__ = ("calls", "failed", "total_s", "self_s", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.failed = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts: Dict[str, float] = {}


class SpanRecorder:
    """In-memory span store for one traced round (single-threaded)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.spans: List[Span] = []
        self._open: List[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        annotate: Optional[Annotator] = None,
    ) -> Callable[..., Any]:
        """``fn`` recording a span named ``name`` around every call.

        ``annotate(span, args, kwargs, result)`` runs after a call
        that returned, to attach the query id and boundary counts.
        """
        spans = self.spans
        open_spans = self._open
        clock = self._clock

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = Span(name, open_spans[-1] if open_spans else -1)
            open_spans.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                open_spans.pop()
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result

        return wrapper

    def self_times(self) -> List[float]:
        """Per span: duration minus its direct children's durations."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.duration
        return own

    def totals(self) -> Dict[str, LayerTotals]:
        """Calls, time and counts summed per span name."""
        layers: Dict[str, LayerTotals] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            layer = layers.get(span.name)
            if layer is None:
                layer = layers[span.name] = LayerTotals()
            layer.calls += 1
            layer.failed += span.failed
            layer.total_s += span.duration
            layer.self_s += self_s
            if span.counts:
                for key, value in span.counts.items():
                    layer.counts[key] = layer.counts.get(key, 0.0) + value
        return layers

    def query_ids(self) -> List[Optional[int]]:
        """Per span: its own query id, else its nearest ancestor's."""
        resolved: List[Optional[int]] = []
        for span in self.spans:
            query_id = span.query_id
            if query_id is None and span.parent >= 0:
                # Parents are recorded before their children.
                query_id = resolved[span.parent]
            resolved.append(query_id)
        return resolved

    def write_jsonl(self, path: Path) -> None:
        """One span per line, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        self_times = self.self_times()
        query_ids = self.query_ids()
        with path.open("w") as stream:
            for index, span in enumerate(self.spans):
                record: Dict[str, Any] = {
                    "id": index,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "self": self_times[index],
                    "parent": span.parent,
                    "query_id": query_ids[index],
                }
                if span.failed:
                    record["failed"] = True
                if span.counts:
                    record["counts"] = span.counts
                stream.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# What gets wrapped
# ---------------------------------------------------------------------------


def _ticket_id(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.query_id = result.query_id


def _job_id(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.query_id = args[3].query_id  # build_task(simulator, settings, cache, job)


def _task_id(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.query_id = args[0].ticket.query_id  # advance_task(task)


def _visited_peers(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    peers = kwargs["peer_ids"] if "peer_ids" in kwargs else args[1]
    span.counts = {"peers": float(len(peers))}


def _walk_counts(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.counts = {
        "hops": float(result.hops),
        "selected": float(len(result.peers)),
    }


def _rows_scanned(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    counts = kwargs["counts"] if "counts" in kwargs else args[3]
    span.counts = {"rows": float(np.sum(counts))}


def _collection_counts(
    span: Span, args: tuple, kwargs: dict, result: Any
) -> None:
    stats = result[1]
    span.counts = {
        "retries": float(stats.retries),
        "failed_probes": float(stats.losses + stats.timeouts + stats.crashes),
    }


def _method_targets() -> List[Tuple[type, str, str, Optional[Annotator]]]:
    from repro._pool import ForkPool
    from repro.core.two_phase import TwoPhaseEngine
    from repro.network.simulator import NetworkSimulator
    from repro.network.walker import ResilientCollector, WalkCursor
    from repro.obs.tracer import Tracer
    from repro.service.backend import ForkedBackend, InlineBackend
    from repro.service.service import QueryService
    from repro.sim.event_driven import EventDrivenSimulator
    from repro.sim.kernel import SimulationKernel

    return [
        (QueryService, "submit", "service.submit", _ticket_id),
        (QueryService, "tick", "service.tick", None),
        (QueryService, "close", "service.close", None),
        (InlineBackend, "submit", "backend.submit", None),
        (InlineBackend, "pump", "backend.pump", None),
        (ForkedBackend, "submit", "backend.submit", None),
        (ForkedBackend, "pump", "backend.pump", None),
        (ForkPool, "recv_many", "pool.recv_many", None),
        (NetworkSimulator, "session", "network.session", None),
        (EventDrivenSimulator, "session", "network.session", None),
        (NetworkSimulator, "visit_aggregate_batch", "network.visit_batch", _visited_peers),
        (NetworkSimulator, "visit_values_batch", "network.visit_batch", _visited_peers),
        (NetworkSimulator, "visit_aggregate", "network.visit_scalar", None),
        (WalkCursor, "take", "walker.take", _walk_counts),
        (ResilientCollector, "collect_aggregate", "faults.collect", _collection_counts),
        # The private form: the cold path calls it directly and the
        # public ``final_estimate`` only delegates to it.
        (TwoPhaseEngine, "_final_estimate", "core.final_estimate", None),
        (SimulationKernel, "await_delivery", "sim.await_delivery", None),
        (Tracer, "emit", "obs.emit", None),
    ]


def _function_targets() -> List[Tuple[Callable[..., Any], str, Optional[Annotator]]]:
    from repro.core.crossval import cross_validate
    from repro.data.segments import segment_aggregate
    from repro.service.backend import build_task
    from repro.service.scheduler import advance_task

    return [
        (build_task, "backend.build_task", _job_id),
        (advance_task, "backend.advance", _task_id),
        (cross_validate, "core.crossval", None),
        (segment_aggregate, "data.segment_aggregate", _rows_scanned),
    ]


Patch = Tuple[Any, str, Any]


def install(recorder: SpanRecorder) -> List[Patch]:
    """Swap every target for its recording wrapper.

    Returns ``(owner, attribute, original)`` for :func:`uninstall`.
    A module-level function is replaced in *every* ``repro`` module
    that holds a reference to it, so ``from .scheduler import
    advance_task`` aliases are covered too.
    """
    patches: List[Patch] = []
    for owner, attribute, name, annotate in _method_targets():
        original = owner.__dict__[attribute]
        patches.append((owner, attribute, original))
        setattr(owner, attribute, recorder.wrap(name, original, annotate))
    for function, name, annotate in _function_targets():
        wrapper = recorder.wrap(name, function, annotate)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    patches.append((module, attribute, function))
                    setattr(module, attribute, wrapper)
    return patches


def uninstall(patches: List[Patch]) -> None:
    """Put every original back (reverse order of installation)."""
    for owner, attribute, original in reversed(patches):
        setattr(owner, attribute, original)


@contextlib.contextmanager
def recording(recorder: Optional[SpanRecorder]) -> Iterator[None]:
    """Record spans into ``recorder`` for the duration of the block
    (``None``: an untraced round, nothing is wrapped)."""
    patches = install(recorder) if recorder is not None else []
    try:
        yield
    finally:
        uninstall(patches)
