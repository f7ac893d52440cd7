"""RL002 — cost accounting.

The paper's evaluation currency is *cost*: every peer visit, hop and
message must land in a :class:`~repro.metrics.cost.CostLedger`, or the
reported visits/latency/bandwidth silently undercount.  Algorithm and
serving code (``core/``, ``sampling/`` and ``service/``) therefore may
not reach around the accounting layer:

* simulator visit/flood calls must pass a ``ledger`` argument;
* raw topology traversal (``.neighbors(...)``) is only allowed inside a
  function that has a ledger in scope (parameter, ``new_ledger()`` or
  ``CostLedger(...)``) — there is no free way to learn the graph;
* private simulator/topology internals (``other._attr``) are off
  limits: they are exactly the handles that skip ``record_visit*`` /
  ``record_hops``.

``network/walker.py`` and ``network/faults.py`` are individually
guarded too: the resilient collector and the fault subsystem sit
directly on the cost path (retries, backoff waits and timeouts must
all be charged).

The observability package (``obs/``) is guarded from the opposite
direction: it observes the cost path but must never *be* one.  Code
under ``obs/`` may not call simulator visit/flood entry points
and may not mutate (or create) cost ledgers — a tracer that visited
peers or charged ledgers would change the very runs it records.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from ..diagnostics import Diagnostic
from .base import ModuleInfo, Rule, dotted_name, function_parameters, walk_function_body

__all__ = [
    "CostAccountingRule",
]

#: Simulator entry points that charge a ledger, with the positional
#: index (1-based) at which ``ledger`` sits in their signatures.
_LEDGER_CALLS: Dict[str, int] = {
    "visit_aggregate": 4,
    "visit_aggregate_batch": 4,
    "visit_values_batch": 4,
    "visit_batch": 3,
    "probe_visit": 3,
    "flood": 3,
}

#: Directories whose modules this rule constrains.
_GUARDED_DIRECTORIES = ("core", "sampling", "service")

#: Individual modules outside those directories that sit on the cost
#: path and are held to the same standard: the resilient collector
#: charges retries/backoff itself, and the fault subsystem decides
#: which probes get charged as timeouts.
_GUARDED_MODULES = (
    ("network", "walker.py"),
    ("network", "faults.py"),
)

#: Ledger mutators and constructors that ``obs/`` may never touch:
#: the observability layer reads the cost path, it never charges it.
_LEDGER_MUTATORS = frozenset(
    {
        "record_hops",
        "record_visit",
        "record_visit_replies",
        "record_visit_pass",
        "record_timeout",
        "record_wait",
        "record_reply",
        "record_flood_message",
        "record_flood_depth",
        "new_ledger",
        "CostLedger",
    }
)


def _applies(module: ModuleInfo) -> bool:
    if any(module.in_directory(name) for name in _GUARDED_DIRECTORIES):
        return True
    return any(
        module.in_directory(directory) and module.filename == filename
        for directory, filename in _GUARDED_MODULES
    )


def _has_ledger_in_scope(
    node: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> bool:
    for parameter in function_parameters(node):
        if parameter == "ledger" or parameter.endswith("_ledger"):
            return True
    for child in walk_function_body(node):
        if isinstance(child, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                child.targets
                if isinstance(child, ast.Assign)
                else [child.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and (
                    target.id == "ledger" or target.id.endswith("_ledger")
                ):
                    return True
        if isinstance(child, ast.Call):
            dotted = dotted_name(child.func)
            if dotted is not None and (
                dotted.endswith("new_ledger") or dotted.endswith("CostLedger")
            ):
                return True
    return False


class CostAccountingRule(Rule):
    code = "RL002"
    name = "cost-accounting"
    description = (
        "core/ and sampling/ must route every visit through a CostLedger "
        "(no unledgered simulator calls, no raw topology traversal, "
        "no private simulator internals)"
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        if module.in_directory("obs"):
            yield from self._check_obs(module)
            return
        if not _applies(module):
            return
        yield from self._check_ledger_calls(module)
        yield from self._check_neighbors(module)
        yield from self._check_private_internals(module)

    # ------------------------------------------------------------------

    def _check_obs(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        """obs/ is observation-only: no peer visits, no ledger writes."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            called = (
                node.func.attr
                if isinstance(node.func, ast.Attribute)
                else node.func.id
                if isinstance(node.func, ast.Name)
                else None
            )
            if called is None:
                continue
            if called in _LEDGER_CALLS:
                yield self.diagnostic(
                    module, node,
                    f"obs/ must not visit peers ('{called}'): the "
                    "observability layer records runs, it does not "
                    "participate in them",
                )
            elif called in _LEDGER_MUTATORS:
                yield self.diagnostic(
                    module, node,
                    f"obs/ must not mutate or create cost ledgers "
                    f"('{called}'): tracing has to leave the accounted "
                    "run unchanged",
                )

    def _check_ledger_calls(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            method = node.func.attr
            ledger_position = _LEDGER_CALLS.get(method)
            if ledger_position is None:
                continue
            has_keyword = any(kw.arg == "ledger" for kw in node.keywords)
            if has_keyword or len(node.args) >= ledger_position:
                continue
            yield self.diagnostic(
                module, node,
                f"'{method}' called without a ledger; every visit must be "
                "charged to a CostLedger",
            )

    def _check_neighbors(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        functions = [
            node
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        owner: Dict[int, Optional[ast.AST]] = {}
        for function in functions:
            for child in walk_function_body(function):
                owner[id(child)] = function
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr != "neighbors":
                continue
            enclosing = owner.get(id(node))
            if enclosing is not None and _has_ledger_in_scope(enclosing):
                continue
            yield self.diagnostic(
                module, node,
                "raw topology traversal ('.neighbors(...)') without a "
                "CostLedger in scope; visits learned this way are never "
                "charged",
            )

    def _check_private_internals(
        self, module: ModuleInfo
    ) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if not node.attr.startswith("_") or node.attr.startswith("__"):
                continue
            receiver = node.value
            if isinstance(receiver, ast.Name) and receiver.id not in (
                "self",
                "cls",
            ):
                yield self.diagnostic(
                    module, node,
                    f"access to private internal '{receiver.id}.{node.attr}' "
                    "bypasses the simulator's accounting surface",
                )
