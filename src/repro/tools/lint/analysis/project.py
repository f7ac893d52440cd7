"""Cross-module indices over a set of :class:`ModuleSummary` objects.

:class:`ProjectAnalysis` is rebuilt on every run (it is cheap — pure
dict construction over summaries).  It provides:

* a **symbol table**: functions keyed by ``(relpath, scope, name)``
  and classes keyed by their absolute dotted name;
* an **import graph** over project modules, with
  :meth:`modules_reachable_from` for "what can service code touch";
* a **call graph** with deliberately conservative resolution — edges
  exist only where the target is certain enough to act on:

  1. bare names bind to a sibling nested def, then a module-level
     function, then (via import aliases, already folded into the
     summary) a function in the imported module;
  2. ``self.m(...)`` binds to a method of the enclosing class;
  3. ``self._attr.m(...)`` binds through the attribute's recorded
     constructor type (``self._walker = RandomWalker(...)`` in
     ``__init__``);
  4. ``Module.Class(...)`` constructor calls bind to
     ``Class.__init__``;
  5. anything else falls back to the *unique-method* rule: ``x.m(...)``
     binds to ``m`` only when exactly one project class defines ``m``
     — this is what resolves calls through locals and inherited
     methods without a type checker, at the cost of missing edges when
     names collide (never inventing wrong ones silently on purpose:
     ambiguity yields *no* edge, keeping taint conservative).

* :meth:`propagate_to_callers` — the fixed point RL006's
  nondeterminism taint runs: a property seeded at some functions flows
  to every (transitive) caller, with a witness chain kept for
  diagnostics.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from .summary import CallSite, ClassSummary, FunctionSummary, ModuleSummary

__all__ = [
    "FunctionKey",
    "ProjectAnalysis",
]


class FunctionKey(NamedTuple):
    """Identity of a function in the project symbol table."""

    relpath: str
    scope: str
    name: str

    def render(self) -> str:
        qual = f"{self.scope}.{self.name}" if self.scope else self.name
        return f"{self.relpath}::{qual}"


class ProjectAnalysis:
    """Symbol table + import graph + call graph over module summaries."""

    def __init__(self, summaries: Iterable[ModuleSummary]):
        self.modules: Dict[str, ModuleSummary] = {
            summary.relpath: summary for summary in summaries
        }
        self.module_by_name: Dict[str, str] = {
            summary.module_name: relpath
            for relpath, summary in self.modules.items()
            if summary.module_name
        }
        self.functions: Dict[FunctionKey, FunctionSummary] = {}
        self.classes: Dict[str, Tuple[str, ClassSummary]] = {}
        self._methods_by_name: Dict[str, List[FunctionKey]] = {}
        for relpath, summary in self.modules.items():
            for function in summary.functions:
                key = FunctionKey(relpath, function.scope, function.name)
                self.functions.setdefault(key, function)
                if function.scope and not function.name.startswith("<"):
                    self._methods_by_name.setdefault(
                        function.name, []
                    ).append(key)
            for class_summary in summary.classes:
                absolute = (
                    f"{summary.module_name}.{class_summary.name}"
                    if summary.module_name
                    else class_summary.name
                )
                self.classes.setdefault(absolute, (relpath, class_summary))

        self._edges: Dict[FunctionKey, List[Tuple[FunctionKey, CallSite]]] = {}
        self._callers: Dict[FunctionKey, List[FunctionKey]] = {}
        self._build_call_graph()
        self._import_edges = self._build_import_graph()

    # ------------------------------------------------------------------
    # lookups

    def module(self, relpath: str) -> ModuleSummary:
        return self.modules[relpath]

    def iter_functions(self) -> Iterable[Tuple[FunctionKey, FunctionSummary]]:
        return self.functions.items()

    def callees_of(
        self, key: FunctionKey
    ) -> List[Tuple[FunctionKey, CallSite]]:
        """Resolved outgoing call edges of ``key``."""
        return self._edges.get(key, [])

    # ------------------------------------------------------------------
    # call graph

    def _build_call_graph(self) -> None:
        for key, function in self.functions.items():
            edges: List[Tuple[FunctionKey, CallSite]] = []
            summary = self.modules[key.relpath]
            for call in function.calls:
                target = self._resolve_call(summary, key, call)
                if target is not None:
                    edges.append((target, call))
                    self._callers.setdefault(target, []).append(key)
            if edges:
                self._edges[key] = edges

    def _resolve_call(
        self,
        summary: ModuleSummary,
        caller: FunctionKey,
        call: CallSite,
    ) -> Optional[FunctionKey]:
        parts = call.resolved.split(".")
        relpath = caller.relpath

        if parts[0] == "self" and caller.scope:
            if len(parts) == 2:
                candidate = FunctionKey(relpath, caller.scope, parts[1])
                return candidate if candidate in self.functions else None
            if len(parts) == 3:
                via_attr = self._resolve_through_attr(
                    summary, caller.scope, parts[1], parts[2]
                )
                if via_attr is not None:
                    return via_attr
                return self._unique_method(parts[2])
            return None

        if len(parts) == 1:
            sibling = FunctionKey(relpath, caller.scope, parts[0])
            if caller.scope and sibling in self.functions:
                return sibling
            local = FunctionKey(relpath, "", parts[0])
            return local if local in self.functions else None

        # dotted: longest project-module prefix wins
        for split in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:split])
            target_relpath = self.module_by_name.get(prefix)
            if target_relpath is None:
                continue
            rest = parts[split:]
            if len(rest) == 1:
                candidate = FunctionKey(target_relpath, "", rest[0])
                if candidate in self.functions:
                    return candidate
                # Module.Class(...) — bind the constructor
                init = FunctionKey(target_relpath, rest[0], "__init__")
                return init if init in self.functions else None
            if len(rest) == 2:
                candidate = FunctionKey(target_relpath, rest[0], rest[1])
                return candidate if candidate in self.functions else None
            return None

        # imported-class constructor: resolved name is the class itself
        class_hit = self.classes.get(call.resolved)
        if class_hit is not None:
            class_relpath, class_summary = class_hit
            init = FunctionKey(class_relpath, class_summary.name, "__init__")
            return init if init in self.functions else None

        return self._unique_method(parts[-1])

    def _resolve_through_attr(
        self, summary: ModuleSummary, scope: str, attr: str, method: str
    ) -> Optional[FunctionKey]:
        for class_summary in summary.classes:
            if class_summary.name != scope:
                continue
            record = class_summary.init_attrs.get(attr)
            if record is None or not record.ctor:
                return None
            class_hit = self.classes.get(record.ctor)
            if class_hit is None:
                return None
            class_relpath, target_class = class_hit
            candidate = FunctionKey(class_relpath, target_class.name, method)
            return candidate if candidate in self.functions else None
        return None

    def _unique_method(self, method: str) -> Optional[FunctionKey]:
        owners = self._methods_by_name.get(method, [])
        if len(owners) == 1:
            return owners[0]
        return None

    # ------------------------------------------------------------------
    # import graph

    def _build_import_graph(self) -> Dict[str, Set[str]]:
        edges: Dict[str, Set[str]] = {}
        for relpath, summary in self.modules.items():
            targets: Set[str] = set()
            for record in summary.imports:
                dotted = record.target.split(".")
                for split in range(len(dotted), 0, -1):
                    prefix = ".".join(dotted[:split])
                    hit = self.module_by_name.get(prefix)
                    if hit is not None:
                        targets.add(hit)
                        break
            targets.discard(relpath)
            edges[relpath] = targets
        return edges

    def modules_reachable_from(
        self, predicate: Callable[[ModuleSummary], bool]
    ) -> Set[str]:
        """Modules transitively imported from any module matching
        ``predicate`` (the matching modules themselves included)."""
        frontier = [
            relpath
            for relpath, summary in self.modules.items()
            if predicate(summary)
        ]
        reachable: Set[str] = set(frontier)
        while frontier:
            current = frontier.pop()
            for target in self._import_edges.get(current, set()):
                if target not in reachable:
                    reachable.add(target)
                    frontier.append(target)
        return reachable

    # ------------------------------------------------------------------
    # fixed points

    def propagate_to_callers(
        self, seeds: Dict[FunctionKey, str]
    ) -> Dict[FunctionKey, List[str]]:
        """Flow a property from ``seeds`` to all transitive callers.

        ``seeds`` maps a function to a human-readable witness for why
        it carries the property.  Every caller inherits the property
        and the witness chain, extended by the callee's name.  Returns
        the full carrier set with witness chains, seeds included.
        """
        chains = {key: [witness] for key, witness in seeds.items()}
        worklist = list(chains)
        while worklist:
            current = worklist.pop()
            for caller in self._callers.get(current, []):
                if caller in chains:
                    continue
                chains[caller] = [
                    f"calls {current.render()}"
                ] + chains[current][:2]
                worklist.append(caller)
        return chains
