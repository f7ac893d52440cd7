"""Per-module summaries: everything the whole-program rules need.

A :class:`ModuleSummary` is extracted once per file and is plain data
— strings, ints, lists — so the analysis rules never touch an AST.
Each summary records, per function (module-level code is the
pseudo-function ``<module>``):

* every call site, with the callee's dotted name resolved through the
  module's import aliases (``np.random.default_rng`` instead of the
  local spelling), which is what the project call graph is built from;
* nondeterminism seeds (wall clock, OS entropy, unseeded Generators,
  iteration over sets) for RL006;

plus per-class snapshot facts (init-assigned attributes, freeze
operations, post-``__init__`` array writes, bare ``return self._x``
exposures) for RL008 and module-level mutable/RNG state for
RL007/RL008.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import PurePosixPath
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "GENERATOR_CONSTRUCTORS",
    "GENERATOR_DRAW_METHODS",
    "CallSite",
    "ClassSummary",
    "FunctionSummary",
    "ModuleSummary",
    "SeedSite",
    "extract_summary",
    "module_name_for",
]

#: Callables that mint or re-key a numpy Generator stream.
GENERATOR_CONSTRUCTORS = frozenset(
    {"default_rng", "ensure_rng", "Generator", "PCG64", "Philox", "SFC64",
     "MT19937", "RandomState"}
)

#: numpy Generator methods that consume stream state.
GENERATOR_DRAW_METHODS = frozenset(
    {"random", "integers", "choice", "uniform", "normal", "standard_normal",
     "exponential", "poisson", "shuffle", "permutation", "permuted"}
)

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)

_OS_ENTROPY_CALLS = frozenset(
    {"os.urandom", "os.getrandom", "uuid.uuid4", "secrets.token_bytes",
     "secrets.token_hex", "secrets.token_urlsafe", "secrets.randbits",
     "secrets.randbelow", "secrets.choice"}
)

_MUTABLE_FACTORY_NAMES = frozenset(
    {"dict", "list", "set", "bytearray", "defaultdict", "Counter", "deque",
     "OrderedDict", "WeakKeyDictionary", "WeakValueDictionary"}
)

#: Container factories exempt from the shared-state check: weak-ref
#: memo caches keyed by immutable snapshots rebuild themselves per
#: process and cannot leak across fork boundaries.
_WEAK_FACTORY_NAMES = frozenset({"WeakKeyDictionary", "WeakValueDictionary"})

_MUTATING_METHODS = frozenset(
    {"append", "add", "update", "setdefault", "pop", "popitem", "clear",
     "extend", "insert", "remove", "discard", "appendleft"}
)

#: Init values considered immutable scalars — bare returns of these
#: attributes cannot leak writable shared state.
_SCALAR_FACTORIES = frozenset({"int", "float", "bool", "str", "len", "tuple",
                               "frozenset", "bytes"})
_SCALAR_ANNOTATIONS = frozenset({"int", "float", "bool", "str", "bytes"})

#: Substrings marking a helper as freeze-at-construction; assigning
#: ``self._x = _readonly_view(...)`` (or a comprehension of such
#: calls) counts as freezing ``_x``.
_FREEZE_HELPER_MARKERS = ("readonly", "read_only", "frozen", "freeze")

_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``.

    Duplicated from :mod:`..rules.base` on purpose: the analysis layer
    sits *below* the rules package and must not import it (the rules
    import analysis constants, and a two-way dependency would be a
    circular import at package load).
    """
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_name_for(relpath: str) -> str:
    """Dotted module name derived from a (posix) file path.

    Everything up to and including the last ``src`` component is
    stripped, so ``src/repro/network/walker.py`` names
    ``repro.network.walker`` and absolute-path runs of the same tree
    agree with relative-path runs.  Trees without ``src`` (tests,
    fixtures) keep their full dotted path, which is still mutually
    consistent — relative imports inside a fixture tree resolve no
    matter where the tree sits on disk.
    """
    parts = list(PurePosixPath(relpath).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    if "src" in parts:
        cut = len(parts) - 1 - parts[::-1].index("src")
        parts = parts[cut + 1:]
    parts = [part for part in parts if part not in ("/", "\\")]
    return ".".join(parts)


@dataclasses.dataclass
class CallSite:
    """One call expression, alias-resolved."""

    resolved: str
    lineno: int
    col: int
    literal_seed: bool = False  # first positional argument is an int literal

    @property
    def tail(self) -> str:
        """Last dotted component of the callee."""
        return self.resolved.rsplit(".", 1)[-1]

    @property
    def is_attribute(self) -> bool:
        """True for ``x.m(...)``-shaped calls."""
        return "." in self.resolved


@dataclasses.dataclass
class SeedSite:
    """One direct nondeterminism source (RL006)."""

    kind: str  # wall-clock | os-entropy | unseeded-rng | set-iteration | stdlib-random
    detail: str
    lineno: int
    col: int


@dataclasses.dataclass
class FunctionSummary:
    """Facts about one function (or ``<module>`` top-level code)."""

    name: str
    scope: str  # enclosing class path, "" at module level
    calls: List[CallSite] = dataclasses.field(default_factory=list)
    seeds: List[SeedSite] = dataclasses.field(default_factory=list)

    @property
    def qualname(self) -> str:
        return f"{self.scope}.{self.name}" if self.scope else self.name


@dataclasses.dataclass
class AttrRecord:
    """One ``self.x = ...`` assignment inside ``__init__``."""

    name: str
    lineno: int
    ctor: str = ""  # resolved constructor / annotated type, "" if unknown
    frozen_at_init: bool = False  # value flows through a freeze helper
    scalar: bool = False  # value is a plain immutable scalar


@dataclasses.dataclass
class AttrAccess:
    """A post-publication write or bare exposure of ``self.x``."""

    attr: str
    method: str
    lineno: int
    col: int
    op: str  # "store" | "thaw" | "return"


@dataclasses.dataclass
class ClassSummary:
    """Snapshot-relevant facts about one class (RL008)."""

    name: str  # dotted for nested classes
    lineno: int
    init_attrs: Dict[str, AttrRecord] = dataclasses.field(default_factory=dict)
    frozen_attrs: List[str] = dataclasses.field(default_factory=list)
    has_freeze_ops: bool = False
    mutations: List[AttrAccess] = dataclasses.field(default_factory=list)
    bare_returns: List[AttrAccess] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class GlobalState:
    """A module- or class-level binding of interest."""

    name: str
    scope: str  # "" for module level, class path for class bodies
    kind: str  # container kind ("dict", ...) or RNG constructor name
    lineno: int
    col: int
    weak: bool = False  # weak-ref container (exempt memo-cache idiom)
    mutated: bool = False  # something in the module writes to it


@dataclasses.dataclass
class ImportRecord:
    """One imported binding: local alias -> absolute dotted target."""

    alias: str
    target: str


@dataclasses.dataclass
class ModuleSummary:
    """Everything the analysis rules need from one module."""

    relpath: str
    module_name: str
    imports: List[ImportRecord] = dataclasses.field(default_factory=list)
    functions: List[FunctionSummary] = dataclasses.field(default_factory=list)
    classes: List[ClassSummary] = dataclasses.field(default_factory=list)
    mutable_globals: List[GlobalState] = dataclasses.field(default_factory=list)
    rng_state: List[GlobalState] = dataclasses.field(default_factory=list)

    @property
    def parts(self) -> Tuple[str, ...]:
        return PurePosixPath(self.relpath).parts

    @property
    def filename(self) -> str:
        return self.parts[-1] if self.parts else self.relpath

    def in_directory(self, name: str) -> bool:
        """True when ``name`` is one of the parent directory parts."""
        return name in self.parts[:-1]


# ----------------------------------------------------------------------
# Extraction


def _collect_aliases(
    tree: ast.Module, module_name: str, is_package: bool
) -> Tuple[Dict[str, str], List[ImportRecord]]:
    """Local name -> absolute dotted target, for every import."""
    aliases: Dict[str, str] = {}
    records: List[ImportRecord] = []

    def bind(alias: str, target: str) -> None:
        aliases[alias] = target
        records.append(ImportRecord(alias=alias, target=target))

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.asname:
                    bind(name.asname, name.name)
                else:
                    head = name.name.split(".", 1)[0]
                    bind(head, head)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = module_name.split(".") if module_name else []
                # level=1 names the containing package: strip the
                # module component (none for packages, whose name *is*
                # the package), each further level strips one more.
                keep = len(base_parts) - node.level
                if is_package:
                    keep += 1
                base = ".".join(base_parts[:keep]) if keep > 0 else ""
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            else:
                base = node.module or ""
            for name in node.names:
                if name.name == "*":
                    continue
                target = f"{base}.{name.name}" if base else name.name
                bind(name.asname or name.name, target)
    return aliases, records


def _annotation_name(node: Optional[ast.expr]) -> str:
    if node is None:
        return ""
    return dotted_name(node) or ""


def _is_freeze_helper_call(node: ast.expr) -> bool:
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is not None:
            tail = name.rsplit(".", 1)[-1].lower()
            return any(marker in tail for marker in _FREEZE_HELPER_MARKERS)
    return False


def _value_freezes(node: ast.expr) -> bool:
    """Whether an ``__init__`` assignment value is frozen on the way in."""
    if _is_freeze_helper_call(node):
        return True
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        return _is_freeze_helper_call(node.elt)
    if isinstance(node, ast.DictComp):
        return _is_freeze_helper_call(node.value)
    if isinstance(node, ast.Dict):
        return bool(node.values) and all(
            _is_freeze_helper_call(value)
            for value in node.values
            if value is not None
        )
    return False


def _self_attr(node: ast.expr) -> Optional[str]:
    """``x`` for an expression shaped ``self.x``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _subscript_base_attr(node: ast.expr) -> Optional[str]:
    """``x`` when ``node`` is ``self.x[...]`` (arbitrarily nested)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return _self_attr(node)


def _freeze_target(stmt: ast.stmt) -> Optional[Tuple[Optional[str], bool]]:
    """Detect ``<base>.flags.writeable = <bool>`` / ``setflags(write=...)``.

    Returns ``(self_attr_or_None, frozen)`` or ``None`` when the
    statement is not a freeze/thaw operation.
    """
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
        if (
            isinstance(target, ast.Attribute)
            and target.attr == "writeable"
            and isinstance(target.value, ast.Attribute)
            and target.value.attr == "flags"
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, bool)
        ):
            return _self_attr(target.value.value), not stmt.value.value
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        call = stmt.value
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "setflags"
        ):
            for keyword in call.keywords:
                if (
                    keyword.arg == "write"
                    and isinstance(keyword.value, ast.Constant)
                    and isinstance(keyword.value.value, bool)
                ):
                    return (
                        _self_attr(call.func.value),
                        not keyword.value.value,
                    )
    return None


class _Extractor:
    """Single-pass structural walk building a :class:`ModuleSummary`."""

    def __init__(self, relpath: str, tree: ast.Module):
        self.tree = tree
        is_package = PurePosixPath(relpath).name == "__init__.py"
        self.aliases, imports = _collect_aliases(
            tree, module_name_for(relpath), is_package
        )
        self.summary = ModuleSummary(
            relpath=relpath,
            module_name=module_name_for(relpath),
            imports=imports,
        )
        self._global_index: Dict[str, GlobalState] = {}

    # -- name resolution ------------------------------------------------

    def resolve(self, name: str) -> str:
        head, _, rest = name.partition(".")
        target = self.aliases.get(head)
        if target is None:
            return name
        return f"{target}.{rest}" if rest else target

    # -- entry point ----------------------------------------------------

    def run(self) -> ModuleSummary:
        module_fn = FunctionSummary(name="<module>", scope="")
        self.summary.functions.append(module_fn)
        self._walk_block(
            self.tree.body, scope="", current=module_fn,
            class_summary=None, method=None, at_module_level=True,
        )
        for function in self.summary.functions:
            function.calls.sort(key=lambda c: (c.lineno, c.col))
        return self.summary

    # -- structural walk ------------------------------------------------

    def _walk_block(
        self,
        body: Sequence[ast.stmt],
        *,
        scope: str,
        current: FunctionSummary,
        class_summary: Optional[ClassSummary],
        method: Optional[str],
        at_module_level: bool,
        at_class_level: bool = False,
    ) -> None:
        for stmt in body:
            if isinstance(stmt, _DEF_NODES):
                self._enter_function(stmt, scope, current, class_summary)
            elif isinstance(stmt, ast.ClassDef):
                self._enter_class(stmt, scope)
            else:
                self._scan_statement(
                    stmt,
                    current=current,
                    class_summary=class_summary,
                    method=method,
                    at_module_level=at_module_level,
                    at_class_level=at_class_level,
                    scope=scope,
                )

    def _enter_function(
        self,
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
        scope: str,
        enclosing: FunctionSummary,
        class_summary: Optional[ClassSummary],
    ) -> None:
        function = FunctionSummary(name=node.name, scope=scope)
        self.summary.functions.append(function)
        if not enclosing.name.startswith("<"):
            # a def nested in a *function* is (conservatively) invoked
            # by its encloser; module/class bodies merely define theirs
            enclosing.calls.append(
                CallSite(node.name, node.lineno, node.col_offset)
            )
        annotations = {
            arg.arg: _annotation_name(arg.annotation)
            for arg in list(node.args.posonlyargs) + list(node.args.args)
        }
        self._function_annotations = annotations
        self._walk_block(
            node.body,
            scope=scope,
            current=function,
            class_summary=class_summary,
            method=node.name,
            at_module_level=False,
        )

    def _enter_class(self, node: ast.ClassDef, scope: str) -> None:
        class_path = f"{scope}.{node.name}" if scope else node.name
        class_summary = ClassSummary(name=class_path, lineno=node.lineno)
        self.summary.classes.append(class_summary)
        body_fn = FunctionSummary(name="<class>", scope=class_path)
        self.summary.functions.append(body_fn)
        self._walk_block(
            node.body,
            scope=class_path,
            current=body_fn,
            class_summary=class_summary,
            method=None,
            at_module_level=False,
            at_class_level=True,
        )

    # -- per-statement scanning -----------------------------------------

    def _scan_statement(
        self,
        stmt: ast.stmt,
        *,
        current: FunctionSummary,
        class_summary: Optional[ClassSummary],
        method: Optional[str],
        at_module_level: bool,
        at_class_level: bool,
        scope: str,
    ) -> None:
        in_init = method == "__init__"
        if at_module_level or at_class_level:
            self._record_global_bindings(stmt, at_class_level, scope)
        if class_summary is not None and method is not None:
            self._record_class_facts(stmt, class_summary, method, in_init)
        self._record_mutation_of_globals(stmt)

        for node in self._own_nodes(stmt):
            if isinstance(node, ast.Call):
                self._record_call(node, current)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                self._check_set_iteration(node.iter, current)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for generator in node.generators:
                    self._check_set_iteration(generator.iter, current)
            elif isinstance(node, _DEF_NODES):
                self._enter_function(node, scope, current, class_summary)
            elif isinstance(node, ast.ClassDef):
                self._enter_class(node, scope)

    def _own_nodes(self, stmt: ast.stmt) -> Iterable[ast.AST]:
        """Nodes of ``stmt`` (root included), not entering nested defs.

        Nested definitions are yielded once (for structural handling)
        but their bodies are not descended into here.
        """
        stack: List[ast.AST] = [stmt]
        while stack:
            node = stack.pop()
            yield node
            if node is not stmt and isinstance(
                node, (*_DEF_NODES, ast.ClassDef)
            ):
                continue
            stack.extend(ast.iter_child_nodes(node))

    # -- calls / seeds --------------------------------------------------

    def _record_call(self, node: ast.Call, current: FunctionSummary) -> None:
        name = dotted_name(node.func)
        if name is None:
            return
        resolved = self.resolve(name)
        argless = not node.args and not node.keywords
        literal_seed = bool(
            node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, int)
            and not isinstance(node.args[0].value, bool)
        )
        site = CallSite(resolved, node.lineno, node.col_offset, literal_seed)
        current.calls.append(site)

        tail = site.tail
        if resolved in _WALL_CLOCK_CALLS:
            current.seeds.append(
                SeedSite("wall-clock", resolved, node.lineno, node.col_offset)
            )
        elif resolved in _OS_ENTROPY_CALLS:
            current.seeds.append(
                SeedSite("os-entropy", resolved, node.lineno, node.col_offset)
            )
        elif resolved.startswith("random.") and "." not in resolved[7:]:
            current.seeds.append(
                SeedSite(
                    "stdlib-random", resolved, node.lineno, node.col_offset
                )
            )
        elif tail in {"default_rng", "ensure_rng"} and argless:
            current.seeds.append(
                SeedSite(
                    "unseeded-rng", f"{resolved}()",
                    node.lineno, node.col_offset,
                )
            )

    def _check_set_iteration(
        self, iterable: ast.expr, current: FunctionSummary
    ) -> None:
        flagged: Optional[str] = None
        if isinstance(iterable, (ast.Set, ast.SetComp)):
            flagged = "a set literal"
        elif isinstance(iterable, ast.Call):
            name = dotted_name(iterable.func)
            if name is not None:
                tail = self.resolve(name).rsplit(".", 1)[-1]
                if tail in {"set", "frozenset"}:
                    flagged = f"{tail}(...)"
        if flagged is not None:
            current.seeds.append(
                SeedSite(
                    "set-iteration",
                    f"iteration over {flagged} (hash-seed ordering)",
                    iterable.lineno,
                    iterable.col_offset,
                )
            )

    # -- class snapshot facts -------------------------------------------

    def _record_class_facts(
        self,
        stmt: ast.stmt,
        class_summary: ClassSummary,
        method: str,
        in_init: bool,
    ) -> None:
        for node in self._own_statements(stmt):
            freeze = _freeze_target(node)
            if freeze is not None:
                attr, frozen = freeze
                class_summary.has_freeze_ops = True
                if attr is not None and frozen:
                    if attr not in class_summary.frozen_attrs:
                        class_summary.frozen_attrs.append(attr)
                elif attr is not None and not frozen and not in_init:
                    class_summary.mutations.append(
                        AttrAccess(
                            attr, method, node.lineno,
                            getattr(node, "col_offset", 0), "thaw",
                        )
                    )
                continue
            if in_init and isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                value = node.value
                for target in targets:
                    attr_name = _self_attr(target)
                    if attr_name is None or value is None:
                        continue
                    class_summary.init_attrs.setdefault(
                        attr_name, self._attr_record(attr_name, node, value)
                    )
            if not in_init and isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        base = _subscript_base_attr(target)
                        if base is not None:
                            class_summary.mutations.append(
                                AttrAccess(
                                    base, method, target.lineno,
                                    target.col_offset, "store",
                                )
                            )
            if isinstance(node, ast.Return) and node.value is not None:
                attr_name = _self_attr(node.value)
                if attr_name is None:
                    attr_name = _subscript_base_attr(node.value)
                    if attr_name is not None and not isinstance(
                        node.value, ast.Subscript
                    ):
                        attr_name = None
                if attr_name is not None:
                    class_summary.bare_returns.append(
                        AttrAccess(
                            attr_name, method, node.lineno,
                            node.col_offset, "return",
                        )
                    )

    def _own_statements(self, stmt: ast.stmt) -> Iterable[ast.AST]:
        stack: List[ast.AST] = [stmt]
        first = True
        while stack:
            node = stack.pop()
            if not first and isinstance(node, (*_DEF_NODES, ast.ClassDef)):
                continue
            first = False
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _attr_record(
        self, attr: str, stmt: ast.stmt, value: ast.expr
    ) -> AttrRecord:
        ctor = ""
        scalar = False
        if isinstance(value, ast.Call):
            name = dotted_name(value.func)
            if name is not None:
                ctor = self.resolve(name)
                scalar = ctor.rsplit(".", 1)[-1] in _SCALAR_FACTORIES
        elif isinstance(value, ast.Name):
            annotation = getattr(self, "_function_annotations", {}).get(
                value.id, ""
            )
            ctor = self.resolve(annotation) if annotation else ""
            scalar = annotation in _SCALAR_ANNOTATIONS
        elif isinstance(value, ast.Constant):
            scalar = True
        return AttrRecord(
            name=attr,
            lineno=stmt.lineno,
            ctor=ctor,
            frozen_at_init=_value_freezes(value),
            scalar=scalar,
        )

    # -- module / class level state -------------------------------------

    def _record_global_bindings(
        self, stmt: ast.stmt, at_class_level: bool, scope: str
    ) -> None:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            return
        value = stmt.value
        if value is None:
            return
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            if name.startswith("__") and name.endswith("__"):
                continue  # __all__ and friends are interface metadata
            kind, weak = self._container_kind(value)
            record_scope = scope if at_class_level else ""
            if kind is not None:
                state = GlobalState(
                    name=name, scope=record_scope, kind=kind,
                    lineno=stmt.lineno, col=stmt.col_offset, weak=weak,
                )
                self.summary.mutable_globals.append(state)
                if not at_class_level:
                    self._global_index[name] = state
            if isinstance(value, ast.Call):
                call_name = dotted_name(value.func)
                if call_name is not None:
                    tail = self.resolve(call_name).rsplit(".", 1)[-1]
                    if tail in GENERATOR_CONSTRUCTORS:
                        self.summary.rng_state.append(
                            GlobalState(
                                name=name, scope=record_scope, kind=tail,
                                lineno=stmt.lineno, col=stmt.col_offset,
                            )
                        )

    def _container_kind(
        self, value: ast.expr
    ) -> Tuple[Optional[str], bool]:
        if isinstance(value, (ast.Dict, ast.DictComp)):
            return "dict", False
        if isinstance(value, (ast.List, ast.ListComp)):
            return "list", False
        if isinstance(value, (ast.Set, ast.SetComp)):
            return "set", False
        if isinstance(value, ast.Call):
            name = dotted_name(value.func)
            if name is not None:
                tail = self.resolve(name).rsplit(".", 1)[-1]
                if tail in _MUTABLE_FACTORY_NAMES:
                    return tail, tail in _WEAK_FACTORY_NAMES
        return None, False

    def _record_mutation_of_globals(self, stmt: ast.stmt) -> None:
        """Mark module-level containers that the module writes into."""
        if not self._global_index:
            return
        for node in self._own_statements(stmt):
            target_name: Optional[str] = None
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    inner = target
                    while isinstance(inner, ast.Subscript):
                        inner = inner.value
                    if (
                        isinstance(inner, ast.Name)
                        and isinstance(target, ast.Subscript)
                    ):
                        target_name = inner.id
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATING_METHODS
                    and isinstance(func.value, ast.Name)
                ):
                    target_name = func.value.id
            if target_name is not None:
                state = self._global_index.get(target_name)
                if state is not None:
                    state.mutated = True


def extract_summary(relpath: str, tree: ast.Module) -> ModuleSummary:
    """Distill ``tree`` into a :class:`ModuleSummary`."""
    return _Extractor(relpath, tree).run()
