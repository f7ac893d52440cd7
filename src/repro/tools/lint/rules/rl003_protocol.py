"""RL003 — protocol immutability.

Messages are value objects: once constructed they travel the simulated
wire and may be shared between ledgers, engines and result objects.  A
mutated message corrupts whoever else holds a reference, so

* every dataclass in ``network/protocol.py`` must be declared
  ``frozen=True, slots=True`` (slots also blocks new attributes and
  keeps the per-message footprint flat);
* nowhere in the codebase may a protocol-message field be assigned on
  an instance (``reply.ttl = 3``), nor may ``object.__setattr__`` be
  used to pierce the freeze on anything but ``self`` (a frozen
  dataclass's own ``__post_init__`` is the single legitimate user).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..diagnostics import Diagnostic
from .base import ModuleInfo, Rule, dotted_name

__all__ = [
    "ProtocolImmutabilityRule",
]

#: The module that defines the wire protocol.
_PROTOCOL_MODULE_SUFFIX = ("network", "protocol.py")

#: Field names of the protocol message dataclasses.  Assigning any of
#: these on a non-``self`` receiver is treated as message mutation.
_MESSAGE_FIELDS = frozenset(
    {
        "source",
        "destination",
        "ttl",
        "hops",
        "sink",
        "query_text",
        "tuples_per_peer",
        "aggregate_value",
        "matching_count",
        "column_total",
        "contribution_variance",
        "degree",
        "local_tuples",
        "processed_tuples",
        "entries",
        "shared_tuples",
        "num_hits",
        "rows",
        "probability",
    }
)


def _is_protocol_module(module: ModuleInfo) -> bool:
    return module.parts[-2:] == _PROTOCOL_MODULE_SUFFIX


def _dataclass_decorator(node: ast.ClassDef) -> "ast.expr | None":
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        dotted = dotted_name(target)
        if dotted is not None and dotted.split(".")[-1] == "dataclass":
            return decorator
    return None


class ProtocolImmutabilityRule(Rule):
    code = "RL003"
    name = "protocol-immutability"
    description = (
        "protocol dataclasses must be frozen=True, slots=True, and "
        "message instances must never be mutated"
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        if _is_protocol_module(module):
            yield from self._check_dataclass_declarations(module)
        yield from self._check_mutations(module)

    # ------------------------------------------------------------------

    def _check_dataclass_declarations(
        self, module: ModuleInfo
    ) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            decorator = _dataclass_decorator(node)
            if decorator is None:
                continue  # enums / plain classes are not constrained
            flags = {}
            if isinstance(decorator, ast.Call):
                for keyword in decorator.keywords:
                    if isinstance(keyword.value, ast.Constant):
                        flags[keyword.arg] = keyword.value.value
            missing = [
                flag
                for flag in ("frozen", "slots")
                if flags.get(flag) is not True
            ]
            if missing:
                yield self.diagnostic(
                    module, node,
                    f"protocol dataclass '{node.name}' must declare "
                    f"{', '.join(f'{flag}=True' for flag in missing)}",
                )

    def _check_mutations(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if not isinstance(target, ast.Attribute):
                        continue
                    if target.attr not in _MESSAGE_FIELDS:
                        continue
                    receiver = target.value
                    if isinstance(receiver, ast.Name) and receiver.id in (
                        "self",
                        "cls",
                    ):
                        continue
                    yield self.diagnostic(
                        module, target,
                        f"assignment to message field '.{target.attr}'; "
                        "protocol messages are immutable — build a new one "
                        "with dataclasses.replace",
                    )
            elif isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted != "object.__setattr__":
                    continue
                first = node.args[0] if node.args else None
                if isinstance(first, ast.Name) and first.id == "self":
                    continue
                yield self.diagnostic(
                    module, node,
                    "object.__setattr__ on a non-self target pierces frozen "
                    "dataclasses; protocol messages are immutable",
                )
