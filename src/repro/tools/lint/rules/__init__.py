"""reprolint rule registry.

| code  | name                         | invariant                                    |
|-------|------------------------------|----------------------------------------------|
| RL001 | seed-discipline              | all randomness via seeded numpy Generators   |
| RL002 | cost-accounting              | every visit charged to a CostLedger          |
| RL003 | protocol-immutability        | frozen/slots messages, never mutated         |
| RL004 | float-equality               | no == / != between floats in src/            |
| RL006 | nondet-taint                 | no nondeterminism reachable from det. paths  |
| RL007 | rng-stream-discipline        | no re-seeding / shared Generators / draws    |
| RL008 | snapshot-immutability        | published snapshots frozen; no fork hazards  |

RL001–RL004 are per-module :class:`Rule` subclasses; RL006–RL008 are
whole-program :class:`AnalysisRule` subclasses running over module
summaries.

(RL000 is reserved for tool errors: parse failures and malformed
suppression directives; see :mod:`repro.tools.lint.suppress`.  RL005
and RL009 are retired — see :data:`RETIRED_CODES` — and their codes
are not reused.)
"""

from __future__ import annotations

from typing import Tuple, Type, Union

from .base import AnalysisRule, ModuleInfo, Rule
from .rl001_seed import SeedDisciplineRule
from .rl002_cost import CostAccountingRule
from .rl003_protocol import ProtocolImmutabilityRule
from .rl004_floateq import FloatEqualityRule
from .rl006_nondet import GUARDED_DIRECTORIES, NondetTaintRule
from .rl007_rng import RngDisciplineRule
from .rl008_snapshot import SnapshotImmutabilityRule

#: Per-module rules (one AST at a time).
MODULE_RULES: Tuple[Type[Rule], ...] = (
    SeedDisciplineRule,
    CostAccountingRule,
    ProtocolImmutabilityRule,
    FloatEqualityRule,
)

#: Whole-program rules (run over the summaries of every file).
ANALYSIS_RULES: Tuple[Type[AnalysisRule], ...] = (
    NondetTaintRule,
    RngDisciplineRule,
    SnapshotImmutabilityRule,
)

ALL_RULES: Tuple[Union[Type[Rule], Type[AnalysisRule]], ...] = (
    MODULE_RULES + ANALYSIS_RULES
)

#: Codes of deleted rules: RL005 (batch/scalar parity, now test-side
#: oracles) and RL009 (trace/ledger reconciliation, now checked at run
#: time by the observability tests).
RETIRED_CODES = ("RL005", "RL009")

__all__ = [
    "ALL_RULES",
    "ANALYSIS_RULES",
    "AnalysisRule",
    "GUARDED_DIRECTORIES",
    "MODULE_RULES",
    "ModuleInfo",
    "RETIRED_CODES",
    "Rule",
    "SeedDisciplineRule",
    "CostAccountingRule",
    "ProtocolImmutabilityRule",
    "FloatEqualityRule",
    "NondetTaintRule",
    "RngDisciplineRule",
    "SnapshotImmutabilityRule",
]
