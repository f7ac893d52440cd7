"""Content-hash-keyed per-file analysis cache.

Re-linting a tree where nothing changed should not re-parse it.  The
cache keys each file by the sha256 of its bytes plus a *ruleset
fingerprint* (which module rules ran, at which cache schema version)
and stores everything the engine otherwise derives from the AST:

* the :class:`~repro.tools.lint.analysis.summary.ModuleSummary`;
* the bound suppression directives (statement extents included);
* the per-module rule diagnostics (RL001–RL004), **unfiltered** — so
  ``--select``/``--ignore``, suppression matching and the unused
  audit all still apply per run;
* tool errors (a cached syntax failure skips re-parsing too).

Project-level rules (RL006–RL009) are never cached: they are cheap
functions of the summaries and must see the whole current file set.

The cache file is plain JSON, safe to delete at any time, and written
atomically (temp file + rename) so a crashed run cannot corrupt it.
A corrupt or version-skewed file degrades to a cold run, never to an
error.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..diagnostics import Diagnostic
from .summary import ModuleSummary

__all__ = [
    "CACHE_VERSION",
    "AnalysisCache",
    "CacheEntry",
    "content_digest",
]

#: Bump when the summary schema or any cached rule's semantics change;
#: every entry written under another version is discarded wholesale.
CACHE_VERSION = 3


def content_digest(data: bytes) -> str:
    """Stable key for one file's content."""
    return hashlib.sha256(data).hexdigest()


@dataclasses.dataclass
class CacheEntry:
    """Everything derivable from one file's content."""

    digest: str
    fingerprint: str
    summary: Optional[ModuleSummary]
    suppressions: List[Dict[str, Any]]
    module_diagnostics: List[Diagnostic]
    tool_errors: List[Diagnostic]

    def to_json(self) -> Dict[str, Any]:
        return {
            "digest": self.digest,
            "fingerprint": self.fingerprint,
            "summary": (
                self.summary.to_json() if self.summary is not None else None
            ),
            "suppressions": self.suppressions,
            "module_diagnostics": [
                d.to_json() for d in self.module_diagnostics
            ],
            "tool_errors": [d.to_json() for d in self.tool_errors],
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "CacheEntry":
        return cls(
            digest=payload["digest"],
            fingerprint=payload["fingerprint"],
            summary=(
                ModuleSummary.from_json(payload["summary"])
                if payload["summary"] is not None
                else None
            ),
            suppressions=list(payload["suppressions"]),
            module_diagnostics=[
                _diagnostic_from_json(d)
                for d in payload["module_diagnostics"]
            ],
            tool_errors=[
                _diagnostic_from_json(d) for d in payload["tool_errors"]
            ],
        )


def _diagnostic_from_json(payload: Dict[str, Any]) -> Diagnostic:
    return Diagnostic(
        path=payload["path"],
        line=payload["line"],
        column=payload["column"],
        code=payload["code"],
        message=payload["message"],
    )


class AnalysisCache:
    """JSON-backed map ``relpath -> CacheEntry``."""

    def __init__(self, path: Path):
        self._path = path
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._dirty = False
        self.hits = 0
        self.misses = 0
        self._load()

    def _load(self) -> None:
        try:
            payload = json.loads(self._path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if (
            not isinstance(payload, dict)
            or payload.get("version") != CACHE_VERSION
            or not isinstance(payload.get("files"), dict)
        ):
            return
        self._entries = payload["files"]

    def lookup(
        self, relpath: str, digest: str, fingerprint: str
    ) -> Optional[CacheEntry]:
        """The cached entry for ``relpath``, if content and ruleset match."""
        raw = self._entries.get(relpath)
        if raw is None:
            self.misses += 1
            return None
        try:
            entry = CacheEntry.from_json(raw)
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        if entry.digest != digest or entry.fingerprint != fingerprint:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def store(self, relpath: str, entry: CacheEntry) -> None:
        self._entries[relpath] = entry.to_json()
        self._dirty = True

    def save(self) -> None:
        """Write the cache atomically; no-op when nothing changed."""
        if not self._dirty:
            return
        payload = {"version": CACHE_VERSION, "files": self._entries}
        tmp = self._path.with_name(self._path.name + ".tmp")
        try:
            tmp.write_text(
                json.dumps(payload, sort_keys=True), encoding="utf-8"
            )
            os.replace(tmp, self._path)
        except OSError:
            # an unwritable cache location degrades to cold runs
            try:
                tmp.unlink()
            except OSError:
                pass
        self._dirty = False
