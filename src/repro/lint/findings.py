"""Finding records and the lint report container.

A finding is one rule violation at one source location.  Findings are
plain data so the CLI can render them as text or JSON and tests can
assert on them structurally.  Interprocedural findings additionally
carry a ``trace`` -- the call chain (file:line hops) along which the
offending value escaped -- and PROTO findings carry the ``law`` they
are the static counterpart of (see docs/INVARIANTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class Finding:
    """One rule violation (or unused-suppression warning)."""

    path: str
    line: int
    col: int
    code: str
    message: str
    #: Escape path for interprocedural findings: ``file:line: note`` hops
    #: from the origin of the value/call to the flagged site.
    trace: Tuple[str, ...] = ()
    #: docs/INVARIANTS.md law this finding is the static counterpart of
    #: (PROTO/DOS/LEAK families; empty for purely static contracts).
    law: str = ""

    def sort_key(self):
        return (self.path, self.line, self.col, self.code)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "path": self.path, "line": self.line, "col": self.col,
            "code": self.code, "message": self.message}
        if self.trace:
            payload["trace"] = list(self.trace)
        if self.law:
            payload["law"] = self.law
        return payload

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
        if self.law:
            text += f" [law: {self.law}]"
        for hop in self.trace:
            text += f"\n    via {hop}"
        return text


@dataclass
class LintReport:
    """Outcome of one lint run over a set of files."""

    findings: List[Finding]
    files_checked: int
    #: Findings matched (and silenced) by the committed baseline file.
    baselined: int = 0
    #: Baseline entries that no longer match anything (candidates for
    #: removal from the committed file).
    stale_baseline: int = 0
    #: The stale entries themselves: (path, code, context, count) rows
    #: naming exactly which committed suppressions are dead weight.
    stale_entries: Tuple[Tuple[str, str, str, int], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.findings

    def by_code(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": 1,
            "files_checked": self.files_checked,
            "findings": [f.to_dict() for f in self.findings],
            "summary": {"total": len(self.findings),
                        "by_code": self.by_code(),
                        "baselined": self.baselined,
                        "stale_baseline": self.stale_baseline,
                        "stale_entries": [list(e) for e
                                          in self.stale_entries]},
        }
