"""Committed finding baselines for gradual rule adoption.

A baseline file records findings that predate a rule (or live in code
the rule deliberately tolerates, e.g. tests exercising the bad pattern
on purpose) so a newly enabled family can gate CI immediately without a
mass-suppression commit.  Entries match on ``(path, code, context)``
where *context* is the stripped text of the offending line -- stable
across unrelated edits that shift line numbers -- with a ``count`` so
N identical lines in one file stay N, not unlimited.

Workflow::

    repro lint tests benchmarks --write-baseline lint-baseline.json
    repro lint tests benchmarks --baseline lint-baseline.json

Matched findings are dropped from the report (counted as
``baselined``); baseline entries that no longer match anything are
reported as ``stale_baseline`` (``--stats`` names each one) so the file
shrinks as debt is paid: regenerate it with ``--write-baseline``.
New findings are never absorbed: anything not in the file still fails
the run.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from repro.lint.findings import Finding

BASELINE_VERSION = 1

_Key = Tuple[str, str, str]


class Baseline:
    """In-memory view of a baseline file, consumed during filtering."""

    def __init__(self, entries: Dict[_Key, int]):
        self._budget: Dict[_Key, int] = dict(entries)

    @classmethod
    def load(cls, path: str) -> "Baseline":
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("version") != BASELINE_VERSION:
            raise ValueError(
                f"unsupported baseline version {payload.get('version')!r} "
                f"in {path} (expected {BASELINE_VERSION})")
        entries: Dict[_Key, int] = {}
        for entry in payload.get("entries", []):
            key = (entry["path"], entry["code"], entry["context"])
            entries[key] = entries.get(key, 0) + int(entry.get("count", 1))
        return cls(entries)

    def absorb(self, finding: Finding, line_text: str) -> bool:
        """True (and one use consumed) when the finding is baselined."""
        key = (finding.path, finding.code, line_text.strip())
        remaining = self._budget.get(key, 0)
        if remaining <= 0:
            return False
        self._budget[key] = remaining - 1
        return True

    def stale_count(self) -> int:
        """Entries (by count) that matched nothing this run."""
        return sum(count for count in self._budget.values() if count > 0)

    def stale_entries(self) -> List[Tuple[str, str, str, int]]:
        """(path, code, context, unmatched count) per stale entry, so
        the CLI can name exactly which lines of the committed file are
        dead weight."""
        return [(path, code, context, remaining)
                for (path, code, context), remaining
                in sorted(self._budget.items()) if remaining > 0]


def write_baseline(path: str, findings: List[Finding],
                   line_text_for) -> int:
    """Serialize ``findings`` as a baseline file; returns entry count.

    ``line_text_for(finding)`` must return the source line the finding
    points at (the engine has the decoded sources in hand).
    """
    counts: Dict[_Key, int] = {}
    for finding in findings:
        key = (finding.path, finding.code,
               line_text_for(finding).strip())
        counts[key] = counts.get(key, 0) + 1
    entries = [{"path": p, "code": c, "context": ctx, "count": n}
               for (p, c, ctx), n in sorted(counts.items())]
    payload = {"version": BASELINE_VERSION, "entries": entries}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return len(entries)


__all__ = ["BASELINE_VERSION", "Baseline", "write_baseline"]
