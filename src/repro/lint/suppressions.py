"""Inline suppression comments.

A finding on line N is silenced by a trailing comment on that line::

    for path in residue:  # repro-lint: ignore[DET001]

Several codes may be listed (``ignore[DET001,DET005]``).  Every
suppression must pull its weight, *per code*: each listed code that
silences nothing on its line is reported individually (SUP001), so a
multi-code suppression where only one code ever fires still warns about
the others, and stale suppressions cannot accumulate as the code
evolves.  A listed code that is not a rule code at all (a typo, or a
rule that has been removed) is reported as SUP002 -- it would otherwise
stay silent forever, silencing nothing while looking load-bearing.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, List, Optional, Tuple

from repro.lint.findings import Finding

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*ignore\[([A-Za-z0-9_,\s]+)\]")

#: Code of the unused-suppression warning itself.
UNUSED_CODE = "SUP001"
#: Code of the unknown-rule-code-in-suppression warning.
UNKNOWN_CODE = "SUP002"


def parse_suppressions(source: str) -> Dict[int, List[str]]:
    """Map 1-based line number -> codes suppressed on that line.

    Tokenized rather than line-matched so the marker is only honoured
    in actual comments, never inside string literals or docstrings.
    """
    table: Dict[int, List[str]] = {}
    if "repro-lint" not in source:
        return table  # no marker anywhere: skip the tokenizer
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [(tok.start[0], tok.string) for tok in tokens
                    if tok.type == tokenize.COMMENT]
    except (tokenize.TokenError, IndentationError):
        return table
    for lineno, text in comments:
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        codes = [code.strip().upper() for code in match.group(1).split(",")]
        table[lineno] = [code for code in codes if code]
    return table


def apply_suppressions(findings: List[Finding], source: str, path: str,
                       enabled_codes,
                       known_codes: Optional[frozenset] = None,
                       ) -> Tuple[List[Finding], List[Finding]]:
    """Split findings into (kept, suppressed) and report unused entries.

    ``enabled_codes`` is the set of rule codes this run actually checks;
    a suppression for a known-but-deselected rule is not reported as
    unused (the rule simply did not run).  ``known_codes`` is the full
    rule catalogue: a listed code outside it is a typo and reported as
    SUP002 regardless of selection.  The returned *kept* list already
    includes any SUP001/SUP002 warnings, one finding per code.
    """
    if known_codes is None:
        known_codes = frozenset(enabled_codes)
    table = parse_suppressions(source)
    used: Dict[int, set] = {lineno: set() for lineno in table}
    kept: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in findings:
        codes = table.get(finding.line, [])
        if finding.code in codes:
            used[finding.line].add(finding.code)
            suppressed.append(finding)
        else:
            kept.append(finding)
    for lineno in sorted(table):
        seen = set()
        for code in table[lineno]:
            if code in seen or code in used[lineno]:
                continue
            seen.add(code)
            if code not in known_codes:
                kept.append(Finding(
                    path=path, line=lineno, col=0, code=UNKNOWN_CODE,
                    message=(f"unknown rule code {code!r} in suppression "
                             "(typo or removed rule; it silences "
                             "nothing)")))
            elif code in enabled_codes:
                kept.append(Finding(
                    path=path, line=lineno, col=0, code=UNUSED_CODE,
                    message=(f"unused suppression for {code} "
                             "(nothing to silence on this line)")))
    return kept, suppressed
