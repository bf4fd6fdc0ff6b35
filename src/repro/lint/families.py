"""The whole-program DOS002 rule.

DOS002 flags unbounded appends of peer input to instance state in
event-reachable handlers.  It consumes the project model built by
:mod:`repro.lint.project` (call graph and event reachability); a
finding cites the reachability witness (file:line call chain) as its
``trace`` and the runtime law it mirrors as its ``law``.  The
per-module families (DET/CACHE/PROTO002/PERF) live in
:mod:`repro.lint.rules`.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.lint.findings import Finding
from repro.lint.rules import _dotted_name, _terminal_name


# -- DOS002: unbounded peer-fed appends over event reachability -------------

#: Event-handler naming convention: these functions receive
#: peer-controlled arguments from the event loop.
_HANDLER_PREFIXES = ("on_", "_on_", "handle_", "_handle_")

#: Identifier fragments that signal growth of the container is bounded.
_BOUND_TOKENS = ("max", "limit", "capacity", "watermark", "maxlen",
                 "depth", "budget", "cap", "bound")


def _identifiers(node: ast.AST):
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.keyword) and child.arg:
            yield child.arg


def _has_token(node: ast.AST, tokens) -> bool:
    return any(any(token in ident.lower() for token in tokens)
               for ident in _identifiers(node))


def _has_len_guard(fn_node) -> bool:
    """A ``len(...)`` comparison anywhere in the function."""
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Compare):
            for side in [node.left] + list(node.comparators):
                if isinstance(side, ast.Call) \
                        and _terminal_name(side.func) == "len":
                    return True
    return False


def _tainted_names(fn_node) -> Set[str]:
    """Parameters plus locals assigned from tainted expressions
    (fixpoint, so statement order does not matter)."""
    args = fn_node.args
    tainted = {a.arg for a in (args.posonlyargs + args.args
                               + args.kwonlyargs)} - {"self"}
    if args.vararg:
        tainted.add(args.vararg.arg)
    if args.kwarg:
        tainted.add(args.kwarg.arg)
    assigns = [node for node in ast.walk(fn_node)
               if isinstance(node, ast.Assign)]
    changed = True
    while changed:
        changed = False
        for node in assigns:
            uses = {n.id for n in ast.walk(node.value)
                    if isinstance(n, ast.Name)}
            if not (uses & tainted):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name) \
                        and target.id not in tainted:
                    tainted.add(target.id)
                    changed = True
    return tainted


def check_dos_appends(project, enabled: Set[str]) -> List[Finding]:
    """DOS002: an event-reachable handler appending peer-derived input
    to instance state with no ``len()`` comparison or bound token
    anywhere in the function -- the unbounded-queue memory shape."""
    if "DOS002" not in enabled:
        return []
    findings: List[Finding] = []
    for key in sorted(project.event_reachable):
        fn = project.functions[key]
        if not fn.name.startswith(_HANDLER_PREFIXES):
            continue
        if _has_len_guard(fn.node) or _has_token(fn.node, _BOUND_TOKENS):
            continue
        tainted = _tainted_names(fn.node)
        if not tainted:
            continue
        for node in fn.nodes:
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("append", "appendleft")):
                continue
            recv = _dotted_name(node.func.value)
            if not recv or not recv.startswith("self."):
                continue
            feeds = any(isinstance(n, ast.Name) and n.id in tainted
                        for arg in node.args
                        for n in ast.walk(arg))
            if not feeds:
                continue
            trace = tuple(project.event_reachable[key]) + (
                f"{fn.path}:{node.lineno}: peer-derived value "
                f"appended to {recv} with no size guard in "
                f"{fn.qualname}()",)
            findings.append(Finding(
                path=fn.path, line=node.lineno, col=node.col_offset,
                code="DOS002",
                message=(f"unbounded append to {recv} in "
                         f"event-reachable handler {fn.qualname}(); "
                         "peer input grows instance state with no "
                         "len()/limit guard"),
                trace=trace, law="DOS_UNBOUNDED_QUEUE"))
    return findings
