"""The whole-program PROTO001 and DOS002 rules.

These rules consume the project model built by
:mod:`repro.lint.project` (call graph, reverse call edges, event
reachability):

* **PROTO001** (H2_WINDOW_NEGATIVE) -- a flow-control ``consume()``
  must be dominated by a ``can_send``/``can_send_data`` check on every
  caller chain: true CFG dominance inside the function, composed with
  caller-chain pruning.
* **DOS002** -- unbounded appends of peer input to instance state in
  event-reachable handlers.

Findings cite the reachability witness (file:line call chain) as their
``trace`` and the runtime law they mirror as their ``law``.  The
per-module families (DET/SIM/CACHE/PROTO002/PERF) live in
:mod:`repro.lint.rules`.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.lint.cfg import build_cfg, dominators, header_walk
from repro.lint.findings import Finding
from repro.lint.rules import _dotted_name, _terminal_name


# -- PROTO001: window decrement domination, whole program -------------------


def _window_consume_sites(project):
    """(FuncKey, Call) pairs where a flow-control window is consumed."""
    for key, fn in project.functions.items():
        for node in fn.nodes:
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "consume":
                recv = _dotted_name(node.func.value)
                if recv and "window" in recv.lower():
                    yield key, node


def _checking_functions(project) -> Set:
    """Functions that perform a window check, directly or via callees."""
    checked: Set = set()
    for key, fn in project.functions.items():
        for node in fn.nodes:
            if isinstance(node, ast.Call) \
                    and _terminal_name(node.func) in ("can_send",
                                                      "can_send_data"):
                checked.add(key)
                break
    changed = True
    while changed:
        changed = False
        for key, fn in project.functions.items():
            if key in checked:
                continue
            for candidates, _ in fn.calls:
                if any(callee in checked for callee in candidates):
                    checked.add(key)
                    changed = True
                    break
    return checked


class _CheckedRegion:
    """The lines of one function dominated by a window check.

    A *check event* is a direct ``can_send``/``can_send_data`` call or a
    call to a checking function (the :func:`_checking_functions`
    fixpoint).  Marking is flow-sensitive on the function's CFG:

    * check in an ``if``/``while`` **test**: only the success branch is
      checked -- the ``true`` successor (or the ``false`` successor for
      a negated ``if not can_send():`` guard) plus every block it
      dominates.  The untaken branch stays unchecked, which is exactly
      the ``else: consume()`` false negative the old reverse-BFS missed.
    * check in a plain **statement** (``eligible = self._filter()``):
      later statements in its own block plus every block it strictly
      dominates.
    """

    def __init__(self, project, fn, checking: Set):
        self.lines: Set[int] = set()
        cfg = build_cfg(fn.node)
        dom = dominators(cfg)
        info = project.modules[fn.module]

        block_lines: dict = {}
        for bid, block in cfg.blocks.items():
            for stmt in block.statements:
                for node in header_walk(stmt):
                    line = getattr(node, "lineno", None)
                    if line is not None:
                        block_lines.setdefault(bid, set()).add(line)

        def is_check_call(node: ast.AST) -> bool:
            if not isinstance(node, ast.Call):
                return False
            if _terminal_name(node.func) in ("can_send", "can_send_data"):
                return True
            candidates = project._resolve_callable_ref(node.func, info, fn)
            return bool(candidates) and all(c in checking
                                            for c in candidates)

        def mark_dominated(root: int, strict: bool) -> None:
            for bid, lines in block_lines.items():
                if root in dom.get(bid, set()) \
                        and not (strict and bid == root):
                    self.lines |= lines

        _COMPOUND = (ast.If, ast.While, ast.For, ast.AsyncFor, ast.Try,
                     ast.With, ast.AsyncWith, ast.Match, ast.FunctionDef,
                     ast.AsyncFunctionDef, ast.ClassDef)
        for stmt in fn.nodes:
            if isinstance(stmt, (ast.If, ast.While)):
                if not any(is_check_call(n) for n in ast.walk(stmt.test)):
                    continue
                negated = isinstance(stmt.test, ast.UnaryOp) \
                    and isinstance(stmt.test.op, ast.Not)
                want = "false" if negated else "true"
                for edge in cfg.edges:
                    if edge.kind == want and edge.lineno == stmt.lineno:
                        mark_dominated(edge.target, strict=False)
            elif isinstance(stmt, ast.stmt) \
                    and not isinstance(stmt, _COMPOUND):
                if not any(is_check_call(n) for n in ast.walk(stmt)):
                    continue
                bid = cfg.block_of_stmt(stmt)
                if bid is None:
                    continue
                mark_dominated(bid, strict=True)
                self.lines |= {line for line
                               in block_lines.get(bid, set())
                               if line > stmt.lineno}

    def line_checked(self, lineno: int) -> bool:
        return lineno in self.lines


def check_window_paths(project, enabled: Set[str]) -> List[Finding]:
    """PROTO001: a window ``consume()`` must be *dominated* by a
    ``can_send``/``can_send_data`` check -- true CFG dominance inside
    the function, composed with caller-chain pruning (a caller whose
    call site sits inside its own checked region covers that chain;
    depth 6), mirroring the H2_WINDOW_NEGATIVE runtime law."""
    if "PROTO001" not in enabled:
        return []
    checking = _checking_functions(project)
    regions: dict = {}

    def region_for(key) -> _CheckedRegion:
        if key not in regions:
            regions[key] = _CheckedRegion(
                project, project.functions[key], checking)
        return regions[key]

    findings: List[Finding] = []
    for key, call in _window_consume_sites(project):
        if region_for(key).line_checked(call.lineno):
            continue
        fn = project.functions[key]
        # BFS up the reverse call graph looking for an unchecked chain
        # that dead-ends at a root (nothing above it performs the check
        # on the path to this call site).  A caller whose call site sits
        # inside its checked region dominates that chain and is pruned.
        parents = {key: None}
        frontier = [(key, 0)]
        witness = None
        while frontier and witness is None:
            current, depth = frontier.pop(0)
            callers = project.reverse_calls.get(current, [])
            if not callers:
                # Unchecked entry point (seed, public API, or the
                # consume function itself if nothing calls it).
                witness = current
                break
            if depth >= 6:
                continue
            for caller, lineno in callers:
                if caller in parents:
                    continue
                if region_for(caller).line_checked(lineno):
                    continue  # chain dominated by the caller's check
                parents[caller] = (current, lineno)
                frontier.append((caller, depth + 1))
        if witness is None:
            continue
        trace: List[str] = []
        cursor = witness
        while parents[cursor] is not None:
            child, lineno = parents[cursor]
            caller_fn = project.functions[cursor]
            child_fn = project.functions[child]
            trace.append(f"{caller_fn.path}:{lineno}: "
                         f"{caller_fn.qualname}() calls "
                         f"{child_fn.qualname}() without a window check")
            cursor = child
        root_fn = project.functions[witness]
        trace.insert(0, f"{root_fn.location()}: entry "
                        f"{root_fn.qualname}() performs no "
                        "can_send()/can_send_data() check")
        findings.append(Finding(
            path=fn.path, line=call.lineno, col=call.col_offset,
            code="PROTO001",
            message=(f"window consume() in {fn.qualname}() is not "
                     "dominated by a can_send()/can_send_data() check "
                     "on every caller chain"),
            trace=tuple(trace), law="H2_WINDOW_NEGATIVE"))
    return findings


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
