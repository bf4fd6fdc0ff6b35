"""Per-function control-flow graphs over stdlib ``ast``.

One :class:`CFG` is built per function (or method) body.  Blocks are
maximal straight-line statement sequences; edges carry a *kind* and the
line number of the statement that created them, so analyses can render
a concrete branch sequence (``via path:line: note`` hops) as finding
evidence.

Shape choices, tuned for the analyses that consume them (PROTO001
dominance via :func:`dominators`, the LEAK traces' branch evidence via
:meth:`CFG.path_edges`):

* Two synthetic sinks: :attr:`CFG.exit` (returns and the fall-off end)
  and :attr:`CFG.error` (uncaught exceptions).  Edges into them have
  kinds ``return`` / ``raise``.
* ``if``/``while`` tests end their block with ``true``/``false``
  edges; ``for`` uses ``loop``/``loop-exit``; ``break``/``continue``
  edges keep their kinds; back edges are ``back``.
* ``try``: every statement-bearing block inside the body gets one
  ``except`` edge to the handler-dispatch block (statement-level raise
  points stay inside the block).  ``finally`` bodies are built once on
  the normal path, with an extra ``raise`` continuation when the try
  can leak an exception.
* ``with`` introduces a dedicated body-entry block via a ``with`` edge
  (the golden tests pin this), and ``match`` lowers each case to a
  ``case`` edge plus a shared ``case-else`` fall-through.

The graphs over-approximate feasible paths (no condition evaluation),
so a dominance fact holds on every real path.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Edge kinds that represent a concrete control decision; path evidence
#: renders these (plain fall-through hops stay silent).
BRANCH_KINDS = frozenset({
    "true", "false", "loop", "loop-exit", "break", "continue",
    "except", "case", "case-else", "back", "raise", "with",
})

#: Statements whose evaluation may raise (approximation: anything that
#: performs a call, subscript, attribute access, arithmetic, or is an
#: explicit raise/assert).  Only blocks holding one get an exception
#: edge.
_RAISING_EXPR = (ast.Call, ast.Subscript, ast.BinOp, ast.Attribute)


def header_nodes(stmt: ast.stmt) -> List[ast.AST]:
    """The parts of a statement evaluated in *its own* basic block
    (compound statements carry their bodies in other blocks)."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.target, stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        nodes: List[ast.AST] = []
        for item in stmt.items:
            nodes.append(item.context_expr)
            if item.optional_vars is not None:
                nodes.append(item.optional_vars)
        return nodes
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, (ast.Try, ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return []
    return [stmt]


def header_walk(stmt: ast.stmt):
    """Walk only the header parts of ``stmt`` (see ``header_nodes``)."""
    for node in header_nodes(stmt):
        yield from ast.walk(node)


def may_raise(stmt: ast.stmt) -> bool:
    """True when evaluating ``stmt``'s *own block part* can plausibly
    raise.  Compound statements contribute only their headers: the
    calls inside an ``if`` body raise from the body's block, not from
    the block holding the test."""
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    for node in header_walk(stmt):
        if isinstance(node, _RAISING_EXPR):
            return True
    return False


@dataclass(frozen=True)
class Edge:
    """One control transfer between blocks."""

    source: int
    target: int
    kind: str            # "next", "true", "false", "loop", "except", ...
    lineno: int          # statement that created the transfer
    note: str = ""       # human rendering, e.g. "branch `if x:` is false"


class BasicBlock:
    """A maximal straight-line run of statements."""

    __slots__ = ("bid", "statements")

    def __init__(self, bid: int):
        self.bid = bid
        self.statements: List[ast.stmt] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lines = [getattr(s, "lineno", "?") for s in self.statements]
        return f"<block {self.bid} lines={lines}>"


class CFG:
    """Control-flow graph of one function body."""

    def __init__(self, name: str):
        self.name = name
        self.blocks: Dict[int, BasicBlock] = {}
        self.edges: List[Edge] = []
        self.entry = 0
        #: Normal termination (every return + the fall-off end).
        self.exit = -1
        #: Uncaught-exception termination.
        self.error = -2
        self._succs: Optional[Dict[int, List[Edge]]] = None
        self._preds: Optional[Dict[int, List[Edge]]] = None
        self._stmt_block: Optional[Dict[int, int]] = None

    # -- topology -----------------------------------------------------------

    def successors(self, bid: int) -> List[Edge]:
        if self._succs is None:
            succs: Dict[int, List[Edge]] = {}
            for edge in self.edges:
                succs.setdefault(edge.source, []).append(edge)
            self._succs = succs
        return self._succs.get(bid, [])

    def predecessors(self, bid: int) -> List[Edge]:
        if self._preds is None:
            preds: Dict[int, List[Edge]] = {}
            for edge in self.edges:
                preds.setdefault(edge.target, []).append(edge)
            self._preds = preds
        return self._preds.get(bid, [])

    def node_ids(self) -> List[int]:
        """Every block id plus the two synthetic sinks, entry first."""
        return list(self.blocks) + [self.exit, self.error]

    def block_of_stmt(self, stmt: ast.stmt) -> Optional[int]:
        """The block a statement was placed in (id()-keyed)."""
        if self._stmt_block is None:
            table: Dict[int, int] = {}
            for bid, block in self.blocks.items():
                for statement in block.statements:
                    table[id(statement)] = bid
            self._stmt_block = table
        return self._stmt_block.get(id(stmt))

    # -- path evidence ------------------------------------------------------

    def path_edges(self, target: int, avoid=frozenset(),
                   sources: Optional[List[int]] = None) -> Optional[List[Edge]]:
        """Shortest edge sequence from entry (or ``sources``) to
        ``target`` that never enters a block in ``avoid``.  None when
        no such path exists."""
        starts = sources if sources is not None else [self.entry]
        parents: Dict[int, Optional[Edge]] = {}
        frontier: List[int] = []
        for start in starts:
            if start in avoid:
                continue
            parents.setdefault(start, None)
            frontier.append(start)
        while frontier:
            current = frontier.pop(0)
            if current == target:
                hops: List[Edge] = []
                cursor: Optional[Edge] = parents[current]
                while cursor is not None:
                    hops.append(cursor)
                    cursor = parents[cursor.source]
                hops.reverse()
                return hops
            for edge in self.successors(current):
                if edge.target in avoid or edge.target in parents:
                    continue
                parents[edge.target] = edge
                frontier.append(edge.target)
        return None

    def describe_path(self, path: str,
                      edges: List[Edge]) -> Tuple[str, ...]:
        """Render the decision points of an edge path as trace hops."""
        hops = []
        for edge in edges:
            if edge.kind in BRANCH_KINDS and edge.note:
                hops.append(f"{path}:{edge.lineno}: {edge.note}")
        return tuple(hops)


def _test_text(test: ast.AST, limit: int = 40) -> str:
    try:
        text = ast.unparse(test)
    except Exception:  # pragma: no cover - unparse is total on our input
        text = "<test>"
    if len(text) > limit:
        text = text[:limit - 3] + "..."
    return text


class _Builder:
    """Recursive statement walker producing a :class:`CFG`."""

    def __init__(self, name: str):
        self.cfg = CFG(name)
        self._next_id = 0
        self.current = self._new_block()
        self.cfg.entry = self.current.bid
        #: (continue_target, break_target) per enclosing loop.
        self.loops: List[Tuple[int, int]] = []
        #: Exception continuation per enclosing try (innermost last).
        self.handlers: List[int] = []
        #: Deferred ``return`` sites per enclosing try-with-finally
        #: (innermost last): a return inside must run the finally body
        #: before reaching the exit, so its edge is wired when the
        #: finally block exists.
        self.finally_returns: List[List[Tuple[int, int]]] = []

    # -- plumbing -----------------------------------------------------------

    def _new_block(self) -> BasicBlock:
        block = BasicBlock(self._next_id)
        self._next_id += 1
        self.cfg.blocks[block.bid] = block
        return block

    def _edge(self, source: int, target: int, kind: str, lineno: int,
              note: str = "") -> None:
        self.cfg.edges.append(Edge(source=source, target=target, kind=kind,
                                   lineno=lineno, note=note))

    def _exception_target(self) -> int:
        return self.handlers[-1] if self.handlers else self.cfg.error

    def _seal_for_exceptions(self, block: BasicBlock) -> None:
        """One ``except``/``raise`` edge per statement-bearing block so
        an in-block raise can divert to the nearest handler."""
        if not any(may_raise(stmt) for stmt in block.statements):
            return
        target = self._exception_target()
        lineno = next((s.lineno for s in block.statements if may_raise(s)),
                      block.statements[0].lineno)
        kind = "except" if self.handlers else "raise"
        note = ("an exception raised here reaches the handler"
                if self.handlers else
                "an exception raised here escapes the function")
        self._edge(block.bid, target, kind, lineno, note)

    def _start_block(self) -> BasicBlock:
        """Seal the current block and start a fresh one (no implicit
        fall-through edge; the caller wires entries)."""
        self._seal_for_exceptions(self.current)
        self.current = self._new_block()
        return self.current

    def _fall_through(self, lineno: int) -> BasicBlock:
        """Seal the current block and continue into a fresh successor."""
        previous = self.current
        block = self._start_block()
        self._edge(previous.bid, block.bid, "next", lineno)
        return block

    # -- statement dispatch --------------------------------------------------

    def build(self, body: List[ast.stmt]) -> CFG:
        terminated = self._emit_body(body)
        if not terminated:
            last_line = body[-1].end_lineno or body[-1].lineno
            self._edge(self.current.bid, self.cfg.exit, "return", last_line,
                       "falls off the end of the function")
        self._seal_for_exceptions(self.current)
        self._prune_orphans()
        return self.cfg

    def _prune_orphans(self) -> None:
        """Drop empty blocks with no edges (created after return/raise
        to terminate a body) so golden tests see the real shape."""
        touched = {self.cfg.entry}
        for edge in self.cfg.edges:
            touched.add(edge.source)
            touched.add(edge.target)
        for bid in list(self.cfg.blocks):
            block = self.cfg.blocks[bid]
            if bid not in touched and not block.statements:
                del self.cfg.blocks[bid]

    def _emit_body(self, body: List[ast.stmt]) -> bool:
        """Emit statements into the current block; True when control
        cannot fall out of the bottom (return/raise/break/continue)."""
        for stmt in body:
            if self._emit_stmt(stmt):
                return True
        return False

    def _emit_stmt(self, stmt: ast.stmt) -> bool:
        if isinstance(stmt, ast.If):
            return self._emit_if(stmt)
        if isinstance(stmt, ast.While):
            return self._emit_while(stmt)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._emit_for(stmt)
        if isinstance(stmt, ast.Try):
            return self._emit_try(stmt)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._emit_with(stmt)
        if isinstance(stmt, ast.Match):
            return self._emit_match(stmt)
        if isinstance(stmt, ast.Return):
            self.current.statements.append(stmt)
            if self.finally_returns:
                # Inside try/finally: the finally body intervenes; the
                # edge is wired once that body has been built.
                self.finally_returns[-1].append(
                    (self.current.bid, stmt.lineno))
            else:
                self._edge(self.current.bid, self.cfg.exit, "return",
                           stmt.lineno, "returns here")
            self._start_block()
            return True
        if isinstance(stmt, ast.Raise):
            self.current.statements.append(stmt)
            target = self._exception_target()
            kind = "except" if self.handlers else "raise"
            self._edge(self.current.bid, target, kind, stmt.lineno,
                       "raises here")
            self._start_block()
            return True
        if isinstance(stmt, ast.Break):
            self.current.statements.append(stmt)
            if self.loops:
                self._edge(self.current.bid, self.loops[-1][1], "break",
                           stmt.lineno, "breaks out of the loop")
            self._start_block()
            return True
        if isinstance(stmt, ast.Continue):
            self.current.statements.append(stmt)
            if self.loops:
                self._edge(self.current.bid, self.loops[-1][0], "continue",
                           stmt.lineno, "continues the loop")
            self._start_block()
            return True
        # Plain statement (nested def/class bodies are opaque here: the
        # statement is a unit of this function's control flow).
        self.current.statements.append(stmt)
        return False

    # -- compound statements ------------------------------------------------

    def _emit_if(self, stmt: ast.If) -> bool:
        self.current.statements.append(stmt)
        cond = self.current
        text = _test_text(stmt.test)
        then_entry = self._start_block()
        self._edge(cond.bid, then_entry.bid, "true", stmt.lineno,
                   f"branch `if {text}:` is taken")
        then_done = self._emit_body(stmt.body)
        then_exit = self.current

        else_entry = self._start_block()
        self._edge(cond.bid, else_entry.bid, "false", stmt.lineno,
                   f"branch `if {text}:` is not taken")
        else_done = self._emit_body(stmt.orelse) if stmt.orelse else False
        else_exit = self.current

        join = self._start_block()
        if not then_done:
            self._edge(then_exit.bid, join.bid, "next", stmt.lineno)
        if not else_done:
            self._edge(else_exit.bid, join.bid, "next", stmt.lineno)
        return then_done and else_done

    def _emit_while(self, stmt: ast.While) -> bool:
        self.current.statements.append(stmt)
        before = self.current
        text = _test_text(stmt.test)

        head = self._start_block()
        self._edge(before.bid, head.bid, "next", stmt.lineno)

        after = self._new_block()
        body_entry = self._new_block()
        self._edge(head.bid, body_entry.bid, "true", stmt.lineno,
                   f"loop `while {text}:` iterates")
        self._edge(head.bid, after.bid, "false", stmt.lineno,
                   f"loop `while {text}:` exits")

        self.loops.append((head.bid, after.bid))
        self.current = body_entry
        body_done = self._emit_body(stmt.body)
        if not body_done:
            self._seal_for_exceptions(self.current)
            self._edge(self.current.bid, head.bid, "back",
                       stmt.body[-1].lineno, "loops back")
        self.loops.pop()

        if stmt.orelse:
            # while/else: the else body runs on normal loop exit.
            self.current = after
            self._emit_body(stmt.orelse)
            after = self._fall_through(stmt.lineno)
        self.current = after
        return False

    def _emit_for(self, stmt) -> bool:
        self.current.statements.append(stmt)
        before = self.current
        text = _test_text(stmt.iter)

        head = self._start_block()
        self._edge(before.bid, head.bid, "next", stmt.lineno)

        after = self._new_block()
        body_entry = self._new_block()
        self._edge(head.bid, body_entry.bid, "loop", stmt.lineno,
                   f"loop `for ... in {text}:` iterates")
        self._edge(head.bid, after.bid, "loop-exit", stmt.lineno,
                   f"loop `for ... in {text}:` is exhausted")

        self.loops.append((head.bid, after.bid))
        self.current = body_entry
        body_done = self._emit_body(stmt.body)
        if not body_done:
            self._seal_for_exceptions(self.current)
            self._edge(self.current.bid, head.bid, "back",
                       stmt.body[-1].lineno, "loops back")
        self.loops.pop()

        if stmt.orelse:
            self.current = after
            self._emit_body(stmt.orelse)
            after = self._fall_through(stmt.lineno)
        self.current = after
        return False

    def _emit_try(self, stmt: ast.Try) -> bool:
        before = self.current
        dispatch = self._new_block()

        # Seal the pre-try block under the *outer* handler context, then
        # enter the body with this try's dispatch on the handler stack.
        body_entry = self._start_block()
        self._edge(before.bid, body_entry.bid, "next", stmt.lineno)
        if stmt.finalbody:
            # Collect returns in the body/orelse/handlers; they must
            # pass through the finally body on the way out.
            self.finally_returns.append([])
        self.handlers.append(dispatch.bid)
        body_done = self._emit_body(stmt.body)
        body_exit = self.current
        self._seal_for_exceptions(body_exit)
        self.handlers.pop()

        join = self._new_block()

        # Normal completion: orelse runs, then finally, then join.
        if not body_done:
            if stmt.orelse:
                else_entry = self._new_block()
                self._edge(body_exit.bid, else_entry.bid, "next",
                           stmt.lineno)
                self.current = else_entry
                else_done = self._emit_body(stmt.orelse)
                if not else_done:
                    self._seal_for_exceptions(self.current)
                    self._edge(self.current.bid, join.bid, "next",
                               stmt.lineno)
            else:
                self._edge(body_exit.bid, join.bid, "next", stmt.lineno)

        # Handlers hang off the dispatch block.
        catches_all = False
        for handler in stmt.handlers:
            if handler.type is None:
                catches_all = True
            label = (_test_text(handler.type) if handler.type is not None
                     else "BaseException")
            entry = self._new_block()
            self._edge(dispatch.bid, entry.bid, "except", handler.lineno,
                       f"handler `except {label}:` catches")
            self.current = entry
            handler_done = self._emit_body(handler.body or [ast.Pass()])
            if not handler_done:
                self._seal_for_exceptions(self.current)
                self._edge(self.current.bid, join.bid, "next",
                           handler.lineno)
        escapes = not stmt.handlers or not catches_all
        outer = self._exception_target()
        escape_kind = "except" if self.handlers else "raise"

        if stmt.finalbody:
            # The finally body runs on the normal continuation AND on a
            # propagating exception, so release sites in it cover both
            # paths.  We build the body once on the normal path and give
            # its exit an extra re-raise edge for the escape case.
            deferred_returns = self.finally_returns.pop()
            final_entry = join
            self.current = join
            final_done = self._emit_body(stmt.finalbody)
            final_exit = self.current
            self._seal_for_exceptions(final_exit)
            join = self._new_block()
            if not final_done:
                self._edge(final_exit.bid, join.bid, "next", stmt.lineno)
                if escapes:
                    self._edge(final_exit.bid, outer, escape_kind,
                               stmt.lineno,
                               "the exception propagates after finally")
            if escapes:
                self._edge(dispatch.bid, final_entry.bid, "except",
                           stmt.lineno,
                           "no handler matches; finally runs first")
            # Deferred returns: into the finally body, then out to the
            # exit once it completes.
            for bid, lineno in deferred_returns:
                self._edge(bid, final_entry.bid, "next", lineno,
                           "return runs `finally:` first")
            if deferred_returns and not final_done:
                self._edge(final_exit.bid, self.cfg.exit, "return",
                           stmt.lineno, "returns after finally")
        elif escapes:
            self._edge(dispatch.bid, outer, escape_kind, stmt.lineno,
                       "no handler matches; the exception propagates")
        self.current = join
        return False

    def _emit_with(self, stmt) -> bool:
        self.current.statements.append(stmt)
        before = self.current
        items = ", ".join(_test_text(item.context_expr, 24)
                          for item in stmt.items)
        body_entry = self._start_block()
        self._edge(before.bid, body_entry.bid, "with", stmt.lineno,
                   f"enters `with {items}:`")
        body_done = self._emit_body(stmt.body)
        if body_done:
            self._start_block()
            return True
        self._fall_through(stmt.lineno)
        return False

    def _emit_match(self, stmt: ast.Match) -> bool:
        self.current.statements.append(stmt)
        subject = self.current
        text = _test_text(stmt.subject, 24)
        join = self._new_block()
        all_done = bool(stmt.cases)
        has_wildcard = False
        for case in stmt.cases:
            pattern = _test_text(case.pattern, 30)
            if isinstance(case.pattern, ast.MatchAs) \
                    and case.pattern.pattern is None and case.guard is None:
                has_wildcard = True
            entry = self._new_block()
            self._edge(subject.bid, entry.bid, "case", case.pattern.lineno,
                       f"`match {text}` takes `case {pattern}:`")
            self.current = entry
            case_done = self._emit_body(case.body)
            all_done = all_done and case_done
            if not case_done:
                self._seal_for_exceptions(self.current)
                self._edge(self.current.bid, join.bid, "next",
                           case.pattern.lineno)
        if not has_wildcard:
            self._edge(subject.bid, join.bid, "case-else", stmt.lineno,
                       f"`match {text}` matches no case")
            all_done = False
        self.current = join
        return all_done


def build_cfg(func_node) -> CFG:
    """CFG for one ``ast.FunctionDef`` / ``ast.AsyncFunctionDef``."""
    name = getattr(func_node, "name", "<lambda>")
    builder = _Builder(name)
    return builder.build(list(func_node.body))


# -- dominators -------------------------------------------------------------

def _reverse_postorder(cfg: CFG) -> List[int]:
    seen = set()
    order: List[int] = []

    def visit(bid: int) -> None:
        # Iterative DFS; recursion depth is bounded by function size but
        # generated fixtures can chain deeply.
        stack: List[Tuple[int, int]] = [(bid, 0)]
        while stack:
            node, idx = stack.pop()
            if idx == 0:
                if node in seen:
                    continue
                seen.add(node)
            succs = cfg.successors(node)
            if idx < len(succs):
                stack.append((node, idx + 1))
                target = succs[idx].target
                if target not in seen:
                    stack.append((target, 0))
            else:
                order.append(node)

    visit(cfg.entry)
    for node in cfg.node_ids():
        if node not in seen:
            visit(node)
    order.reverse()
    return order


def dominators(cfg: CFG) -> Dict[int, set]:
    """dom[b] = the set of blocks on every entry->b path (incl. b).

    PROTO001 needs true intraprocedural dominance ("every path to the
    consume passes through the can_send branch").  Iterative fixpoint
    in reverse postorder; our CFGs are one function each, so clarity
    wins over the Lengauer-Tarjan algorithm.
    """
    nodes = cfg.node_ids()
    universe = set(nodes)
    dom: Dict[int, set] = {n: set(universe) for n in nodes}
    dom[cfg.entry] = {cfg.entry}
    order = [n for n in _reverse_postorder(cfg) if n != cfg.entry]
    changed = True
    while changed:
        changed = False
        for node in order:
            preds = [e.source for e in cfg.predecessors(node)]
            if preds:
                new = set.intersection(*(dom[p] for p in preds))
            else:
                new = set()  # unreachable from entry
            new.add(node)
            if new != dom[node]:
                dom[node] = new
                changed = True
    return dom


__all__ = ["BRANCH_KINDS", "BasicBlock", "CFG", "Edge", "build_cfg",
           "dominators", "may_raise"]
