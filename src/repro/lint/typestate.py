"""Typestate: declarative resource lifecycles checked over CFG paths.

A lifecycle is ``acquire -> use* -> release`` with explicit error-path
edges: the rule proves that once a resource is acquired, **every** CFG
path to a function exit passes a release site.  Three lifecycles ship:

* **RES001** (``H2_STREAM_LEAK``): an HTTP/2-style stream handle bound
  by an ``open_stream()``/``accept_stream()`` call must be closed or
  reset on all paths.  A leaked stream counts against
  ``max_concurrent_streams`` forever -- exactly the slot-exhaustion
  shape slow-DoS attacks park on.
* **RES002** (``H2_CREDIT_LEAK``): flow-control credit taken with
  ``window.consume()`` must be replenished on *exception* paths when
  the function replenishes on the normal path (``error_paths_only``:
  permanent consumes, where credit legally returns via the peer's
  WINDOW_UPDATE, never show a replenish and are not flagged).
* **DOS003** (``TIMER_ARMED_NOT_CANCELLED``): a deadline-timer handle
  bound by a ``schedule()``/``schedule_at()`` call (a target whose
  name mentions ``timer`` or ``deadline``) must be cancelled --
  ``handle.cancel()`` or ``handle = None`` -- on every path that shows
  cancel intent.  Release sites *before* the arm do not count
  (``release_after_acquire``): the cancel-then-rearm idiom cancels the
  previous handle, so a function that only ever re-arms is an
  arm-forever design, not a leak.

Gating -- the analysis only fires when the function *shows release
intent* (contains at least one release site for the same resource).
Arm-forever and consume-forever designs (a timer that is only ever
re-armed, send_data_frame) are legitimate ownership transfers, not leaks.  A
resource that escapes the function (returned, stored on an object,
passed to an unknown callee) is treated as transferred and skipped.

Interprocedural release: a helper that releases one of its parameters
(directly or by forwarding to another releasing helper -- a fixpoint
over the project call graph, same shape as the set-returning summary)
counts as a release site at its call sites, so ``self._teardown(s)``
on one branch does not silence a leak on the other.

Evidence: each finding's trace is the concrete branch sequence from
the acquire to the leaking exit (``via file:line: branch ... is taken``
hops), rendered from the CFG edge path.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.cfg import CFG, Edge, build_cfg, header_walk, may_raise
from repro.lint.findings import Finding
from repro.lint.rules import _dotted_name, _terminal_name

#: Terminal call names that bind a fresh stream-like resource.
_STREAM_OPEN_NAMES = frozenset({
    "open_stream", "open_push_stream", "accept_stream", "create_stream",
    "open_bidi_stream", "open_uni_stream",
})

#: Method names that retire a stream-like resource.
_STREAM_RELEASE_NAMES = frozenset({
    "close", "reset", "abort", "rst", "release", "finish",
    "on_send_rst", "on_recv_rst",
})

#: Window-credit release method names (RES002).
_CREDIT_RELEASE_NAMES = frozenset({"replenish", "release", "refund"})

#: Call names that arm a simulator timer (DOS003); the binding target
#: must look like a timer handle (see ``_TIMER_TARGET_WORDS``).
_TIMER_ARM_NAMES = frozenset({"schedule", "schedule_at"})

#: Substrings that mark an assignment target as a timer handle.
_TIMER_TARGET_WORDS = ("timer", "deadline")

#: Edge kinds that represent exceptional control transfer.
_EXCEPTIONAL_KINDS = frozenset({"except", "raise"})


@dataclass(frozen=True)
class Lifecycle:
    """One declarative acquire/release state machine."""

    code: str
    law: str
    noun: str
    error_paths_only: bool = False
    #: Only release sites *after* the acquire show release intent
    #: (cancel-then-rearm idioms cancel the *previous* handle, not
    #: this one).
    release_after_acquire: bool = False


LIFECYCLES: Tuple[Lifecycle, ...] = (
    Lifecycle(code="RES001", law="H2_STREAM_LEAK",
              noun="stream handle"),
    Lifecycle(code="RES002", law="H2_CREDIT_LEAK",
              noun="flow-control credit", error_paths_only=True),
    Lifecycle(code="DOS003", law="TIMER_ARMED_NOT_CANCELLED",
              noun="deadline timer", release_after_acquire=True),
)


@dataclass(frozen=True)
class _Acquire:
    """One acquire site inside a function."""

    lifecycle: Lifecycle
    resource: str            # name ("stream") or dotted ("self._timer")
    stmt: ast.stmt
    lineno: int
    col: int


def _mentions_name(stmt: ast.stmt, name: str) -> bool:
    return any(isinstance(n, ast.Name) and n.id == name
               for n in header_walk(stmt))


# -- interprocedural release summary ----------------------------------------

def releasing_params(project) -> Dict[Tuple[str, str], Set[int]]:
    """FuncKey -> parameter indices the function releases, directly or
    by forwarding to another releasing helper (fixpoint)."""
    releasing: Dict[Tuple[str, str], Set[int]] = {}
    forwards: Dict[Tuple[str, str],
                   List[Tuple[int, Tuple[str, str], int]]] = {}
    params_of: Dict[Tuple[str, str], List[str]] = {}
    for key, fn in project.functions.items():
        args = fn.node.args
        names = [a.arg for a in (args.posonlyargs + args.args)]
        params_of[key] = names
        info = project.modules[fn.module]
        for node in fn.nodes:
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _STREAM_RELEASE_NAMES \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id in names:
                releasing.setdefault(key, set()).add(
                    names.index(node.func.value.id))
                continue
            candidates = project._resolve_callable_ref(node.func, info, fn)
            if len(candidates) != 1:
                continue
            callee = candidates[0]
            offset = _self_offset(project, callee, node)
            for pos, arg in enumerate(node.args):
                if isinstance(arg, ast.Name) and arg.id in names:
                    forwards.setdefault(key, []).append(
                        (names.index(arg.id), callee, pos + offset))
    changed = True
    while changed:
        changed = False
        for key, hops in forwards.items():
            for my_index, callee, callee_index in hops:
                if callee_index in releasing.get(callee, set()) \
                        and my_index not in releasing.get(key, set()):
                    releasing.setdefault(key, set()).add(my_index)
                    changed = True
    return releasing


def _self_offset(project, callee, call: ast.Call) -> int:
    """1 when the callee's first parameter is a bound ``self``."""
    fn = project.functions.get(callee)
    if fn is None or not isinstance(call.func, ast.Attribute):
        return 0
    args = fn.node.args
    names = [a.arg for a in (args.posonlyargs + args.args)]
    return 1 if names[:1] == ["self"] else 0


# -- per-function site collection -------------------------------------------

def _collect_acquires(stmts: List[ast.stmt]) -> List[_Acquire]:
    """Acquire sites for every lifecycle, scanning block headers only."""
    acquires: List[_Acquire] = []
    for stmt in stmts:
        for node in header_walk(stmt):
            if isinstance(node, ast.Call):
                name = _terminal_name(node.func)
                if name in _STREAM_OPEN_NAMES and isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            acquires.append(_Acquire(
                                LIFECYCLES[0], target.id, stmt,
                                stmt.lineno, stmt.col_offset))
                elif name in _TIMER_ARM_NAMES \
                        and isinstance(stmt, ast.Assign) \
                        and node is stmt.value:
                    for target in stmt.targets:
                        dotted = (_dotted_name(target)
                                  if isinstance(target, ast.Attribute)
                                  else target.id
                                  if isinstance(target, ast.Name) else None)
                        if dotted is None:
                            continue
                        last = dotted.rsplit(".", 1)[-1].lower()
                        if any(word in last
                               for word in _TIMER_TARGET_WORDS):
                            acquires.append(_Acquire(
                                LIFECYCLES[2], dotted, stmt,
                                stmt.lineno, stmt.col_offset))
                elif name == "consume" \
                        and isinstance(node.func, ast.Attribute):
                    recv = _dotted_name(node.func.value)
                    if recv and "window" in recv.lower():
                        acquires.append(_Acquire(
                            LIFECYCLES[1], recv, stmt,
                            node.lineno, node.col_offset))
    return acquires


class _ResourceModel:
    """Classifies statements as release / escape for one acquire."""

    def __init__(self, acquire: _Acquire, project, fn, releasing):
        self.acquire = acquire
        self.project = project
        self.fn = fn
        self.releasing = releasing

    def releases(self, stmt: ast.stmt) -> bool:
        acq = self.acquire
        for node in header_walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            if acq.lifecycle.code == "RES001":
                if isinstance(node.func, ast.Attribute) \
                        and node.func.attr in _STREAM_RELEASE_NAMES \
                        and isinstance(node.func.value, ast.Name) \
                        and node.func.value.id == acq.resource:
                    return True
                if self._releasing_call(node):
                    return True
            elif acq.lifecycle.code == "RES002":
                if isinstance(node.func, ast.Attribute) \
                        and node.func.attr in _CREDIT_RELEASE_NAMES:
                    recv = _dotted_name(node.func.value)
                    if recv and (recv == acq.resource
                                 or "window" in recv.lower()):
                        return True
            elif acq.lifecycle.code == "DOS003":
                if isinstance(node.func, ast.Attribute) \
                        and node.func.attr == "cancel" \
                        and _dotted_name(node.func.value) == acq.resource:
                    return True
        if self.acquire.lifecycle.code == "DOS003" \
                and isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, (ast.Attribute, ast.Name)) \
                        and _dotted_name(target) == acq.resource \
                        and isinstance(stmt.value, ast.Constant) \
                        and stmt.value.value is None:
                    return True
        return False

    def _releasing_call(self, node: ast.Call) -> bool:
        """``self._teardown(stream)`` where the helper releases that
        parameter (interprocedural summary)."""
        info = self.project.modules[self.fn.module]
        candidates = self.project._resolve_callable_ref(
            node.func, info, self.fn)
        if len(candidates) != 1:
            return False
        callee = candidates[0]
        released = self.releasing.get(callee, set())
        if not released:
            return False
        offset = _self_offset(self.project, callee, node)
        for pos, arg in enumerate(node.args):
            if isinstance(arg, ast.Name) \
                    and arg.id == self.acquire.resource \
                    and pos + offset in released:
                return True
        return False

    def escapes(self, stmt: ast.stmt) -> bool:
        """Ownership leaves the function: returned, stored, aliased, or
        passed to a callee not known to release it."""
        acq = self.acquire
        if acq.lifecycle.code != "RES001":
            return False
        name = acq.resource
        if isinstance(stmt, ast.Return):
            return stmt.value is not None and _mentions_name(stmt, name)
        if isinstance(stmt, ast.Assign) and stmt.value is not None \
                and any(isinstance(n, ast.Name) and n.id == name
                        and isinstance(n.ctx, ast.Load)
                        for n in ast.walk(stmt.value)):
            if stmt is not acq.stmt:
                return True
        for node in header_walk(stmt):
            if isinstance(node, (ast.Yield, ast.YieldFrom)) \
                    and node.value is not None \
                    and any(isinstance(n, ast.Name) and n.id == name
                            for n in ast.walk(node)):
                return True
            if isinstance(node, ast.Call) and not self._releasing_call(node):
                in_args = any(
                    isinstance(n, ast.Name) and n.id == name
                    for arg in list(node.args)
                    + [kw.value for kw in node.keywords]
                    for n in ast.walk(arg))
                receiver_release = (
                    isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == name)
                if in_args and not receiver_release:
                    return True
        return False


# -- the path search --------------------------------------------------------

def _stmt_index(block_stmts: List[ast.stmt], stmt: ast.stmt) -> int:
    for index, candidate in enumerate(block_stmts):
        if candidate is stmt:
            return index
        for node in ast.walk(candidate):
            if node is stmt:
                return index
    return 0


def _block_effects(model: _ResourceModel, stmts: List[ast.stmt],
                   start: int) -> Tuple[bool, bool]:
    """(held at normal exit, may raise while held) for a block entered
    holding the resource, starting at statement index ``start``."""
    held = True
    raised_held = False
    for stmt in stmts[start:]:
        if model.releases(stmt):
            held = False
        elif held and may_raise(stmt):
            raised_held = True
    return held, raised_held


def _find_leak(cfg: CFG, model: _ResourceModel,
               acquire: _Acquire) -> Optional[Tuple[List[Edge], bool]]:
    """A path from the acquire to an exit holding the resource, or
    None.  Returns (edge path, took_exceptional_edge)."""
    start_bid = cfg.block_of_stmt(acquire.stmt)
    if start_bid is None:
        return None
    start_block = cfg.blocks[start_bid]
    acquire_idx = _stmt_index(start_block.statements, acquire.stmt)

    # States: (block, exceptional-edge-taken); parents for evidence.
    parents: Dict[Tuple[int, bool],
                  Tuple[Optional[Tuple[int, bool]], Optional[Edge]]] = {}
    frontier: List[Tuple[int, bool]] = []
    leaks: List[Tuple[Tuple[int, bool], Edge]] = []

    def expand(state: Tuple[int, bool], entry_idx: int) -> None:
        bid, exc = state
        block = cfg.blocks.get(bid)
        stmts = block.statements if block is not None else []
        held_out, raised_held = _block_effects(model, stmts, entry_idx)
        for edge in cfg.successors(bid):
            exceptional = edge.kind in _EXCEPTIONAL_KINDS
            if exceptional and not raised_held:
                continue
            if not exceptional and not held_out:
                continue
            nxt = (edge.target, exc or exceptional)
            if edge.target in (cfg.exit, cfg.error):
                leaks.append((nxt, edge))
                parents.setdefault(nxt, (state, edge))
                continue
            if nxt in parents:
                continue
            parents[nxt] = (state, edge)
            frontier.append(nxt)

    def leaking_path() -> Optional[Tuple[List[Edge], bool]]:
        """The first exit reached since the last call that counts as a
        leak, with its edge path rebuilt from ``parents``."""
        for candidate, edge in leaks:
            exc = candidate[1] or edge.target == cfg.error
            if not model.acquire.lifecycle.error_paths_only or exc:
                hops: List[Edge] = []
                cursor: Tuple[int, bool] = candidate
                while parents[cursor][1] is not None:
                    prev, hop = parents[cursor]
                    hops.append(hop)
                    cursor = prev
                hops.reverse()
                return hops, exc
        leaks.clear()
        return None

    # The acquire block: start past the acquire statement (the acquire
    # call's own raise means nothing was acquired).
    origin = (start_bid, False)
    parents[origin] = (None, None)
    expand(origin, acquire_idx + 1)
    leak = leaking_path()
    while leak is None and frontier:
        expand(frontier.pop(0), 0)
        leak = leaking_path()
    return leak


# -- entry point ------------------------------------------------------------

def check_lifecycles(project, enabled: Set[str]) -> List[Finding]:
    """Run every enabled lifecycle rule over every project function."""
    wanted = [lc for lc in LIFECYCLES if lc.code in enabled]
    if not wanted:
        return []
    wanted_codes = {lc.code for lc in wanted}
    releasing = releasing_params(project)
    findings: List[Finding] = []
    for key in sorted(project.functions):
        fn = project.functions[key]
        # The function's own statements (nested defs are opaque).
        stmts = [node for node in fn.nodes if isinstance(node, ast.stmt)]
        acquires = [a for a in _collect_acquires(stmts)
                    if a.lifecycle.code in wanted_codes]
        if not acquires:
            continue
        cfg = build_cfg(fn.node)
        for acquire in acquires:
            model = _ResourceModel(acquire, project, fn, releasing)
            release_sites = [s for s in stmts if model.releases(s)]
            if acquire.lifecycle.release_after_acquire:
                release_sites = [s for s in release_sites
                                 if s.lineno > acquire.lineno]
            if not release_sites:
                # No release intent: ownership transfer by design.
                continue
            if any(model.escapes(s) for s in stmts):
                continue
            leak = _find_leak(cfg, model, acquire)
            if leak is None:
                continue
            hops, _exc = leak
            trace = [f"{fn.path}:{acquire.lineno}: {acquire.lifecycle.noun}"
                     f" '{acquire.resource}' acquired in {fn.qualname}()"]
            trace.extend(cfg.describe_path(fn.path, hops))
            exit_edge = hops[-1] if hops else None
            if exit_edge is not None:
                where = ("the exception escapes"
                         if exit_edge.target == cfg.error
                         else "the function returns")
                trace.append(f"{fn.path}:{exit_edge.lineno}: {where} with "
                             f"'{acquire.resource}' still held")
            release_word = {"RES001": "closed or reset",
                            "RES002": "replenished",
                            "DOS003": "cancelled"}[
                                acquire.lifecycle.code]
            path_kind = ("an exception path" if acquire.lifecycle.
                         error_paths_only else "some path")
            findings.append(Finding(
                path=fn.path, line=acquire.lineno, col=acquire.col,
                code=acquire.lifecycle.code,
                message=(f"{acquire.lifecycle.noun} '{acquire.resource}' "
                         f"acquired in {fn.qualname}() is not "
                         f"{release_word} on {path_kind} (the function "
                         f"releases on others)"),
                trace=tuple(trace), law=acquire.lifecycle.law))
    return findings


__all__ = ["LIFECYCLES", "Lifecycle", "check_lifecycles"]
