"""Whole-program model: symbol table, call graph, and reachability.

One :class:`Project` is built per lint run from every parsed module.
It powers the interprocedural rules:

* **set-returning summaries** -- which functions return ``set`` /
  ``frozenset`` values, directly or through other helpers, so DET001
  catches a set that escapes a utility and is iterated
  order-sensitively modules away (with the full escape path);
* **event-loop reachability** -- the closure of functions the
  discrete-event loop can enter: callbacks handed to
  ``schedule``/``schedule_at``, functions registered on ``on_*`` hooks
  and observers subscribed with ``<x>.taps.append(fn)``.  PERF rules
  only fire inside it;
* **cell reachability** -- the closure of functions reachable from
  :class:`RunSpec` cell functions (resolved from their
  ``"module:function"`` dotted-path strings), where CACHE rules police
  the content-addressed cache contract.

Indexing walks each module once.  The walk hands every function its
own nodes (:attr:`FunctionInfo.nodes`) and the module its top-level
nodes (:attr:`ModuleInfo.nodes`); every rule reads those instead of
re-walking the function.

Call resolution is deliberately simple (stdlib ``ast`` only, no type
inference): plain names resolve through the module's imports and local
definitions, ``self.m()`` resolves within the enclosing class, and any
other ``x.m()`` links to every project function named ``m``
(class-hierarchy analysis by name).  That over-approximates reachability
-- acceptable for PERF/CACHE, which want recall -- while the precise
DET rules only consume the unambiguous summaries.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: (module, qualname) uniquely names a function in the project.
FuncKey = Tuple[str, str]

#: Method names too generic to devirtualize by name: linking every
#: ``x.get()`` to every project method called ``get`` would glue
#: unrelated subsystems together.
_GENERIC_NAMES = frozenset({
    "get", "pop", "add", "append", "remove", "clear", "copy", "update",
    "items", "keys", "values", "join", "split", "sort", "close", "open",
    "read", "write", "run", "next", "send",
})


@dataclass
class FunctionInfo:
    """One function or method, with its call sites."""

    module: str
    qualname: str            # "f", "Cls.m", "f.<locals>.inner"
    name: str                # bare name
    path: str
    lineno: int
    node: ast.AST
    class_name: Optional[str] = None
    parent: Optional[FuncKey] = None      # enclosing function, if nested
    #: The function's own nodes: body, arguments, decorators and lambda
    #: bodies, but not the insides of nested defs/classes.  Reversed
    #: postorder -- a node before its children, later siblings before
    #: earlier ones -- which is the order the first-wins summaries (the
    #: witness call site, the taint binding) were pinned under.  Simple
    #: statements never nest, so ``reversed(nodes)`` meets them in
    #: source order.
    nodes: Tuple[ast.AST, ...] = ()
    #: Call sites: (candidate callee keys, line number).
    calls: List[Tuple[Tuple[FuncKey, ...], int]] = field(default_factory=list)

    @property
    def key(self) -> FuncKey:
        return (self.module, self.qualname)

    def location(self) -> str:
        return f"{self.path}:{self.lineno}"


@dataclass
class ModuleInfo:
    """One parsed module: everything the rules need to know about it."""

    path: str
    module: str          # dotted name, e.g. "repro.simnet.engine"
    package: str         # containing package ("" outside any package)
    tree: ast.Module
    source: str
    #: Every import statement in the module, in breadth-first order
    #: (filled in by :class:`Project`, like the fields below).
    imports: List[ast.stmt] = field(default_factory=list)
    #: local name -> dotted origin, from every import in the module.
    aliases: Dict[str, str] = field(default_factory=dict)
    #: Nodes outside every def/class body, ordered like
    #: :attr:`FunctionInfo.nodes`.
    nodes: Tuple[ast.AST, ...] = ()
    #: Names of every class defined anywhere in the module.
    class_names: Set[str] = field(default_factory=set)


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def collect_aliases(imports: Sequence[ast.stmt]) -> Dict[str, str]:
    """local name -> dotted origin; a later import of a name wins."""
    aliases: Dict[str, str] = {}
    for node in imports:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module:
            for alias in node.names:
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def is_set_annotation(node: Optional[ast.AST]) -> bool:
    if isinstance(node, ast.Name):
        return node.id in ("set", "frozenset")
    if isinstance(node, ast.Subscript):
        base = node.value
        name = base.attr if isinstance(base, ast.Attribute) else (
            base.id if isinstance(base, ast.Name) else None)
        return name in ("Set", "FrozenSet", "AbstractSet", "MutableSet",
                        "set", "frozenset")
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        return (text in ("set", "frozenset")
                or text.startswith(("Set[", "FrozenSet[", "set[",
                                    "frozenset[")))
    return False


class Project:
    """Symbol table + call graph over every linted module."""

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.modules: Dict[str, ModuleInfo] = {m.module: m for m in modules}
        self.functions: Dict[FuncKey, FunctionInfo] = {}
        #: id(def node) -> its FunctionInfo, including defs shadowed by
        #: a later def of the same qualname (absent from ``functions``).
        self._by_node: Dict[int, FunctionInfo] = {}
        #: bare name -> every function key with that name.
        self.by_name: Dict[str, List[FuncKey]] = {}
        #: Functions whose callback the event loop may invoke (seeds of
        #: event reachability): passed to schedule/schedule_at, or
        #: registered on an ``on_*`` hook, or appended to a ``taps`` list.
        self._event_seeds: Set[FuncKey] = set()
        #: RunSpec cell functions, from "module:function" spec strings.
        self.cell_functions: Set[FuncKey] = set()
        #: Every call in the project, for the cell-spec scan once all
        #: modules are indexed.
        self._spec_calls: List[Tuple[ast.Call, ModuleInfo]] = []
        #: id(class node) -> every Assign/AnnAssign inside it.
        self._class_assigns: Dict[int, List[ast.AST]] = {}

        for info in modules:
            self._index_module(info)
        self._extract_calls_and_seeds()
        self.set_returning: Dict[FuncKey, List[str]] = {}
        self._summarize_set_returns()
        self.event_reachable: Dict[FuncKey, List[str]] = {}
        self._close_reachable(self._event_seeds, self.event_reachable,
                              "event loop enters")
        self.cell_reachable: Dict[FuncKey, List[str]] = {}
        self._close_reachable(self.cell_functions, self.cell_reachable,
                              "cell function")

    # -- indexing -----------------------------------------------------------

    def _index_module(self, info: ModuleInfo) -> None:
        """One walk of the module: the function table, every scope's
        own nodes (``own`` collects them in postorder), the imports,
        the calls that may name a cell function, and the assignments
        inside each class (``buckets``: one list per enclosing class).
        """
        imports: List[Tuple[int, ast.stmt]] = []

        def visit(node: ast.AST, class_name: Optional[str],
                  prefix: str, parent: Optional[FuncKey],
                  own: List[ast.AST], depth: int,
                  buckets: Tuple[List[ast.AST], ...]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.Import, ast.ImportFrom)):
                    imports.append((depth, child))
                elif isinstance(child, ast.Call):
                    self._spec_calls.append((child, info))
                elif isinstance(child, (ast.Assign, ast.AnnAssign)):
                    for bucket in buckets:
                        bucket.append(child)
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    fn = FunctionInfo(
                        module=info.module, qualname=qualname,
                        name=child.name, path=info.path,
                        lineno=child.lineno, node=child,
                        class_name=class_name, parent=parent)
                    self.functions[fn.key] = fn
                    self._by_node[id(child)] = fn
                    self.by_name.setdefault(child.name, []).append(fn.key)
                    body: List[ast.AST] = []
                    visit(child, None, qualname + ".<locals>.", fn.key,
                          body, depth + 1, buckets)
                    fn.nodes = tuple(reversed(body))
                elif isinstance(child, ast.ClassDef):
                    info.class_names.add(child.name)
                    bucket: List[ast.AST] = []
                    self._class_assigns[id(child)] = bucket
                    # A class body belongs to no function scope.
                    visit(child, child.name, prefix + child.name + ".",
                          parent, [], depth + 1, buckets + (bucket,))
                else:
                    visit(child, class_name, prefix, parent, own,
                          depth + 1, buckets)
                own.append(child)

        top: List[ast.AST] = []
        visit(info.tree, None, "", None, top, 1, ())
        info.nodes = tuple(reversed(top))
        # Breadth-first order meets the nodes of one depth in this
        # walk's order, so a stable sort by depth reproduces it (a later
        # import of a name wins in collect_aliases).
        info.imports = [node for _, node in sorted(imports,
                                                   key=lambda i: i[0])]
        info.aliases = collect_aliases(info.imports)

    def function_at(self, node: ast.AST) -> FunctionInfo:
        """The FunctionInfo indexed for a def node of a project module."""
        return self._by_node[id(node)]

    def class_assignments(self, node: ast.ClassDef) -> List[ast.AST]:
        """Every Assign/AnnAssign anywhere inside a class definition."""
        return self._class_assigns[id(node)]

    # -- call extraction ----------------------------------------------------

    def _resolve_callable_ref(self, node: ast.AST, info: ModuleInfo,
                              owner: FunctionInfo,
                              ) -> Tuple[FuncKey, ...]:
        """Candidate functions a Name/Attribute reference may denote."""
        if isinstance(node, ast.Name):
            local = self._lookup_local(info, owner, node.id)
            if local:
                return local
            origin = info.aliases.get(node.id)
            if origin:
                imported = self._lookup_imported(origin)
                if imported:
                    return imported
            return ()
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted is None:
                return ()
            head = dotted.split(".")[0]
            if head == "self" and owner.class_name:
                prefix = owner.class_name + "."
                key = (info.module, prefix + node.attr)
                if key in self.functions:
                    return (key,)
            origin = info.aliases.get(head)
            if origin:
                imported = self._lookup_imported(
                    origin + dotted[len(head):])
                if imported:
                    return imported
            # CHA by name: x.m() may be any project method named m.
            if node.attr in _GENERIC_NAMES or node.attr.startswith("__"):
                return ()
            return tuple(self.by_name.get(node.attr, ()))
        return ()

    def _lookup_local(self, info: ModuleInfo, owner: FunctionInfo,
                      name: str) -> Tuple[FuncKey, ...]:
        """A bare name: sibling nested function, then module-level."""
        scope = owner.qualname
        while True:
            prefix = scope + ".<locals>." if scope else ""
            key = (info.module, prefix + name)
            if key in self.functions:
                return (key,)
            if "." not in scope:
                break
            scope = scope.rsplit(".<locals>.", 1)[0]
            if ".<locals>." not in scope and "." in scope:
                scope = ""  # class methods do not nest further
        for qual in (name, ):
            key = (info.module, qual)
            if key in self.functions:
                return (key,)
        return ()

    def _lookup_imported(self, dotted: str) -> Tuple[FuncKey, ...]:
        """``pkg.mod.fn`` or ``pkg.mod.Cls.m`` -> project key."""
        for split in range(len(dotted.split(".")), 0, -1):
            parts = dotted.split(".")
            module, qual = ".".join(parts[:split]), ".".join(parts[split:])
            if module in self.modules and qual:
                key = (module, qual)
                if key in self.functions:
                    return (key,)
        return ()

    def _extract_calls_and_seeds(self) -> None:
        for key, fn in self.functions.items():
            info = self.modules[fn.module]
            for node in fn.nodes:
                if isinstance(node, ast.Call):
                    self._record_call(node, info, fn)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    self._record_hook_assignment(node, info, fn)
                elif isinstance(node, ast.Return) and node.value is not None:
                    # A returned closure escapes its parent (the
                    # monitors' tap-factory pattern).
                    for ref in self._resolve_callable_ref(node.value, info,
                                                          fn):
                        if self.functions[ref].parent == key:
                            self._event_seeds.add(ref)
        # Cell-spec strings anywhere (CELL = "pkg.mod:fn" tables,
        # RunSpec.make calls inside or outside functions).
        for node, minfo in self._spec_calls:
            self._record_cell_spec(node, minfo)

    def _record_call(self, node: ast.Call, info: ModuleInfo,
                     fn: FunctionInfo) -> None:
        candidates = self._resolve_callable_ref(node.func, info, fn)
        if candidates:
            fn.calls.append((candidates, node.lineno))
        terminal = (node.func.attr if isinstance(node.func, ast.Attribute)
                    else node.func.id if isinstance(node.func, ast.Name)
                    else None)
        if terminal in ("schedule", "schedule_at"):
            # schedule(delay, callback, *args) / schedule_at(when, cb, ...)
            for arg in node.args[1:2]:
                for ref in self._resolve_callable_ref(arg, info, fn):
                    self._event_seeds.add(ref)
        elif terminal == "append" and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Attribute) \
                and node.func.value.attr == "taps":
            # x.taps.append(fn): the one way an observer subscribes.
            for arg in node.args:
                for ref in self._resolve_callable_ref(arg, info, fn):
                    self._event_seeds.add(ref)
        elif terminal == "listen":
            # Accept callbacks are registered positionally and invoked
            # by the stack on inbound connections: TcpStack.listen(port,
            # on_accept) / QuicEndpoint.listen(on_accept).  Seed every
            # resolvable argument.
            for arg in node.args:
                for ref in self._resolve_callable_ref(arg, info, fn):
                    self._event_seeds.add(ref)
        for kw in node.keywords:
            if kw.arg and (kw.arg.startswith("on_")
                           or kw.arg == "callback"):
                for ref in self._resolve_callable_ref(kw.value, info, fn):
                    self._event_seeds.add(ref)

    def _record_hook_assignment(self, node: ast.AST, info: ModuleInfo,
                                fn: FunctionInfo) -> None:
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        value = node.value
        if value is None:
            return
        hooked = any(isinstance(t, ast.Attribute)
                     and t.attr.startswith("on_") for t in targets)
        if hooked:
            for ref in self._resolve_callable_ref(value, info, fn):
                self._event_seeds.add(ref)

    def _record_cell_spec(self, node: ast.Call, info: ModuleInfo) -> None:
        """``RunSpec.make("mod:fn", ...)`` / ``RunSpec(fn="mod:fn")``."""
        terminal = (node.func.attr if isinstance(node.func, ast.Attribute)
                    else node.func.id if isinstance(node.func, ast.Name)
                    else None)
        dotted = _dotted(node.func) or ""
        if not (terminal == "RunSpec"
                or (terminal == "make" and "RunSpec" in dotted)):
            return
        spec_args = list(node.args[:1]) + [kw.value for kw in node.keywords
                                           if kw.arg == "fn"]
        for arg in spec_args:
            text = self._constant_str(arg, info)
            if text and ":" in text:
                module, _, qual = text.partition(":")
                key = (module, qual)
                if key in self.functions:
                    self.cell_functions.add(key)

    def _constant_str(self, node: ast.AST,
                      info: ModuleInfo) -> Optional[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            for stmt in info.tree.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name) \
                                and target.id == node.id \
                                and isinstance(stmt.value, ast.Constant) \
                                and isinstance(stmt.value.value, str):
                            return stmt.value.value
        return None

    # -- summaries ----------------------------------------------------------

    def _summarize_set_returns(self) -> None:
        """Fixpoint: functions that return set/frozenset values.

        The value maps each set-returning function to its provenance
        chain -- ``file:line: note`` hops ending at the set's origin.
        """
        local_sets: Dict[FuncKey, List[str]] = {}
        call_returns: Dict[FuncKey, List[Tuple[Tuple[FuncKey, ...],
                                               int]]] = {}
        for key, fn in self.functions.items():
            info = self.modules[fn.module]
            returns = getattr(fn.node, "returns", None)
            if is_set_annotation(returns):
                local_sets[key] = [f"{fn.location()}: {fn.qualname}() is "
                                   "annotated to return a set"]
                continue
            set_names = self._local_set_names(fn)
            for node in fn.nodes:
                if not isinstance(node, ast.Return) or node.value is None:
                    continue
                value = node.value
                if self._is_set_literal(value, set_names):
                    local_sets.setdefault(key, [
                        f"{fn.path}:{node.lineno}: {fn.qualname}() "
                        "returns a set built here"])
                elif isinstance(value, ast.Call):
                    candidates = self._resolve_callable_ref(
                        value.func, info, fn)
                    if len(candidates) == 1:
                        call_returns.setdefault(key, []).append(
                            (candidates, node.lineno))
        self.set_returning.update(local_sets)
        changed = True
        while changed:
            changed = False
            for key, sites in call_returns.items():
                if key in self.set_returning:
                    continue
                for candidates, lineno in sites:
                    callee = candidates[0]
                    if callee in self.set_returning:
                        fn = self.functions[key]
                        chain = [f"{fn.path}:{lineno}: {fn.qualname}() "
                                 f"returns "
                                 f"{self.functions[callee].qualname}()"]
                        chain += self.set_returning[callee]
                        self.set_returning[key] = chain
                        changed = True
                        break

    @staticmethod
    def _local_set_names(fn: FunctionInfo) -> Set[str]:
        names: Set[str] = set()
        for node in fn.nodes:
            if isinstance(node, ast.Assign):
                if Project._is_set_literal(node.value, names):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name) \
                    and is_set_annotation(node.annotation):
                names.add(node.target.id)
        return names

    @staticmethod
    def _is_set_literal(node: ast.AST, set_names: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
            return (Project._is_set_literal(node.left, set_names)
                    or Project._is_set_literal(node.right, set_names))
        return False

    # -- reachability -------------------------------------------------------

    def _close_reachable(self, seeds: Set[FuncKey],
                         out: Dict[FuncKey, List[str]],
                         seed_label: str) -> None:
        """BFS closure over call edges, recording one witness path per
        function: ``file:line: note`` hops from a seed to it."""
        frontier: List[FuncKey] = []
        for seed in sorted(seeds):
            fn = self.functions.get(seed)
            if fn is None:
                continue
            out[seed] = [f"{fn.location()}: {seed_label} "
                         f"{fn.qualname}()"]
            frontier.append(seed)
        while frontier:
            key = frontier.pop(0)
            fn = self.functions[key]
            for candidates, lineno in fn.calls:
                for callee in candidates:
                    if callee in out:
                        continue
                    callee_fn = self.functions[callee]
                    out[callee] = out[key] + [
                        f"{fn.path}:{lineno}: {fn.qualname}() calls "
                        f"{callee_fn.qualname}()"]
                    frontier.append(callee)
            # A nested closure runs when its parent runs.
            for other_key, other in self.functions.items():
                if other.parent == key and other_key not in out:
                    out[other_key] = out[key] + [
                        f"{other.location()}: {other.qualname} is "
                        f"defined inside {fn.qualname}()"]
                    frontier.append(other_key)

    # -- lookups used by the rules ------------------------------------------

    def set_call_chain(self, node: ast.Call, module: str,
                       owner_qualname: str) -> Optional[List[str]]:
        """If ``node`` calls a set-returning function, its provenance."""
        info = self.modules.get(module)
        if info is None:
            return None
        owner = self._owner_for(module, owner_qualname)
        candidates = self._resolve_callable_ref(node.func, info, owner)
        if len(candidates) == 1 and candidates[0] in self.set_returning:
            return list(self.set_returning[candidates[0]])
        return None

    def _owner_for(self, module: str, qualname: str) -> FunctionInfo:
        key = (module, qualname)
        if key in self.functions:
            return self.functions[key]
        info = self.modules[module]
        class_name = None
        if "." in qualname:
            head = qualname.split(".")[0]
            class_name = head or None
        return FunctionInfo(module=module, qualname=qualname,
                            name=qualname.split(".")[-1], path=info.path,
                            lineno=0, node=info.tree,
                            class_name=class_name)

