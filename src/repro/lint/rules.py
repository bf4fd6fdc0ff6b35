"""The rule catalogue and the per-module rules.

Each rule encodes one clause of the contracts in docs/ARCHITECTURE.md
and docs/INVARIANTS.md.  The checkers work on the stdlib ``ast`` only
-- no third-party dependencies -- and favour precision over recall: a
rule fires when the pattern is structurally recognizable, and every
firing is expected to be either fixed or suppressed with a
justification comment (see docs/LINTING.md).

One :class:`ModuleVisitor` pass per module runs every per-module rule
against the whole-program :class:`repro.lint.project.Project`:

* **DET001-DET006** -- determinism and layering.  DET001 also
  recognizes calls to set-returning helpers anywhere in the project,
  and the finding carries the escape path (file:line hops) from the
  set's origin to the order-sensitive consumer.
* **CACHE** -- the content-addressed result cache hashes only the
  :class:`RunSpec`.  Code reachable from a cell function that reads the
  environment/filesystem/cwd (CACHE001) or leans on mutable module
  globals (CACHE002) smuggles inputs past the hash and breaks the
  byte-identical-at-any-worker-count guarantee.
* **PERF** -- accidentally quadratic patterns, flagged only inside
  functions the event loop can actually reach (``list.pop(0)``,
  linear ``in`` on a list) and outside the experiments/interface
  layers where per-run code runs once.

The project-level rules live beside their analyses: DOS002 in
:mod:`repro.lint.families`, LEAK in :mod:`repro.lint.taint`.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.layers import layer_of, resolve_relative
from repro.lint.project import ModuleInfo, is_set_annotation

#: code -> one-line description (the rule catalogue; mirrored in
#: docs/LINTING.md).
RULES = {
    "DET001": "iteration over a set/frozenset feeds an order-sensitive "
              "consumer (set order varies under hash randomization)",
    "DET002": "wall-clock read inside simulation code (simulated time "
              "must come from Simulator.now)",
    "DET003": "global random state (random.* / numpy.random.*) instead "
              "of a seeded random.Random / default_rng stream",
    "DET004": "layering violation: a lower layer imports a higher one "
              "(see the layer map in docs/ARCHITECTURE.md)",
    "DET005": "mutable class-level/module-level container (state shared "
              "across instances or runs) or mutable default argument",
    "DET006": "==/!= comparison of simulated-time floats (use ordering "
              "or an explicit tolerance)",
    "CACHE001": "environment/filesystem/cwd read reachable from a "
                "RunSpec cell function: breaks the content-addressed "
                "result cache (inputs outside the spec hash)",
    "CACHE002": "mutable module-global captured or mutated in code "
                "reachable from a RunSpec cell function: state leaks "
                "across runs within a worker process",
    "PERF001": "list.pop(0) inside an event-loop-reachable hot path "
               "(O(n) per event; use collections.deque.popleft())",
    "PERF002": "linear 'in' membership test on a list inside an "
               "event-loop-reachable hot path (use a set or dict keys)",
    "DOS002": "unbounded append of peer-derived input to instance state "
              "in an event-reachable handler (no len()/limit guard; "
              "static law DOS_UNBOUNDED_QUEUE)",
    "LEAK001": "ground-truth secret (website objects/pages, server-side "
               "HTTP/2 or HPACK state, TLS plaintext) flows into "
               "adversary code other than through the sanctioned "
               "WireView/TcpWireView/RecordInfo surface (interprocedural "
               "taint; static law ADV_INFO_BOUNDARY)",
    "LEAK002": "defense module reads adversary/estimator pipeline output "
               "(no attacker-in-the-loop defenses; static law "
               "DEFENSE_NO_FEEDBACK)",
}

#: Modules allowed to read the wall clock: runner telemetry, the worker
#: pool (cell deadlines and retry backoff are real-time concepts) and
#: the CLI.
DET002_ALLOWED_MODULES = frozenset({
    "repro.experiments.runner",
    "repro.experiments.workers",
    "repro.cli",
    "repro.__main__",
})

_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns", "time.clock",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

_GLOBAL_RANDOM_FUNCS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "triangular", "betavariate", "expovariate",
    "gammavariate", "gauss", "lognormvariate", "normalvariate",
    "vonmisesvariate", "paretovariate", "weibullvariate", "getrandbits",
    "randbytes", "seed", "setstate", "binomialvariate",
})

#: numpy.random names that construct *seeded* generators (fine) rather
#: than touching the hidden global stream (flagged).
_NUMPY_SEEDED_OK = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})

#: Builtins whose result does not depend on input order; a set flowing
#: into these is harmless.
_ORDER_INSENSITIVE = frozenset({
    "sorted", "sum", "min", "max", "len", "any", "all", "set",
    "frozenset",
})

#: Builtins that materialize their argument's iteration order.
_ORDER_SENSITIVE = frozenset({"list", "tuple", "enumerate", "reversed",
                              "iter", "next"})

#: set methods returning sets (so ``a.union(b)`` is itself set-typed).
_SET_METHODS = frozenset({"union", "intersection", "difference",
                          "symmetric_difference", "copy"})

_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)

_MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict",
                            "deque", "OrderedDict", "Counter"})

_TIMELIKE_EXACT = frozenset({"now", "when", "time", "deadline"})
_TIMELIKE_SUFFIXES = ("_time", "_at", "_when", "_deadline")

#: Harness modules where CACHE rules do not apply: the runner/CLI own
#: the process boundary (cache dir, env overrides) by design.
CACHE_ALLOWED_PREFIXES = ("repro.experiments.runner", "repro.cli",
                          "repro.__main__", "repro.lint")

#: Layers whose code runs once per experiment, not per event: PERF
#: rules stay quiet there.
PERF_EXEMPT_LAYERS = frozenset({"experiments", "interface"})

#: Resolved call targets that read ambient process state.
_CACHE_ENV_SINKS = frozenset({
    "os.getenv", "os.environ.get", "os.environ.items",
    "os.environ.keys", "os.environ.values", "os.getcwd", "os.listdir",
    "os.scandir", "os.walk", "os.stat", "os.path.exists",
    "os.path.isfile", "os.path.isdir", "os.path.getsize",
    "os.path.getmtime", "pathlib.Path.cwd", "pathlib.Path.home",
    "open", "io.open", "tempfile.gettempdir",
})

_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popleft", "popitem", "remove", "discard", "clear",
    "appendleft", "sort", "reverse",
})


def _terminal_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _is_list_annotation(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Name):
        return node.id == "list"
    if isinstance(node, ast.Subscript):
        name = _terminal_name(node.value)
        return name in ("List", "MutableSequence", "list")
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        return text == "list" or text.startswith(("List[", "list["))
    return False


def _mutable_container(node: ast.AST):
    """(is_mutable, is_empty) for container displays/constructors."""
    if isinstance(node, ast.List):
        return True, not node.elts
    if isinstance(node, ast.Dict):
        return True, not node.keys
    if isinstance(node, ast.Set):
        return True, False
    if isinstance(node, ast.Call):
        name = _terminal_name(node.func)
        if name in _MUTABLE_CALLS:
            return True, not (node.args or node.keywords)
    return False, False


class _Scope:
    """One lexical scope with its inferred set- and list-typed names."""

    def __init__(self, kind: str):
        self.kind = kind                 # "module" | "function" | "class"
        self.set_names: Set[str] = set()
        self.set_self_attrs: Set[str] = set()   # class scopes only
        self.list_names: Set[str] = set()
        self.list_self_attrs: Set[str] = set()  # class scopes only
        #: name -> escape path for names bound to interprocedural sets.
        self.set_origins: Dict[str, List[str]] = {}


class ModuleVisitor(ast.NodeVisitor):
    """Single pass over one module for every per-module rule.

    ``enabled`` filters what is emitted; the set/list type inference
    and the qualname tracking are shared by all the rules.  Each
    scope's binding statements come from the project's one walk of it
    (:attr:`FunctionInfo.nodes`).
    """

    def __init__(self, ctx: ModuleInfo, enabled: Set[str], project):
        self.ctx = ctx
        self.enabled = enabled
        self.project = project
        self.findings: List[Finding] = []
        self.scopes: List[_Scope] = []
        self._genexp_ok: Set[int] = set()
        self._func_depth = 0
        #: qualname stack mirroring Project's naming ("Cls.m",
        #: "f.<locals>.inner"); empty string at module level.
        self._qual: List[Tuple[str, str]] = []   # (qualname, kind)
        #: id(Call node) -> provenance chain for set-returning calls.
        self._call_traces: Dict[int, List[str]] = {}
        self._module_mutables = self._collect_module_mutables(ctx.tree)
        layer = layer_of(ctx.module)
        self._perf_exempt = (layer is not None
                             and layer[0] in PERF_EXEMPT_LAYERS)
        self._cache_exempt = ctx.module.startswith(CACHE_ALLOWED_PREFIXES)

    # -- plumbing -----------------------------------------------------------

    def _emit(self, node: ast.AST, code: str, message: str,
              trace: Tuple[str, ...] = ()) -> None:
        if code in self.enabled:
            self.findings.append(Finding(
                path=self.ctx.path, line=node.lineno,
                col=node.col_offset, code=code, message=message,
                trace=trace))

    def _current_qualname(self) -> str:
        return self._qual[-1][0] if self._qual else ""

    def _child_qualname(self, name: str) -> str:
        if not self._qual:
            return name
        qual, kind = self._qual[-1]
        if kind == "class":
            return f"{qual}.{name}"
        return f"{qual}.<locals>.{name}"

    def _resolve(self, node: ast.AST) -> Optional[str]:
        dotted = _dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        origin = self.ctx.aliases.get(head)
        if origin is None:
            return dotted
        return f"{origin}.{rest}" if rest else origin

    # -- scope handling -----------------------------------------------------

    def visit_Module(self, node: ast.Module) -> None:
        scope = _Scope("module")
        self._infer_bindings(self.ctx.nodes, scope)
        self.scopes.append(scope)
        self._check_module_level_state(node)
        self.generic_visit(node)
        self.scopes.pop()

    def _visit_function(self, node) -> None:
        self._check_mutable_defaults(node)
        self._qual.append((self._child_qualname(node.name), "function"))
        scope = _Scope("function")
        for arg in self._all_args(node.args):
            if is_set_annotation(arg.annotation):
                scope.set_names.add(arg.arg)
            elif _is_list_annotation(arg.annotation):
                scope.list_names.add(arg.arg)
        fn = self.project.function_at(node)
        self._infer_bindings(fn.nodes, scope)
        self.scopes.append(scope)
        self._func_depth += 1
        self.generic_visit(node)
        self._func_depth -= 1
        self.scopes.pop()
        self._qual.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_mutable_defaults(node)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._check_class_level_state(node)
        self._qual.append((self._child_qualname(node.name), "class"))
        scope = _Scope("class")
        self._infer_self_attrs(node, scope)
        self.scopes.append(scope)
        self.generic_visit(node)
        self.scopes.pop()
        self._qual.pop()

    @staticmethod
    def _all_args(args: ast.arguments):
        every = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        if args.vararg:
            every.append(args.vararg)
        if args.kwarg:
            every.append(args.kwarg)
        return every

    @staticmethod
    def _collect_module_mutables(tree: ast.Module) -> Set[str]:
        names: Set[str] = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                targets = [t.id for t in stmt.targets
                           if isinstance(t, ast.Name)]
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name) \
                    and stmt.value is not None:
                targets, value = [stmt.target.id], stmt.value
            else:
                continue
            if _mutable_container(value)[0]:
                names.update(targets)
        return names

    def _infer_bindings(self, nodes, scope: _Scope) -> None:
        """Names a scope's own assignments bind to set- and list-typed
        values.  ``reversed(nodes)`` meets the assignments in source
        order, so ``b = a`` sees ``a = set()`` above it."""
        bindings = [node for node in reversed(nodes)
                    if isinstance(node, (ast.Assign, ast.AnnAssign))]
        self._infer_set_bindings(bindings, scope)
        self._infer_list_bindings(bindings, scope)

    def _infer_set_bindings(self, bindings, scope: _Scope) -> None:
        for stmt in bindings:
            if isinstance(stmt, ast.Assign):
                if self._is_set_expr(stmt.value, scope):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            scope.set_names.add(target.id)
                            self._record_origin(scope, target.id,
                                                stmt.value, stmt.lineno)
            elif isinstance(stmt.target, ast.Name) and (
                    is_set_annotation(stmt.annotation)
                    or (stmt.value is not None
                        and self._is_set_expr(stmt.value, scope))):
                scope.set_names.add(stmt.target.id)
                if stmt.value is not None:
                    self._record_origin(scope, stmt.target.id,
                                        stmt.value, stmt.lineno)

    def _record_origin(self, scope: _Scope, name: str, value: ast.AST,
                       lineno: int) -> None:
        chain = self._call_traces.get(id(value))
        if chain:
            scope.set_origins[name] = chain + [
                f"{self.ctx.path}:{lineno}: bound to '{name}'"]

    def _infer_list_bindings(self, bindings, scope: _Scope) -> None:
        for stmt in bindings:
            if isinstance(stmt, ast.Assign):
                if self._is_list_expr(stmt.value, scope):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            scope.list_names.add(target.id)
            elif isinstance(stmt.target, ast.Name) and (
                    _is_list_annotation(stmt.annotation)
                    or (stmt.value is not None
                        and self._is_list_expr(stmt.value, scope))):
                scope.list_names.add(stmt.target.id)

    def _infer_self_attrs(self, node: ast.ClassDef, scope: _Scope) -> None:
        for child in self.project.class_assignments(node):
            if isinstance(child, ast.Assign):
                is_set = self._is_set_expr(child.value, None)
                is_list = self._is_list_expr(child.value, None)
                if not (is_set or is_list):
                    continue
                for target in child.targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        if is_set:
                            scope.set_self_attrs.add(target.attr)
                        else:
                            scope.list_self_attrs.add(target.attr)
            elif isinstance(child, ast.AnnAssign) and child.target is not None:
                target = child.target
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    if is_set_annotation(child.annotation):
                        scope.set_self_attrs.add(target.attr)
                    elif _is_list_annotation(child.annotation):
                        scope.list_self_attrs.add(target.attr)

    # -- set-type inference -------------------------------------------------

    def _is_set_expr(self, node: ast.AST, scope: Optional[_Scope]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _terminal_name(node.func)
            if isinstance(node.func, ast.Name) and name in ("set",
                                                            "frozenset"):
                return True
            if (isinstance(node.func, ast.Attribute)
                    and name in _SET_METHODS
                    and self._is_set_expr(node.func.value, scope)):
                return True
            chain = self.project.set_call_chain(
                node, self.ctx.module, self._current_qualname())
            if chain:
                self._call_traces[id(node)] = chain
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
            return (self._is_set_expr(node.left, scope)
                    or self._is_set_expr(node.right, scope))
        if isinstance(node, ast.Name):
            for frame in reversed(self.scopes if scope is None
                                  else self.scopes + [scope]):
                if frame.kind in ("function", "module") \
                        and node.id in frame.set_names:
                    return True
            return False
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self":
            for frame in reversed(self.scopes):
                if frame.kind == "class":
                    return node.attr in frame.set_self_attrs
            return False
        return False

    def _is_list_expr(self, node: ast.AST, scope: Optional[_Scope]) -> bool:
        if isinstance(node, (ast.List, ast.ListComp)):
            return True
        if isinstance(node, ast.Call):
            name = _terminal_name(node.func)
            return isinstance(node.func, ast.Name) and name in ("list",
                                                                "sorted")
        if isinstance(node, ast.Name):
            for frame in reversed(self.scopes if scope is None
                                  else self.scopes + [scope]):
                if frame.kind in ("function", "module") \
                        and node.id in frame.list_names:
                    return True
            return False
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self":
            for frame in reversed(self.scopes):
                if frame.kind == "class":
                    return node.attr in frame.list_self_attrs
            return False
        return False

    def _set_iter(self, node: ast.AST) -> bool:
        return self._is_set_expr(node, None)

    def _trace_for(self, node: ast.AST) -> Tuple[str, ...]:
        """Escape path for an interprocedural set, if one is known."""
        if isinstance(node, ast.Call):
            chain = self._call_traces.get(id(node))
            if chain:
                return tuple(chain)
        if isinstance(node, ast.Name):
            for frame in reversed(self.scopes):
                if node.id in frame.set_origins:
                    return tuple(frame.set_origins[node.id])
        return ()

    # -- DET001 -------------------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        if self._set_iter(node.iter):
            self._emit(node.iter, "DET001",
                       "iterating a set: order varies under hash "
                       "randomization; wrap in sorted(...) or keep an "
                       "ordered container",
                       trace=self._trace_for(node.iter))
        self.generic_visit(node)

    def _visit_ordered_comp(self, node) -> None:
        if not (isinstance(node, ast.GeneratorExp)
                and id(node) in self._genexp_ok):
            for gen in node.generators:
                if self._set_iter(gen.iter):
                    self._emit(gen.iter, "DET001",
                               "comprehension iterates a set into an "
                               "ordered result; wrap in sorted(...)",
                               trace=self._trace_for(gen.iter))
        self.generic_visit(node)

    visit_ListComp = _visit_ordered_comp
    visit_DictComp = _visit_ordered_comp
    visit_GeneratorExp = _visit_ordered_comp

    # SetComp: unordered in, unordered out -- exempt by construction.

    # -- calls: CACHE, PERF001, DET001 consumers, DET002, DET003 -----------

    def visit_Call(self, node: ast.Call) -> None:
        self._check_cache001_call(node)
        self._check_cache002_call(node)
        self._check_perf001(node)
        func_name = _terminal_name(node.func)
        if isinstance(node.func, ast.Name) \
                and func_name in _ORDER_INSENSITIVE:
            for arg in node.args:
                if isinstance(arg, ast.GeneratorExp):
                    self._genexp_ok.add(id(arg))
        if isinstance(node.func, ast.Name) \
                and func_name in _ORDER_SENSITIVE and node.args:
            if self._set_iter(node.args[0]):
                self._emit(node.args[0], "DET001",
                           f"{func_name}() materializes set iteration "
                           "order; wrap in sorted(...)",
                           trace=self._trace_for(node.args[0]))
        if isinstance(node.func, ast.Attribute) and func_name == "join" \
                and node.args and self._set_iter(node.args[0]):
            self._emit(node.args[0], "DET001",
                       "str.join over a set materializes set iteration "
                       "order; wrap in sorted(...)",
                       trace=self._trace_for(node.args[0]))

        resolved = self._resolve(node.func)
        if resolved:
            self._check_wall_clock(node, resolved)
            self._check_global_random(node, resolved)
        self.generic_visit(node)

    def _check_wall_clock(self, node: ast.Call, resolved: str) -> None:
        if resolved in _WALL_CLOCK_CALLS \
                and self.ctx.module not in DET002_ALLOWED_MODULES:
            self._emit(node, "DET002",
                       f"wall-clock read {resolved}() in simulation "
                       "code; simulated time must come from "
                       "Simulator.now")

    def _check_global_random(self, node: ast.Call, resolved: str) -> None:
        head, _, tail = resolved.partition(".")
        if head == "random" and tail in _GLOBAL_RANDOM_FUNCS:
            self._emit(node, "DET003",
                       f"global random state ({resolved}); draw from a "
                       "seeded random.Random / named sim stream instead")
        if resolved.startswith("numpy.random."):
            leaf = resolved.split(".")[2]
            if leaf not in _NUMPY_SEEDED_OK:
                self._emit(node, "DET003",
                           f"global numpy random state ({resolved}); "
                           "use numpy.random.default_rng(seed)")

    # -- DET003: import forms ----------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        if self._func_depth > 0:
            for alias in node.names:
                if alias.name.split(".")[0] == "random":
                    self._emit(node, "DET003",
                               "function-level 'import random'; import "
                               "at module level and use a seeded "
                               "random.Random (see website/generator.py)")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0 and node.module == "random":
            bad = sorted(alias.name for alias in node.names
                         if alias.name in _GLOBAL_RANDOM_FUNCS)
            if bad:
                self._emit(node, "DET003",
                           "importing global random state ("
                           + ", ".join(bad)
                           + "); use a seeded random.Random stream")
        if node.level == 0 and node.module == "numpy.random":
            bad = sorted(alias.name for alias in node.names
                         if alias.name not in _NUMPY_SEEDED_OK)
            if bad:
                self._emit(node, "DET003",
                           "importing global numpy random state ("
                           + ", ".join(bad)
                           + "); use numpy.random.default_rng(seed)")
        self.generic_visit(node)

    # -- DET005 -------------------------------------------------------------

    def _check_module_level_state(self, node: ast.Module) -> None:
        for stmt in node.body:
            targets = []
            if isinstance(stmt, ast.Assign):
                targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name) \
                    and stmt.value is not None:
                targets = [stmt.target]
                value = stmt.value
            else:
                continue
            mutable, empty = _mutable_container(value)
            if not mutable:
                continue
            for target in targets:
                if target.id.startswith("__") and target.id.endswith("__"):
                    continue  # __all__ and friends are interpreter protocol
                is_const_table = target.id.isupper() and not empty
                if not is_const_table:
                    self._emit(stmt, "DET005",
                               f"module-level mutable container "
                               f"'{target.id}' is state shared across "
                               "runs; build it per-run or make it an "
                               "immutable constant")

    def _check_class_level_state(self, node: ast.ClassDef) -> None:
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                value, names = stmt.value, [
                    t.id for t in stmt.targets if isinstance(t, ast.Name)]
            elif isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name) \
                    and stmt.value is not None:
                value, names = stmt.value, [stmt.target.id]
            else:
                continue
            mutable, _ = _mutable_container(value)
            if mutable and names:
                self._emit(stmt, "DET005",
                           f"class-level mutable container "
                           f"'{names[0]}' is shared across every "
                           "instance; initialize it in __init__ (or use "
                           "field(default_factory=...))")

    def _check_mutable_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            mutable, _ = _mutable_container(default)
            if mutable:
                self._emit(default, "DET005",
                           "mutable default argument is shared across "
                           "calls; default to None and build inside")

    # -- DET006 and PERF002 -------------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        for op, comp in zip(node.ops, node.comparators):
            if isinstance(op, (ast.In, ast.NotIn)) \
                    and self._is_list_expr(comp, None):
                chain = self._event_chain()
                if chain is not None:
                    self._emit(node, "PERF002",
                               "linear 'in' on a list inside an "
                               "event-reachable hot path; use a set or "
                               "dict keys", trace=tuple(chain))
                break
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            operands = [node.left] + list(node.comparators)
            if not any(isinstance(o, ast.Constant) and o.value is None
                       for o in operands):
                for operand in operands:
                    name = _terminal_name(operand)
                    if name is not None and self._timelike(name):
                        self._emit(node, "DET006",
                                   f"==/!= on simulated-time value "
                                   f"'{name}'; float clock arithmetic "
                                   "is not exact -- compare with <=/>= "
                                   "or an explicit tolerance")
                        break
        self.generic_visit(node)

    @staticmethod
    def _timelike(name: str) -> bool:
        return (name in _TIMELIKE_EXACT
                or name.endswith(_TIMELIKE_SUFFIXES))

    # -- reachability lookups -----------------------------------------------

    def _current_key(self):
        qual = self._current_qualname()
        if not qual:
            return None
        return (self.ctx.module, qual)

    def _event_chain(self) -> Optional[List[str]]:
        if self._perf_exempt:
            return None
        key = self._current_key()
        if key is None:
            return None
        return self.project.event_reachable.get(key)

    def _cell_chain(self) -> Optional[List[str]]:
        if self._cache_exempt:
            return None
        key = self._current_key()
        if key is None:
            return None
        return self.project.cell_reachable.get(key)

    # -- call-site rules ----------------------------------------------------

    def _check_cache001_call(self, node: ast.Call) -> None:
        chain = self._cell_chain()
        if chain is None:
            return
        resolved = self._resolve(node.func)
        if resolved in _CACHE_ENV_SINKS:
            self._emit(node, "CACHE001",
                       f"{resolved}() reads ambient process state inside "
                       "cell-reachable code; the result cache hashes "
                       "only the RunSpec, so this input escapes the "
                       "cache key", trace=tuple(chain))

    def visit_Subscript(self, node: ast.Subscript) -> None:
        chain = self._cell_chain()
        if chain is not None:
            resolved = self._resolve(node.value)
            if resolved == "os.environ":
                self._emit(node, "CACHE001",
                           "os.environ[...] read inside cell-reachable "
                           "code; the result cache hashes only the "
                           "RunSpec", trace=tuple(chain))
        self.generic_visit(node)

    def _check_cache002_call(self, node: ast.Call) -> None:
        chain = self._cell_chain()
        if chain is None:
            return
        if isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id in self._module_mutables \
                and node.func.attr in _MUTATOR_METHODS:
            self._emit(node, "CACHE002",
                       f"mutating module-global "
                       f"'{node.func.value.id}' in cell-reachable code; "
                       "state leaks across runs within a worker "
                       "process", trace=tuple(chain))

    def visit_Global(self, node: ast.Global) -> None:
        chain = self._cell_chain()
        if chain is not None:
            self._emit(node, "CACHE002",
                       "'global " + ", ".join(node.names) + "' in "
                       "cell-reachable code; rebinding module state "
                       "leaks across runs within a worker process",
                       trace=tuple(chain))
        self.generic_visit(node)

    def _check_mutating_store(self, target: ast.AST) -> None:
        if isinstance(target, ast.Subscript) \
                and isinstance(target.value, ast.Name) \
                and target.value.id in self._module_mutables:
            chain = self._cell_chain()
            if chain is not None:
                self._emit(target, "CACHE002",
                           f"item store into module-global "
                           f"'{target.value.id}' in cell-reachable "
                           "code; state leaks across runs within a "
                           "worker process", trace=tuple(chain))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_mutating_store(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_mutating_store(node.target)
        self.generic_visit(node)

    def _check_perf001(self, node: ast.Call) -> None:
        if not (isinstance(node.func, ast.Attribute)
                and node.func.attr == "pop"
                and len(node.args) == 1 and not node.keywords
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == 0
                and node.args[0].value is not False):
            return
        if not self._is_list_expr(node.func.value, None):
            return
        chain = self._event_chain()
        if chain is not None:
            self._emit(node, "PERF001",
                       "list.pop(0) shifts the whole list on every "
                       "event; use collections.deque and popleft()",
                       trace=tuple(chain))


def check_layering(ctx: ModuleInfo, enabled: Set[str]) -> List[Finding]:
    """DET004: no import may reach a higher layer than its own module."""
    if "DET004" not in enabled:
        return []
    own = layer_of(ctx.module)
    if own is None:
        return []
    own_layer, own_rank = own
    findings: List[Finding] = []
    for node in ctx.imports:
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif node.level > 0:
            targets = [resolve_relative(ctx.package, node.level,
                                        node.module)]
        else:
            targets = [node.module] if node.module else []
        for target in targets:
            resolved = layer_of(target)
            if resolved is None:
                continue
            target_layer, target_rank = resolved
            if target_rank > own_rank:
                findings.append(Finding(
                    path=ctx.path, line=node.lineno, col=node.col_offset,
                    code="DET004",
                    message=(f"layer '{own_layer}' ({ctx.module}) must "
                             f"not import layer '{target_layer}' "
                             f"({target}); see the layer map in "
                             "docs/ARCHITECTURE.md")))
    return findings


def check_module(ctx: ModuleInfo, enabled: Set[str],
                 project) -> List[Finding]:
    """Run every enabled per-module rule over one parsed module."""
    visitor = ModuleVisitor(ctx, enabled, project)
    visitor.visit(ctx.tree)
    findings = visitor.findings + check_layering(ctx, enabled)
    findings.sort(key=lambda f: f.sort_key())
    return findings
