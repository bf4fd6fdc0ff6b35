"""Interprocedural taint analysis: the LEAK rule family.

Every number the paper reports is an *inference from ciphertext*: the
adversary pipeline (observe -> deinterleave -> estimate -> predict) may
consume nothing but the sanctioned cleartext surface
(:class:`repro.simnet.packet.WireView` / ``TcpWireView`` /
``RecordInfo`` and the trace records derived from them).  The LEAK
rules enforce that information boundary as a whole-program dataflow
property instead of the brittle token scans that guarded it before:

* **LEAK001** -- a ground-truth secret (website object sizes/bodies,
  page identity, server-side ``Http2Server``/HPACK state, TLS record
  plaintext) flows into adversary code in ``repro.core.*`` other than
  through a sanctioned sanitizer (wire serialization, aggregate-count
  folds).
* **LEAK002** -- a defense module (``repro.defenses.*``) reads
  adversary/estimator pipeline output.  Defenses must be oblivious:
  an attacker-in-the-loop defense invalidates the evaluation.
* **LEAK003** -- a passive tap (the ``invariants`` monitors and the
  DoS detector) mutates simulator or protocol state instead of only
  observing; subscribing with ``x.taps.append(fn)`` is the one allowed
  store.  Armed and unarmed runs must stay byte-identical.

The flow engine is field-sensitive (``self.census`` and
``self.latency`` are distinct cells; a tainted dataclass taints its
field reads but a clean sibling field stays clean), tracks taint
through containers and comprehensions, and is interprocedural through
call-graph *taint summaries*: for every function reachable from a sink
module the engine records which parameters flow to the return value
and which flow into instance state, so a secret that crosses two
helper calls before being stored is still caught -- and the finding's
``trace`` stitches the caller hops, the call hop and the callee's
internal hops into one ``via`` chain, with the CFG branch decisions
between the source and the sink rendered from the function's
control-flow graph.

Sources, sinks and sanitizers are declarative (:class:`BoundarySpec`),
so the QUIC/H3 parity work can extend the boundary by adding spec rows
rather than new engine code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.cfg import build_cfg
from repro.lint.findings import Finding
from repro.lint.rules import _dotted_name, _terminal_name


@dataclass(frozen=True)
class BoundarySpec:
    """One information boundary: where taint comes from, where it must
    not go, and which folds launder it."""

    code: str
    law: str
    #: What the tainted data is called in messages and trace hops.
    source_label: str
    #: What the protected side is called in messages.
    sink_label: str
    #: Module prefixes whose functions are *sinks*: taint consumed
    #: there (stored into instance state, returned, or handed to a
    #: helper that stores it) is a finding.
    sink_modules: Tuple[str, ...]
    #: Class names whose instances are tainted at construction or when
    #: they appear as parameter annotations.
    source_types: frozenset
    #: Attribute names whose read introduces taint wherever it occurs.
    source_attrs: frozenset
    #: Module prefixes whose imported callables produce tainted values
    #: (ALL_CAPS constants imported from them stay clean).
    source_modules: Tuple[str, ...]
    #: Call names that launder taint: their result is clean no matter
    #: what flowed in (wire serialization, aggregate-count folds).
    sanitizers: frozenset
    #: Also flag the import statement itself when a sink module imports
    #: from a source module (LEAK002's no-attacker-in-the-loop stance).
    flag_imports: bool = False


#: The adversary-side modules of the attack pipeline (docs/DESIGN.md).
ADVERSARY_MODULES = (
    "repro.core.observer", "repro.core.deinterleave",
    "repro.core.estimator", "repro.core.predictor",
    "repro.core.adversary", "repro.core.controller",
    "repro.core.planner", "repro.core.wire",
)

#: Ground-truth carriers: website objects and pages, the server side of
#: the HTTP/2 stack, HPACK codec state, TLS record plaintext and raw
#: TCP payload containers.  The *sanctioned* surface (WireView,
#: TcpWireView, RecordInfo, CompletedRecord, TraceRecorder) is absent
#: from this list by construction.
GROUND_TRUTH_TYPES = frozenset({
    "WebObject", "Site", "RandomSite", "IsideWithSite", "StreamingSite",
    "GeneratedPage", "PageLoadPlan", "PlannedRequest",
    "Http2Server", "ServerConnection", "TxEntry",
    "HpackEncoder", "HpackDecoder",
    "TlsRecord", "TcpSegment", "RecordSlice",
    "Browser", "PageLoadResult",
})

#: Attribute names that only exist on ground-truth carriers: reading
#: one anywhere in adversary code is reading a secret.
GROUND_TRUTH_ATTRS = frozenset({
    "tx_log", "object_ref", "payload", "plaintext", "segment",
    "slices", "body", "objects", "page_objects", "headers",
})

#: Packages whose callables hand out ground truth.
GROUND_TRUTH_MODULES = ("repro.website", "repro.http2.server",
                        "repro.http2.hpack", "repro.browser",
                        "repro.tls.record", "repro.tcp.segment")

#: Folds that cross the boundary legitimately: wire serialization
#: produces the sanctioned cleartext view, and aggregate-count folds
#: (len/sum/count) reduce a secret collection to a size the wire
#: exposes anyway.
LEAK001_SANITIZERS = frozenset({"wire_view", "len", "sum", "count"})

#: Adversary pipeline outputs a defense must never read.
ADVERSARY_OUTPUT_TYPES = frozenset({
    "TrafficMonitor", "SizeEstimator", "ObjectEstimate",
    "ObjectPredictor", "Prediction", "SizeIdentityMap",
    "PartialMultiplexAnalyzer", "PartialMatch",
    "Http2SerializationAttack", "AttackReport", "NetworkController",
    "RequestSighting",
})

ADVERSARY_OUTPUT_ATTRS = frozenset({
    "estimates", "predictions", "census", "attack_report",
})

LEAK_SPECS: Tuple[BoundarySpec, ...] = (
    BoundarySpec(
        code="LEAK001", law="ADV_INFO_BOUNDARY",
        source_label="ground truth", sink_label="adversary state",
        sink_modules=ADVERSARY_MODULES,
        source_types=GROUND_TRUTH_TYPES,
        source_attrs=GROUND_TRUTH_ATTRS,
        source_modules=GROUND_TRUTH_MODULES,
        sanitizers=LEAK001_SANITIZERS),
    BoundarySpec(
        code="LEAK002", law="DEFENSE_NO_FEEDBACK",
        source_label="adversary output", sink_label="defense state",
        sink_modules=("repro.defenses",),
        source_types=ADVERSARY_OUTPUT_TYPES,
        source_attrs=ADVERSARY_OUTPUT_ATTRS,
        source_modules=("repro.core",),
        sanitizers=frozenset(),
        flag_imports=True),
)

#: LEAK003: the passive-tap modules and what passivity forbids.
TAP_MODULES = ("repro.invariants.monitors", "repro.invariants.dos_detector")

#: State-changing operations on the simulator/protocol stack a tap must
#: never invoke (observation only; docs/INVARIANTS.md TAP_PASSIVITY).
TAP_MUTATOR_CALLS = frozenset({
    "schedule", "schedule_at", "cancel", "send_frame", "_send_frame",
    "send_data_frame", "consume", "replenish", "set_down", "set_up",
    "deliver", "reset_stream", "goaway", "abort", "push_promise",
    "inject", "transition",
})

#: Container methods that count as a store into the receiver.
_CONTAINER_STORES = frozenset({
    "append", "appendleft", "add", "extend", "insert", "setdefault",
    "update",
})

_MAX_SUMMARY_ROUNDS = 10


def _module_matches(module: str, prefixes: Sequence[str]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def _annotation_names(node: Optional[ast.AST]) -> Set[str]:
    """Every identifier mentioned by an annotation, including inside
    ``Optional[...]`` subscripts and string annotations."""
    names: Set[str] = set()
    if node is None:
        return names
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        token = ""
        for char in node.value:
            if char.isalnum() or char == "_":
                token += char
            else:
                if token:
                    names.add(token)
                token = ""
        if token:
            names.add(token)
        return names
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


class _Flow:
    """Provenance of one tainted value.

    ``origin`` is ``""`` for a real source (a finding when it reaches a
    sink) or a parameter name (a summary entry instead: the caller
    decides whether that parameter was tainted).  ``hops`` are rendered
    ``file:line: note`` strings, source first; ``node`` is the AST node
    where the taint materialized in the current function (None for
    parameter seeds), used to anchor the CFG path evidence.
    """

    __slots__ = ("origin", "hops", "node")

    def __init__(self, origin: str, hops: Tuple[str, ...],
                 node: Optional[ast.AST] = None):
        self.origin = origin
        self.hops = hops
        self.node = node

    def extend(self, hop: str) -> "_Flow":
        return _Flow(self.origin, self.hops + (hop,), self.node)


class _Summary:
    """Taint behaviour of one function, as seen from a call site."""

    __slots__ = ("returns_source", "param_to_return", "param_to_state")

    def __init__(self):
        #: Calling this function yields a tainted value (it reads a
        #: source itself): the hops describing where.
        self.returns_source: Optional[Tuple[str, ...]] = None
        #: param name -> hops: the parameter flows to the return value.
        self.param_to_return: Dict[str, Tuple[str, ...]] = {}
        #: param name -> (line, col, target, hops): the parameter is
        #: stored into instance state at that site.
        self.param_to_state: Dict[str, Tuple[int, int, str,
                                             Tuple[str, ...]]] = {}

    def signature(self) -> Tuple:
        return (self.returns_source,
                tuple(sorted(self.param_to_return)),
                tuple(sorted(self.param_to_state)))


class _FunctionTaint:
    """Field-sensitive intraprocedural pass over one function.

    Two phases: a fixpoint that binds tainted names (order-insensitive,
    first-binding-wins so it terminates), then a reporting pass that
    records sinks -- source-origin flows become findings, param-origin
    flows become summary entries for callers.
    """

    def __init__(self, project, spec: BoundarySpec, fn,
                 summaries: Dict, class_names: frozenset) -> None:
        self.project = project
        self.spec = spec
        self.fn = fn
        self.info = project.modules[fn.module]
        self.summaries = summaries
        self.class_names = class_names
        self.env: Dict[str, _Flow] = {}
        self.summary = _Summary()
        #: (line, col, message, trace) sink records for source flows.
        self.sinks: List[Tuple[int, int, str, Tuple[str, ...]]] = []
        self._cfg = None
        self._stmts: Optional[Dict[int, ast.stmt]] = None
        self._seed_parameters()

    # -- seeding ------------------------------------------------------------

    def _seed_parameters(self) -> None:
        args = self.fn.node.args
        params = list(args.posonlyargs) + list(args.args) \
            + list(args.kwonlyargs)
        for extra in (args.vararg, args.kwarg):
            if extra is not None:
                params.append(extra)
        for param in params:
            if param.arg in ("self", "cls"):
                continue
            names = _annotation_names(param.annotation)
            typed = sorted(names & self.spec.source_types)
            if not typed:
                for name in sorted(names):
                    origin = self.info.aliases.get(name, "")
                    if origin and _module_matches(
                            origin.rpartition(".")[0],
                            self.spec.source_modules):
                        typed = [name]
                        break
            if typed:
                hop = (f"{self.fn.path}:{param.lineno}: parameter "
                       f"'{param.arg}' of {self.fn.qualname}() is typed "
                       f"{typed[0]} ({self.spec.source_label})")
                self.env[param.arg] = _Flow("", (hop,))
            else:
                self.env[param.arg] = _Flow(param.arg, ())

    # -- environment --------------------------------------------------------

    def _bind(self, name: str, flow: _Flow) -> bool:
        held = self.env.get(name)
        if held is None:
            self.env[name] = flow
            return True
        if held.origin and not flow.origin:
            # A real source supersedes a parameter-relative flow.
            self.env[name] = flow
            return True
        return False

    def _lookup(self, dotted: str) -> Optional[_Flow]:
        """Longest-prefix cell lookup: taint of ``a`` covers ``a.b``,
        but ``self.x`` never covers ``self.y``."""
        if dotted in self.env:
            return self.env[dotted]
        prefix = dotted
        while "." in prefix:
            prefix = prefix.rpartition(".")[0]
            if prefix == "self":
                return None
            if prefix in self.env:
                return self.env[prefix]
        return None

    # -- expression taint ---------------------------------------------------

    def _call_taint(self, node: ast.Call) -> Optional[_Flow]:
        terminal = _terminal_name(node.func)
        if terminal in self.spec.sanitizers:
            return None
        line = node.lineno
        # A method invoked on a tainted object yields tainted data
        # (ground-truth carriers do not launder themselves).
        if isinstance(node.func, ast.Attribute):
            base = self._expr_taint(node.func.value)
            if base is not None:
                return base
        candidates = self.project._resolve_callable_ref(
            node.func, self.info, self.fn)
        if len(candidates) == 1:
            summary = self.summaries.get(candidates[0])
            callee = self.project.functions[candidates[0]]
            if summary is not None:
                if summary.returns_source is not None:
                    hop = (f"{self.fn.path}:{line}: {self.fn.qualname}() "
                           f"calls {callee.qualname}() which returns "
                           f"{self.spec.source_label}")
                    return _Flow("", (hop,) + summary.returns_source, node)
                flow = self._flow_through_params(
                    node, callee, summary.param_to_return)
                if flow is not None:
                    return flow
        if terminal is not None and terminal in self.spec.source_types:
            hop = (f"{self.fn.path}:{line}: constructs {terminal} "
                   f"({self.spec.source_label})")
            return _Flow("", (hop,), node)
        if terminal is not None and terminal in self.class_names:
            # Record construction (dataclasses, wrapper types) carries
            # the taint of its field arguments.
            flow = self._first_taint(
                list(node.args) + [kw.value for kw in node.keywords])
            if flow is not None:
                hop = (f"{self.fn.path}:{line}: wraps the tainted value "
                       f"in {terminal}")
                return flow.extend(hop)
        producer = self._imported_producer(node.func)
        if producer is not None:
            name, origin = producer
            hop = (f"{self.fn.path}:{line}: calls {name}() imported "
                   f"from {origin}")
            return _Flow("", (hop,), node)
        return None

    def _flow_through_params(self, node: ast.Call, callee,
                             table: Dict[str, Tuple[str, ...]],
                             ) -> Optional[_Flow]:
        """Match tainted arguments against a callee's parameter table;
        returns the stitched flow for the first match."""
        for param, arg in self._match_args(node, callee):
            if param not in table:
                continue
            flow = self._expr_taint(arg)
            if flow is None:
                continue
            hop = (f"{self.fn.path}:{node.lineno}: {self.fn.qualname}() "
                   f"passes the tainted value into {callee.qualname}()")
            return _Flow(flow.origin, flow.hops + (hop,) + table[param],
                         flow.node if flow.node is not None else node)
        return None

    def _match_args(self, node: ast.Call, callee):
        """(param name, argument expression) pairs for a call site."""
        args = callee.node.args
        params = [a.arg for a in (list(args.posonlyargs) + list(args.args))]
        if params and params[0] in ("self", "cls") \
                and isinstance(node.func, ast.Attribute):
            params = params[1:]
        pairs = list(zip(params, node.args))
        for kw in node.keywords:
            if kw.arg is not None:
                pairs.append((kw.arg, kw.value))
        return pairs

    def _imported_producer(self, func: ast.AST) -> Optional[Tuple[str, str]]:
        """``(name, source module)`` when the callable is imported from
        a source module (ALL_CAPS constants are not producers)."""
        dotted = _dotted_name(func)
        if dotted is None:
            return None
        head = dotted.split(".")[0]
        origin = self.info.aliases.get(head)
        if origin is None:
            return None
        full = origin + dotted[len(head):]
        module = full.rpartition(".")[0]
        name = full.rpartition(".")[2]
        if name.isupper():
            return None
        if _module_matches(module, self.spec.source_modules) \
                or _module_matches(full, self.spec.source_modules):
            return dotted, module
        return None

    def _expr_taint(self, node: Optional[ast.AST]) -> Optional[_Flow]:
        if node is None or isinstance(node, (ast.Constant, ast.Lambda)):
            return None
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Attribute):
            if node.attr in self.spec.source_attrs:
                hop = (f"{self.fn.path}:{node.lineno}: reads "
                       f"{self.spec.source_label} attribute "
                       f"'.{node.attr}'")
                return _Flow("", (hop,), node)
            dotted = _dotted_name(node)
            if dotted is not None:
                return self._lookup(dotted)
            return self._expr_taint(node.value)
        if isinstance(node, ast.Subscript):
            return self._expr_taint(node.value)
        if isinstance(node, ast.Call):
            return self._call_taint(node)
        if isinstance(node, ast.BinOp):
            return self._expr_taint(node.left) \
                or self._expr_taint(node.right)
        if isinstance(node, ast.BoolOp):
            return self._first_taint(node.values)
        if isinstance(node, ast.Compare):
            return self._first_taint([node.left] + list(node.comparators))
        if isinstance(node, ast.UnaryOp):
            return self._expr_taint(node.operand)
        if isinstance(node, ast.IfExp):
            return self._first_taint([node.body, node.orelse])
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            return self._first_taint(node.elts)
        if isinstance(node, ast.Dict):
            return self._first_taint(
                [k for k in node.keys if k is not None] + list(node.values))
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._expr_taint(node.elt) or self._first_taint(
                [gen.iter for gen in node.generators])
        if isinstance(node, ast.DictComp):
            return self._first_taint(
                [node.key, node.value]
                + [gen.iter for gen in node.generators])
        if isinstance(node, ast.JoinedStr):
            return self._first_taint(node.values)
        if isinstance(node, ast.FormattedValue):
            return self._expr_taint(node.value)
        if isinstance(node, (ast.Starred, ast.Await, ast.NamedExpr)):
            return self._expr_taint(node.value)
        return None

    def _first_taint(self, nodes) -> Optional[_Flow]:
        for node in nodes:
            flow = self._expr_taint(node)
            if flow is not None:
                return flow
        return None

    # -- fixpoint over bindings ---------------------------------------------

    def _target_cells(self, target: ast.AST) -> List[str]:
        if isinstance(target, ast.Name):
            return [target.id]
        if isinstance(target, ast.Attribute):
            dotted = _dotted_name(target)
            return [dotted] if dotted else []
        if isinstance(target, (ast.Tuple, ast.List)):
            cells: List[str] = []
            for element in target.elts:
                cells.extend(self._target_cells(element))
            return cells
        if isinstance(target, ast.Starred):
            return self._target_cells(target.value)
        return []

    def solve(self) -> None:
        for _ in range(_MAX_SUMMARY_ROUNDS):
            changed = False
            for node in self.fn.nodes:
                changed |= self._bind_stmt(node)
            if not changed:
                return

    def _bind_stmt(self, node: ast.AST) -> bool:
        changed = False
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = getattr(node, "value", None)
            flow = self._expr_taint(value)
            if flow is None:
                return False
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for cell in self._target_cells(target):
                    hop = (f"{self.fn.path}:{node.lineno}: tainted value "
                           f"flows into {cell}")
                    changed |= self._bind(cell, flow.extend(hop))
                if isinstance(target, ast.Subscript):
                    dotted = _dotted_name(target.value)
                    if dotted is not None:
                        hop = (f"{self.fn.path}:{node.lineno}: tainted "
                               f"value stored into {dotted}[...]")
                        changed |= self._bind(dotted, flow.extend(hop))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            flow = self._expr_taint(node.iter)
            if flow is None:
                return False
            for cell in self._target_cells(node.target):
                hop = (f"{self.fn.path}:{node.lineno}: iterates the "
                       f"tainted collection into {cell}")
                changed |= self._bind(cell, flow.extend(hop))
        elif isinstance(node, ast.NamedExpr):
            flow = self._expr_taint(node.value)
            if flow is not None and isinstance(node.target, ast.Name):
                changed |= self._bind(node.target.id, flow)
        return changed

    # -- reporting ----------------------------------------------------------

    def report(self) -> None:
        in_sink_module = _module_matches(self.fn.module,
                                         self.spec.sink_modules)
        for node in self.fn.nodes:
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                self._report_store(node, in_sink_module)
            elif isinstance(node, ast.Return) and node.value is not None:
                self._report_return(node, in_sink_module)
            elif isinstance(node, ast.Call):
                self._report_call(node, in_sink_module)

    def _state_target(self, target: ast.AST) -> Optional[str]:
        """The instance-state cell a store mutates, or None."""
        if isinstance(target, ast.Attribute):
            dotted = _dotted_name(target)
            if dotted and dotted.startswith("self."):
                return dotted
        if isinstance(target, ast.Subscript):
            dotted = _dotted_name(target.value)
            if dotted and dotted.startswith("self."):
                return f"{dotted}[...]"
        return None

    def _report_store(self, node, in_sink_module: bool) -> None:
        flow = self._expr_taint(getattr(node, "value", None))
        if flow is None:
            return
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        for target in targets:
            cell = self._state_target(target)
            if cell is None:
                continue
            self._record_sink(node, flow, cell, in_sink_module)

    def _report_return(self, node: ast.Return,
                       in_sink_module: bool) -> None:
        flow = self._expr_taint(node.value)
        if flow is None:
            return
        if flow.origin:
            self.summary.param_to_return.setdefault(flow.origin, flow.hops)
            return
        if not in_sink_module:
            self.summary.returns_source = self.summary.returns_source \
                or flow.hops
            return
        hop = (f"{self.fn.path}:{node.lineno}: "
               f"{self.spec.source_label} returned from "
               f"{self.fn.qualname}()")
        message = (f"{self.spec.source_label} returned from "
                   f"{self.fn.qualname}(); the sanctioned surface is "
                   "WireView/TcpWireView/RecordInfo"
                   if self.spec.code == "LEAK001" else
                   f"{self.spec.source_label} returned from "
                   f"{self.fn.qualname}(); defenses must not read the "
                   "attack pipeline")
        self.sinks.append((node.lineno, node.col_offset, message,
                           self._trace(flow, node, hop)))

    def _report_call(self, node: ast.Call, in_sink_module: bool) -> None:
        # self.<container>.append(tainted) and friends are stores.
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in _CONTAINER_STORES:
            receiver = _dotted_name(node.func.value)
            if receiver and receiver.startswith("self."):
                flow = self._first_taint(
                    list(node.args) + [kw.value for kw in node.keywords])
                if flow is not None:
                    self._record_sink(node, flow, receiver,
                                      in_sink_module)
                    return
        # Interprocedural: a tainted argument reaching a callee that
        # stores its parameter into instance state.
        candidates = self.project._resolve_callable_ref(
            node.func, self.info, self.fn)
        if len(candidates) != 1:
            return
        summary = self.summaries.get(candidates[0])
        if summary is None or not summary.param_to_state:
            return
        callee = self.project.functions[candidates[0]]
        for param, arg in self._match_args(node, callee):
            if param not in summary.param_to_state:
                continue
            flow = self._expr_taint(arg)
            if flow is None:
                continue
            line, col, cell, hops = summary.param_to_state[param]
            call_hop = (f"{self.fn.path}:{node.lineno}: "
                        f"{self.fn.qualname}() passes the tainted value "
                        f"into {callee.qualname}()")
            stitched = _Flow(flow.origin, flow.hops + (call_hop,) + hops,
                             flow.node if flow.node is not None else node)
            if stitched.origin:
                self.summary.param_to_state.setdefault(
                    stitched.origin,
                    (node.lineno, node.col_offset, cell, stitched.hops))
            elif in_sink_module:
                message = (f"{self.spec.source_label} flows into "
                           f"{self.sink_cell_label(cell)} via "
                           f"{callee.qualname}()")
                self.sinks.append((node.lineno, node.col_offset, message,
                                   self._trace(stitched, node, None)))

    def sink_cell_label(self, cell: str) -> str:
        return f"{cell} ({self.spec.sink_label})"

    def _record_sink(self, node, flow: _Flow, cell: str,
                     in_sink_module: bool) -> None:
        hop = (f"{self.fn.path}:{node.lineno}: "
               f"{self.spec.source_label} flows into "
               f"{self.sink_cell_label(cell)}")
        if flow.origin:
            self.summary.param_to_state.setdefault(
                flow.origin, (node.lineno, node.col_offset, cell,
                              flow.hops + (hop,)))
            return
        if not in_sink_module:
            return
        message = (f"{self.spec.source_label} flows into {cell} in "
                   f"{self.fn.qualname}(); the sanctioned surface is "
                   "WireView/TcpWireView/RecordInfo"
                   if self.spec.code == "LEAK001" else
                   f"{self.spec.source_label} flows into {cell} in "
                   f"{self.fn.qualname}(); defenses must not read the "
                   "attack pipeline")
        self.sinks.append((node.lineno, node.col_offset, message,
                           self._trace(flow, node, hop)))

    # -- CFG path evidence ---------------------------------------------------

    def _trace(self, flow: _Flow, sink_node: ast.AST,
               sink_hop: Optional[str]) -> Tuple[str, ...]:
        branch_hops = self._branch_hops(flow.node, sink_node)
        trace = flow.hops + branch_hops
        if sink_hop is not None:
            trace = trace + (sink_hop,)
        return trace

    def _block_of(self, node: ast.AST) -> Optional[int]:
        """The CFG block of the innermost statement enclosing ``node``
        (matching the outermost enclosing ``if``/loop statement would
        land in its test block, losing the branch edges)."""
        if self._stmts is None:
            table: Dict[int, ast.stmt] = {}

            def visit(parent: ast.AST, stmt: Optional[ast.stmt]) -> None:
                for child in ast.iter_child_nodes(parent):
                    inner = child if isinstance(child, ast.stmt) else stmt
                    if inner is not None:
                        table[id(child)] = inner
                    visit(child, inner)

            visit(self.fn.node, None)
            self._stmts = table
        stmt = self._stmts.get(id(node))
        if stmt is None:
            return None
        return self._cfg.block_of_stmt(stmt)

    def _branch_hops(self, source_node: Optional[ast.AST],
                     sink_node: ast.AST) -> Tuple[str, ...]:
        if self._cfg is None:
            self._cfg = build_cfg(self.fn.node)
        cfg = self._cfg
        sink_block = self._block_of(sink_node)
        if sink_block is None:
            return ()
        sources = None
        if source_node is not None:
            source_block = self._block_of(source_node)
            if source_block is not None:
                sources = [source_block]
        edges = cfg.path_edges(sink_block, sources=sources)
        if not edges:
            return ()
        return cfg.describe_path(self.fn.path, edges)


# -- whole-program driver ----------------------------------------------------


def _sink_functions(project, spec: BoundarySpec) -> List:
    return sorted(key for key, fn in project.functions.items()
                  if _module_matches(fn.module, spec.sink_modules))


def _relevant_functions(project, seeds: Sequence) -> List:
    """Sink functions plus everything they can (transitively) call:
    the set summaries must cover."""
    reached = set(seeds)
    frontier = list(seeds)
    while frontier:
        key = frontier.pop()
        for candidates, _ in project.functions[key].calls:
            for callee in candidates:
                if callee not in reached:
                    reached.add(callee)
                    frontier.append(callee)
    return sorted(reached)


def _run_flow_spec(project, spec: BoundarySpec,
                   class_names: frozenset) -> List[Finding]:
    findings: List[Finding] = []
    sinks = _sink_functions(project, spec)
    if not sinks:
        return findings
    if spec.flag_imports:
        findings.extend(_import_findings(project, spec))
    relevant = _relevant_functions(project, sinks)
    summaries: Dict = {key: _Summary() for key in relevant}
    analyses: Dict = {}
    for _ in range(_MAX_SUMMARY_ROUNDS):
        signature = tuple(summaries[key].signature() for key in relevant)
        for key in relevant:
            analysis = _FunctionTaint(project, spec,
                                      project.functions[key], summaries,
                                      class_names)
            analysis.solve()
            analysis.report()
            summaries[key] = analysis.summary
            analyses[key] = analysis
        if tuple(summaries[key].signature() for key in relevant) \
                == signature:
            break
    seen: Set[Tuple] = set()
    for key in sinks:
        analysis = analyses[key]
        fn = project.functions[key]
        for line, col, message, trace in analysis.sinks:
            marker = (fn.path, line, col, message)
            if marker in seen:
                continue
            seen.add(marker)
            findings.append(Finding(
                path=fn.path, line=line, col=col, code=spec.code,
                message=message, trace=trace, law=spec.law))
    return findings


def _import_findings(project, spec: BoundarySpec) -> List[Finding]:
    """Sink modules must not even import from source modules."""
    findings: List[Finding] = []
    for module in sorted(project.modules):
        if not _module_matches(module, spec.sink_modules):
            continue
        info = project.modules[module]
        for node in ast.walk(info.tree):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0 \
                    and _module_matches(node.module, spec.source_modules):
                names = ", ".join(alias.name for alias in node.names)
                findings.append(Finding(
                    path=info.path, line=node.lineno,
                    col=node.col_offset, code=spec.code,
                    message=(f"defense module imports {names} from "
                             f"{node.module}; defenses must not read "
                             "the attack pipeline"),
                    law=spec.law))
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if _module_matches(alias.name, spec.source_modules):
                        findings.append(Finding(
                            path=info.path, line=node.lineno,
                            col=node.col_offset, code=spec.code,
                            message=(f"defense module imports "
                                     f"{alias.name}; defenses must not "
                                     "read the attack pipeline"),
                            law=spec.law))
    return findings


# -- LEAK003: passive taps must not mutate ----------------------------------


def _owned_locals(fn, own_types: Set[str]) -> Set[str]:
    """Names bound to objects the tap itself owns: values it created
    (constructor calls, fresh literals) and parameters annotated with a
    record type the tap module defines (its own bookkeeping, e.g. the
    DoS detector's ``_ConnTrack``).  Mutating those is bookkeeping, not
    a mutation of the observed system."""
    owned: Set[str] = set()
    for node in fn.nodes:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if isinstance(node.value, (ast.Call, ast.List, ast.Dict, ast.Set,
                                   ast.Tuple, ast.ListComp, ast.DictComp,
                                   ast.SetComp)):
            for target in targets:
                if isinstance(target, ast.Name):
                    owned.add(target.id)
    args = fn.node.args
    for param in (list(args.posonlyargs) + list(args.args)
                  + list(args.kwonlyargs)):
        if _annotation_names(param.annotation) & own_types:
            owned.add(param.arg)
    return owned


def _foreign_root(dotted: Optional[str], owned: Set[str]) -> bool:
    if dotted is None:
        return True
    root = dotted.split(".")[0]
    return root != "self" and root not in owned


def _check_tap_passivity(project) -> List[Finding]:
    findings: List[Finding] = []
    keys = sorted(key for key, fn in project.functions.items()
                  if _module_matches(fn.module, TAP_MODULES))
    for key in keys:
        fn = project.functions[key]
        owned = _owned_locals(fn, project.modules[fn.module].class_names)
        trace = tuple(project.event_reachable.get(key, ()))
        for node in fn.nodes:
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    finding = _tap_store_finding(fn, node, target, owned,
                                                 trace)
                    if finding is not None:
                        findings.append(finding)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    finding = _tap_store_finding(fn, node, target, owned,
                                                 trace, deleting=True)
                    if finding is not None:
                        findings.append(finding)
            elif isinstance(node, ast.Call):
                terminal = _terminal_name(node.func)
                if terminal in TAP_MUTATOR_CALLS:
                    findings.append(Finding(
                        path=fn.path, line=node.lineno,
                        col=node.col_offset, code="LEAK003",
                        message=(f"passive tap {fn.qualname}() invokes "
                                 f"state-changing {terminal}(); monitors "
                                 "and detectors must only observe"),
                        trace=trace, law="TAP_PASSIVITY"))
                elif terminal in _CONTAINER_STORES:
                    finding = _tap_container_call_finding(fn, node, owned,
                                                          trace)
                    if finding is not None:
                        findings.append(finding)
    return findings


def _tap_container_call_finding(fn, node: ast.Call, owned: Set[str],
                                trace: Tuple[str, ...]) -> Optional[Finding]:
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr == "append" and isinstance(func.value, ast.Attribute) \
            and func.value.attr == "taps":
        return None  # subscribing an observer is the attach contract
    dotted = _dotted_name(func.value)
    if dotted is None or not _foreign_root(dotted, owned):
        return None
    return Finding(
        path=fn.path, line=node.lineno, col=node.col_offset,
        code="LEAK003",
        message=(f"passive tap {fn.qualname}() stores into foreign "
                 f"container {dotted} via .{func.attr}(); monitors "
                 "and detectors must only observe"),
        trace=trace, law="TAP_PASSIVITY")


def _tap_store_finding(fn, node, target: ast.AST, owned: Set[str],
                       trace: Tuple[str, ...],
                       deleting: bool = False) -> Optional[Finding]:
    if isinstance(target, ast.Attribute):
        if isinstance(target.value, ast.Name) \
                and (target.value.id == "self"
                     or target.value.id in owned):
            return None
        dotted = _dotted_name(target) or f"<expr>.{target.attr}"
        verb = "deletes" if deleting else "assigns"
        return Finding(
            path=fn.path, line=node.lineno, col=node.col_offset,
            code="LEAK003",
            message=(f"passive tap {fn.qualname}() {verb} foreign "
                     f"state {dotted}; monitors and detectors must "
                     "only observe"),
            trace=trace, law="TAP_PASSIVITY")
    if isinstance(target, ast.Subscript):
        dotted = _dotted_name(target.value)
        if not _foreign_root(dotted, owned):
            return None
        if dotted is None:
            return None
        verb = "deletes from" if deleting else "stores into"
        return Finding(
            path=fn.path, line=node.lineno, col=node.col_offset,
            code="LEAK003",
            message=(f"passive tap {fn.qualname}() {verb} foreign "
                     f"container {dotted}[...]; monitors and detectors "
                     "must only observe"),
            trace=trace, law="TAP_PASSIVITY")
    return None


def check_taint(project, enabled: Set[str]) -> List[Finding]:
    """The LEAK family: interprocedural information-boundary taint
    pass (LEAK001/LEAK002) plus the tap-passivity effect check
    (LEAK003).  See docs/LINTING.md for the source/sink/sanitizer
    tables."""
    findings: List[Finding] = []
    # Constructing a project class with a tainted argument wraps (not
    # launders) the taint.
    class_names = frozenset().union(
        *(info.class_names for info in project.modules.values()))
    for spec in LEAK_SPECS:
        if spec.code in enabled:
            findings.extend(_run_flow_spec(project, spec, class_names))
    if "LEAK003" in enabled:
        findings.extend(_check_tap_passivity(project))
    return findings


__all__ = ["ADVERSARY_MODULES", "BoundarySpec", "GROUND_TRUTH_ATTRS",
           "GROUND_TRUTH_TYPES", "LEAK_SPECS", "TAP_MODULES",
           "check_taint"]
