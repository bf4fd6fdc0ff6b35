"""Layer-attributed span tracer for the artefact benchmark.

The tracer patches the ``repro`` package from the outside -- nothing
under ``src/repro`` knows it exists -- and restores every patch on
:meth:`Tracer.uninstall`:

* every function and method defined in a layer package is wrapped in a
  span of that layer (``repro.simnet`` -> ``simnet``, ...,
  ``repro.experiments.runner``/``workers`` -> ``runner``, the other
  experiment modules -> ``experiments``; a class outside the layer
  packages that extends a layer class, such as the chaos site or the
  batching browser, takes its base's layer);
* ``Simulator.schedule_at`` wraps each scheduled callback in a span of
  its defining module's layer, so every executed event is attributed;
* ``runner.execute_spec`` -- one call per grid cell -- is the session
  boundary: the layer totals accrued inside it travel back with the
  cell's metrics under :data:`TRACE_KEY`, which is how a pool worker's
  spans reach the parent;
* a few counting hooks feed the ratio metrics (scheduled and cancelled
  events, data segments and retransmissions, object serves and duplicate
  serves, time in the adversary's ``report()``).

A span is timed only where it crosses a layer boundary: a call into the
layer already on top of the stack runs unwrapped, so nested same-layer
calls are neither double-counted nor counted as boundary calls.  Self
time is a span's duration minus the durations of its child spans, less
the tracer's own cost: on :meth:`Tracer.install` the tracer times empty
spans and same-layer pass-throughs, and takes that much off the layer
that paid for each one (see :meth:`Tracer.wrap`).
Blocking on a pool worker (``multiprocessing.connection.wait``) and the
benchmark's own host-speed reference slices are ``idle`` spans, so
neither is charged to the runner.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import sys
import time
import types
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Reported layers, in report order.
LAYERS = ("simnet", "tcp", "tls", "http2", "browser", "core", "invariants",
          "website", "runner", "experiments")
#: Unreported pseudo-layer for time spent blocked on a pool worker or
#: in a host-speed reference slice.
IDLE = "idle"
_ALL_LAYERS = LAYERS + (IDLE,)
LAYER_ID = {name: index for index, name in enumerate(_ALL_LAYERS)}

#: Counter slots of :attr:`Tracer.counters`.
COUNTERS = ("scheduled", "cancelled", "data_segments", "retransmits",
            "serves", "dup_serves", "report_s")
_C = {name: index for index, name in enumerate(COUNTERS)}

#: Metrics key under which a traced cell ships its session summary.
TRACE_KEY = "_perfbench_trace"

#: Packages whose modules are scanned for functions to wrap.
_SCANNED = ("simnet", "tcp", "tls", "http2", "browser", "core",
            "invariants", "website", "experiments", "defenses", "faults")
#: Dunder methods worth a span; the rest are hot and semantic.
_DUNDERS = ("__init__", "__call__")


def layer_of_module(module: Optional[str]) -> Optional[str]:
    """Layer of a dotted module name, or None outside the layers."""
    if not module or not module.startswith("repro."):
        return None
    parts = module.split(".")
    package = parts[1]
    if package == "experiments":
        return ("runner" if len(parts) > 2 and parts[2] in
                ("runner", "workers") else "experiments")
    return package if package in LAYERS else None


def layer_of_class(cls: type) -> Optional[str]:
    """A class's own layer, or else the first layer among its bases
    other than ``experiments`` (a chaos site is ``website`` code)."""
    own = layer_of_module(cls.__module__)
    if own not in (None, "experiments"):
        return own
    for base in cls.__mro__[1:]:
        inherited = layer_of_module(base.__module__)
        if inherited not in (None, "experiments"):
            return inherited
    return own


class Tracer:
    """Per-layer self time and boundary-call counts, plus counters.

    ``self_s[i]`` and ``calls[i]`` accumulate for layer ``LAYER_ID``
    ``i`` over the tracer's life; :meth:`snapshot` and :meth:`since`
    turn them into per-session deltas.  ``clock`` is injectable so the
    arithmetic can be tested against a synthetic clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: Tracer seconds per span, taken off self times: ``(inner,
        #: outer, passing)`` -- see :meth:`wrap`.  Zero until
        #: :meth:`install` measures them.
        self.span_cost: Tuple[float, float, float] = (0.0, 0.0, 0.0)
        self._calibrated = False
        self.self_s = [0.0] * len(_ALL_LAYERS)
        self.calls = [0] * len(_ALL_LAYERS)
        self.counters: List[float] = [0] * len(COUNTERS)
        #: Open spans as ``[layer id, child seconds]``; the root frame
        #: (layer -1) absorbs the time of top-level spans.
        self.stack: List[list] = [[-1, 0.0]]
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans -----------------------------------------------------------

    def wrap(self, fn: Callable, layer: str) -> Callable:
        """``fn`` inside a span of ``layer``.

        Of :attr:`span_cost`, ``inner`` is the tracer's time inside a
        span's own clock readings, taken off the span's layer; ``outer``
        is the rest of a span's cost, taken off the caller's layer;
        ``passing`` is the cost of a same-layer call passing through
        unwrapped, taken off that layer.
        """
        lid = LAYER_ID[layer]
        stack, self_s, calls, clock = (self.stack, self.self_s, self.calls,
                                       self.clock)
        inner, outer, passing = self.span_cost

        @functools.wraps(fn)
        def span(*args, **kwargs):
            top = stack[-1]
            if top[0] == lid:
                top[1] += passing
                return fn(*args, **kwargs)
            frame = [lid, 0.0]
            stack.append(frame)
            calls[lid] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[lid] += elapsed - frame[1] - inner
                stack[-1][1] += elapsed + outer

        span.__perfbench_span__ = True
        return span

    def snapshot(self) -> tuple:
        return (list(self.self_s), list(self.calls), list(self.counters))

    def since(self, mark: tuple) -> dict:
        """Totals accrued since ``mark`` (a :meth:`snapshot`)."""
        self_s, calls, counters = mark
        return {
            "layers": {name: [(self.self_s[i] - self_s[i]) * 1000.0,
                              self.calls[i] - calls[i]]
                       for i, name in enumerate(_ALL_LAYERS)},
            "counters": {name: self.counters[i] - counters[i]
                         for i, name in enumerate(COUNTERS)},
        }

    def session(self, execute: Callable) -> Callable:
        """Wrap the runner's ``execute_spec`` as a session boundary.

        The session runs on a fresh root frame, so its first span is a
        boundary even when the caller (a pool worker's main loop) is
        runner code itself; its summary rides in the cell's metrics.
        """
        stack, clock = self.stack, self.clock

        @functools.wraps(execute)
        def traced_execute(spec):
            mark = self.snapshot()
            root = [-1, 0.0]
            stack.append(root)
            start = clock()
            try:
                result = execute(spec)
            finally:
                stack.pop()
                stack[-1][1] += clock() - start
            summary = self.since(mark)
            summary["pid"] = os.getpid()
            summary["spec"] = spec.to_dict()
            summary["events"] = result.processed_events
            result.metrics[TRACE_KEY] = summary
            return result

        return traced_execute

    # -- patching --------------------------------------------------------

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _rebind(self, original: Any, replacement: Any) -> None:
        """Point every ``repro`` module global naming ``original`` (its
        home module and each ``from ... import`` of it) at ``replacement``."""
        for module, name in _globals_index().get(id(original), ()):
            self._set(module, name, replacement)

    def calibrate(self, calls: int = 20_000, repeats: int = 7) -> None:
        """Measure :attr:`span_cost` on a scratch tracer: the fastest of
        ``repeats`` loops of ``calls`` empty spans, of pass-throughs and
        of plain calls."""
        probe = Tracer(self.clock)
        clock = self.clock

        def noop():
            return None

        span = probe.wrap(noop, LAYERS[0])

        def timed(fn) -> float:
            start = clock()
            for _ in range(calls):
                fn()
            return (clock() - start) / calls

        plain = min(timed(noop) for _ in range(repeats))
        spans = []
        for _ in range(repeats):
            before = probe.self_s[0]
            spans.append((timed(span), (probe.self_s[0] - before) / calls))
        whole, inside = min(spans)
        probe.stack.append([0, 0.0])
        passing = min(timed(span) for _ in range(repeats)) - plain
        inner = max(0.0, inside - plain)
        self.span_cost = (inner, max(0.0, whole - plain - inner),
                          max(0.0, passing))

    def install(self) -> "Tracer":
        """Wrap the layers and install the hooks (see module docstring)."""
        if not self._calibrated:
            self.calibrate()
            self._calibrated = True
        _import_layers()
        index = _globals_index()
        for module in sorted((m for name, m in list(sys.modules.items())
                              if _scanned(name)), key=lambda m: m.__name__):
            layer = layer_of_module(module.__name__)
            for value in list(vars(module).values()):
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, type):
                    self._wrap_class(value)
                elif (layer is not None
                      and isinstance(value, types.FunctionType)
                      and not inspect.isgeneratorfunction(value)):
                    wrapped = self.wrap(value, layer)
                    for owner, name in index.get(id(value), ()):
                        self._set(owner, name, wrapped)
        self._install_hooks()
        return self

    def _wrap_class(self, cls: type) -> None:
        if issubclass(cls, (Enum, BaseException)):
            return
        layer = layer_of_class(cls)
        if layer is None:
            return
        for name, attr in list(vars(cls).items()):
            if name.startswith("__") and name not in _DUNDERS:
                continue
            if isinstance(attr, (staticmethod, classmethod)):
                inner = attr.__func__
                if isinstance(inner, types.FunctionType):
                    self._set(cls, name, type(attr)(self.wrap(inner, layer)))
            elif isinstance(attr, types.FunctionType) \
                    and not inspect.isgeneratorfunction(attr):
                self._set(cls, name, self.wrap(attr, layer))

    def _install_hooks(self) -> None:
        import multiprocessing.connection as mp_connection

        import hostspeed
        from repro.core.adversary import Http2SerializationAttack
        from repro.experiments import runner
        from repro.http2.server import ServerConnection
        from repro.simnet.engine import EventHandle, Simulator
        from repro.tcp.connection import TcpConnection

        counters, clock, wrap = self.counters, self.clock, self.wrap

        schedule_at = Simulator.schedule_at

        def traced_schedule_at(sim, when, callback, *args):
            counters[_C["scheduled"]] += 1
            layer = layer_of_module(getattr(callback, "__module__", None))
            if layer is not None and not getattr(
                    callback, "__perfbench_span__", False):
                callback = wrap(callback, layer)
            return schedule_at(sim, when, callback, *args)

        cancel = EventHandle.cancel

        def traced_cancel(handle):
            if not handle.cancelled:
                counters[_C["cancelled"]] += 1
            cancel(handle)

        emit = TcpConnection._emit

        def traced_emit(conn, segment):
            if segment.payload_len > 0:
                counters[_C["data_segments"]] += 1
                if segment.retx_count > 0:
                    counters[_C["retransmits"]] += 1
            emit(conn, segment)

        spawn_worker = ServerConnection._spawn_worker

        def traced_spawn_worker(conn, stream_id, path, dup):
            before = conn._serve_ids
            spawn_worker(conn, stream_id, path, dup)
            if conn._serve_ids != before:
                counters[_C["serves"]] += 1
                if dup:
                    counters[_C["dup_serves"]] += 1

        report = Http2SerializationAttack.report

        def traced_report(attack):
            start = clock()
            try:
                return report(attack)
            finally:
                counters[_C["report_s"]] += clock() - start

        self._set(Simulator, "schedule_at", traced_schedule_at)
        self._set(EventHandle, "cancel", traced_cancel)
        self._set(TcpConnection, "_emit", traced_emit)
        self._set(ServerConnection, "_spawn_worker", traced_spawn_worker)
        self._set(Http2SerializationAttack, "report", traced_report)
        self._set(mp_connection, "wait", wrap(mp_connection.wait, IDLE))
        self._set(hostspeed, "slice_s", wrap(hostspeed.slice_s, IDLE))
        self._rebind(runner.execute_spec, self.session(runner.execute_spec))

    def uninstall(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def _scanned(name: str) -> bool:
    parts = name.split(".")
    return len(parts) > 1 and parts[0] == "repro" and parts[1] in _SCANNED


def _import_layers() -> None:
    """Import every module of the scanned packages, so classes loaded
    lazily later (the batching browser, say) are wrapped too.  The
    experiment modules are left alone: the workloads import theirs."""
    for package_name in _SCANNED:
        if package_name == "experiments":
            continue
        package = importlib.import_module(f"repro.{package_name}")
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"repro.{package_name}.{info.name}")


def _globals_index() -> Dict[int, List[Tuple[Any, str]]]:
    """``id(function)`` -> every ``(repro module, global name)`` bound
    to it."""
    index: Dict[int, List[Tuple[Any, str]]] = {}
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, value in vars(module).items():
            if isinstance(value, types.FunctionType):
                index.setdefault(id(value), []).append((module, name))
    return index
