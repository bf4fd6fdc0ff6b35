"""Flow-sensitive core: CFG shapes, dominators, typestate rules.

Three layers under test:

* :mod:`repro.lint.cfg` -- golden-shape tests pin the exact edge list
  for each structured-statement lowering (branch, loops, try/finally,
  with, match).  The shapes are load-bearing: PROTO001 dominance and
  the RES/DOS path searches consume them.
* :func:`repro.lint.cfg.dominators` -- dominance on a diamond.
* :mod:`repro.lint.typestate` / the DOS checks -- one fixture per rule
  (RES001, RES002, DOS001-DOS003) asserting the exact code, law, and
  CFG-path evidence.
"""

from __future__ import annotations

import ast
import textwrap

from repro.lint import lint_source
from repro.lint.cfg import build_cfg, dominators, header_nodes, may_raise


def cfg_for(source: str):
    tree = ast.parse(textwrap.dedent(source))
    return tree.body[0], build_cfg(tree.body[0])


def shape(source: str):
    """Render every edge as ``src->dst kind`` (synthetic sinks named)."""
    _fn, cfg = cfg_for(source)
    names = {cfg.exit: "exit", cfg.error: "error"}

    def nm(bid: int) -> str:
        return names.get(bid, f"b{bid}")

    return [f"{nm(e.source)}->{nm(e.target)} {e.kind}"
            for e in sorted(cfg.edges,
                            key=lambda e: (e.source, e.target, e.kind))]


def findings_for(source: str, **kwargs):
    return lint_source(textwrap.dedent(source), "repro.simnet.fixture",
                       **kwargs)


# -- CFG golden shapes --------------------------------------------------------

class TestCfgShapes:
    def test_branch_diamond(self):
        assert shape("""
            def f(x):
                if x:
                    a()
                else:
                    b()
                c()
        """) == [
            "b0->b1 true",
            "b0->b2 false",
            "b1->error raise",
            "b1->b3 next",
            "b2->error raise",
            "b2->b3 next",
            "b3->error raise",
            "b3->exit return",
        ]

    def test_for_loop_with_break(self):
        assert shape("""
            def f(items):
                for item in items:
                    if item:
                        break
                return items
        """) == [
            "b0->b1 next",
            "b1->b2 loop-exit",
            "b1->b3 loop",
            "b2->exit return",
            "b3->b4 true",
            "b3->b6 false",
            "b4->b2 break",
            "b6->b7 next",
            "b7->b1 back",
        ]

    def test_while_loop(self):
        assert shape("""
            def f(n):
                while n > 0:
                    n -= 1
                return n
        """) == [
            "b0->b1 next",
            "b1->b2 false",
            "b1->b3 true",
            "b2->exit return",
            "b3->b1 back",
        ]

    def test_try_except_finally(self):
        # b1 = handler dispatch, b2 = try body, b3 = finally, b4 = the
        # ValueError handler.  The dispatch escape (no handler matches)
        # routes *through* the finally block, which carries both its own
        # sealed raise edge and the propagation continuation.
        assert shape("""
            def f(x):
                try:
                    risky(x)
                except ValueError:
                    handle(x)
                finally:
                    cleanup(x)
                return x
        """) == [
            "b0->b2 next",
            "b1->b3 except",
            "b1->b4 except",
            "b2->b1 except",
            "b2->b3 next",
            "b3->error raise",
            "b3->error raise",
            "b3->b5 next",
            "b4->error raise",
            "b4->b3 next",
            "b5->exit return",
        ]

    def test_return_inside_try_routes_through_finally(self):
        # b2 = try body, b1 = handler dispatch, b4 = finally, b5 = the
        # (unreachable) fall-through.  The `return` does not edge to
        # exit directly: it is deferred into the finally block
        # (b2->b4 next), which then carries the return edge
        # (b4->exit) -- so a release in the finally covers the early
        # return, and RES checks see the cleanup on that path.
        assert shape("""
            def f(x):
                try:
                    return g(x)
                finally:
                    cleanup(x)
        """) == [
            "b0->b2 next",
            "b1->b4 except",
            "b2->b1 except",
            "b2->b4 next",
            "b4->error raise",
            "b4->error raise",
            "b4->exit return",
            "b4->b5 next",
            "b5->exit return",
        ]

    def test_with_block(self):
        assert shape("""
            def f(x):
                with lock(x) as guard:
                    body(guard)
                return x
        """) == [
            "b0->error raise",
            "b0->b1 with",
            "b1->error raise",
            "b1->b2 next",
            "b2->exit return",
        ]

    def test_match_cases(self):
        # A wildcard arm means no case-else fall-through edge.
        assert shape("""
            def f(cmd):
                match cmd:
                    case "open":
                        a()
                    case "close":
                        b()
                    case _:
                        c()
        """) == [
            "b0->b2 case",
            "b0->b3 case",
            "b0->b4 case",
            "b1->exit return",
            "b2->error raise",
            "b2->b1 next",
            "b3->error raise",
            "b3->b1 next",
            "b4->error raise",
            "b4->b1 next",
        ]

    def test_match_without_wildcard_keeps_fallthrough(self):
        edges = shape("""
            def f(cmd):
                match cmd:
                    case "open":
                        a()
        """)
        assert "b0->b1 case-else" in edges

    def test_headers_do_not_inherit_body_raises(self):
        # `if ok:` evaluates only the test in its own block; the call in
        # the body raises from the body's block.
        stmt = ast.parse("if ok:\n    risky()").body[0]
        assert not may_raise(stmt)
        assert [type(n).__name__ for n in header_nodes(stmt)] == ["Name"]


# -- dominators ---------------------------------------------------------------

class TestDataflow:
    DIAMOND = """
        def f(x):
            if x:
                a()
            else:
                b()
            c()
    """

    def test_dominators_on_a_diamond(self):
        _fn, cfg = cfg_for(self.DIAMOND)
        dom = dominators(cfg)
        # Entry dominates everything; neither arm dominates the join.
        for bid in (1, 2, 3):
            assert 0 in dom[bid]
        assert 1 not in dom[3]
        assert 2 not in dom[3]


# -- RES: resource lifecycles -------------------------------------------------

class TestRes001:
    def test_bad_stream_leaked_on_one_branch(self):
        findings = findings_for("""
            class Mux:
                def serve(self, ok):
                    stream = self.conn.open_stream()
                    if ok:
                        stream.close()
                    else:
                        self.log("refused")
        """, select=["RES001"])
        assert [f.code for f in findings] == ["RES001"]
        assert findings[0].law == "H2_STREAM_LEAK"
        assert findings[0].line == 4
        trace = "\n".join(findings[0].trace)
        assert "branch `if ok:` is not taken" in trace
        assert "still held" in trace

    def test_good_released_via_interprocedural_helper(self):
        assert not findings_for("""
            class Mux:
                def serve(self, ok):
                    stream = self.conn.open_stream()
                    if ok:
                        stream.close()
                    else:
                        self._teardown(stream)

                def _teardown(self, s):
                    s.reset()
        """, select=["RES001"])

    def test_good_ownership_transfer_is_not_a_leak(self):
        # No release site anywhere: the stream is registered and kept.
        assert not findings_for("""
            class Mux:
                def serve(self):
                    stream = self.conn.open_stream()
                    self.streams.append(stream)
        """, select=["RES001"])

    def test_good_close_in_finally_covers_the_early_return(self):
        # The deferred-return CFG edges are what make this clean: the
        # `return` inside the try routes through the finally block.
        assert not findings_for("""
            class Mux:
                def serve(self):
                    stream = self.conn.open_stream()
                    try:
                        return compute()
                    finally:
                        stream.close()
        """, select=["RES001"])


class TestRes002:
    def test_bad_credit_leaks_on_the_exception_path(self):
        findings = findings_for("""
            class Flow:
                def push(self, nbytes):
                    self.send_window.consume(nbytes)
                    self.transmit(nbytes)
                    self.send_window.replenish(nbytes)
        """, select=["RES002"])
        assert [f.code for f in findings] == ["RES002"]
        assert findings[0].law == "H2_CREDIT_LEAK"
        assert "exception path" in findings[0].message
        assert any("exception" in hop for hop in findings[0].trace)

    def test_good_replenish_in_finally_covers_the_raise(self):
        assert not findings_for("""
            class Flow:
                def push(self, nbytes):
                    self.send_window.consume(nbytes)
                    try:
                        self.transmit(nbytes)
                    finally:
                        self.send_window.replenish(nbytes)
        """, select=["RES002"])

    def test_good_permanent_consume_is_legal(self):
        # Credit legally returns via the peer's WINDOW_UPDATE; no
        # replenish in the function means no release intent.
        assert not findings_for("""
            class Flow:
                def push(self, nbytes):
                    self.send_window.consume(nbytes)
                    self.transmit(nbytes)
        """, select=["RES002"])


# -- DOS: peer-driven exhaustion ----------------------------------------------

class TestDos001:
    def test_bad_receive_loop_without_deadline(self):
        findings = findings_for("""
            class Server:
                def handle_headers(self, frame):
                    self.drain(frame)

                def drain(self, frame):
                    while True:
                        chunk = self.sock.recv_bytes()
                        if not chunk:
                            break
        """, select=["DOS001"])
        assert [f.code for f in findings] == ["DOS001"]
        assert findings[0].law == "DOS_SLOW_READ"
        assert findings[0].line == 7
        trace = "\n".join(findings[0].trace)
        assert "peer-driven dispatch enters Server.handle_headers()" \
            in trace
        assert "recv_bytes() with no timeout/deadline" in trace

    def test_good_loop_with_deadline(self):
        assert not findings_for("""
            class Server:
                def handle_headers(self, frame):
                    self.drain(frame)

                def drain(self, frame):
                    deadline = self.sim.now + 5.0
                    while self.sim.now < deadline:
                        chunk = self.sock.recv_bytes()
                        if not chunk:
                            break
        """, select=["DOS001"])

    def test_good_loop_not_dispatch_reachable(self):
        # Same shape, but nothing routes peer input into it.
        assert not findings_for("""
            class Tool:
                def drain(self, frame):
                    while True:
                        chunk = self.sock.recv_bytes()
                        if not chunk:
                            break
        """, select=["DOS001"])


class TestDos002:
    def test_bad_unbounded_append_in_event_handler(self):
        findings = findings_for("""
            class Server:
                def __init__(self):
                    self.sim.schedule(0.0, self.on_packet)

                def on_packet(self, pkt):
                    self.backlog.append(pkt)
        """, select=["DOS002"])
        assert [f.code for f in findings] == ["DOS002"]
        assert findings[0].law == "DOS_UNBOUNDED_QUEUE"
        assert findings[0].line == 7
        trace = "\n".join(findings[0].trace)
        assert "event loop enters Server.on_packet()" in trace
        assert "appended to self.backlog with no size guard" in trace

    def test_good_len_guard_bounds_the_queue(self):
        assert not findings_for("""
            class Server:
                def __init__(self):
                    self.sim.schedule(0.0, self.on_packet)

                def on_packet(self, pkt):
                    if len(self.backlog) >= self.max_depth:
                        return
                    self.backlog.append(pkt)
        """, select=["DOS002"])

    def test_good_append_of_non_peer_data(self):
        # The appended value is not derived from the handler's input.
        assert not findings_for("""
            class Server:
                def __init__(self):
                    self.sim.schedule(0.0, self.on_packet)

                def on_packet(self, pkt):
                    self.ticks.append(self.sim.now)
        """, select=["DOS002"])


class TestDos003:
    def test_bad_timer_left_armed_on_the_early_return(self):
        findings = findings_for("""
            class Conn:
                def begin(self, fast):
                    self._handshake_timer = self.sim.schedule(2.0, self._die)
                    if fast:
                        return
                    self._handshake_timer.cancel()
        """, select=["DOS003"])
        assert [f.code for f in findings] == ["DOS003"]
        assert findings[0].law == "TIMER_ARMED_NOT_CANCELLED"
        assert "not cancelled" in findings[0].message
        trace = "\n".join(findings[0].trace)
        assert "branch `if fast:` is taken" in trace
        assert "returns with 'self._handshake_timer' still held" in trace

    def test_good_cancel_on_every_path(self):
        assert not findings_for("""
            class Conn:
                def begin(self, fast):
                    self._handshake_timer = self.sim.schedule(2.0, self._die)
                    if fast:
                        self._handshake_timer.cancel()
                        return
                    self._handshake_timer.cancel()
        """, select=["DOS003"])

    def test_good_assign_none_is_a_cancel(self):
        assert not findings_for("""
            class Conn:
                def begin(self, fast):
                    self.idle_deadline = self.sim.schedule(9.0, self._die)
                    if fast:
                        self.idle_deadline = None
                        return
                    self.idle_deadline = None
        """, select=["DOS003"])

    def test_good_cancel_then_rearm_is_arm_forever(self):
        # The cancel precedes the arm: it retires the *previous* handle,
        # so this function shows no release intent for the new one (the
        # RTO-restart idiom in the TCP stack).
        assert not findings_for("""
            class Conn:
                def restart_rto(self):
                    self._rto_timer.cancel()
                    self._rto_timer = self.sim.schedule(1.0, self._on_rto)
        """, select=["DOS003"])

    def test_good_non_timer_schedule_is_not_tracked(self):
        # Plain event scheduling is not a deadline-timer acquire.
        assert not findings_for("""
            class Conn:
                def kick(self, fast):
                    handle = self.sim.schedule(0.0, self._pump)
                    if fast:
                        return
                    handle.cancel()
        """, select=["DOS003"])
