"""The server's resource-robustness layer (docs/DOS.md).

Contract under test: hardening is *off* by default (no per-connection
hardening state, no deadline events, byte-identical runs), and on a
``hardened`` server each deadline and budget defeats the attack kind it
was built for while naming its action in per-connection telemetry
(``shed_reason``, counters).  A test that needs a tighter budget than
the shipped one monkeypatches that module constant.
"""

import pytest

from repro.attacks import AttackSpec, make_agent
from repro.experiments import dos_eval
from repro.http2 import frames as fr
from repro.http2 import server as h2server
from repro.http2.server import Http2Server, Http2ServerConfig, ServerConnection
from repro.invariants import MonitorSuite
from repro.simnet.engine import Simulator
from repro.simnet.topology import StandardTopology, TopologyConfig
from repro.tcp.connection import TcpStack
from repro.tls.session import TlsSession
from repro.website.isidewith import build_isidewith_site


def _session(spec, config, *, seed: int = 5, until: float = 8.0):
    sim = Simulator(seed=seed)
    topo = StandardTopology(sim, TopologyConfig())
    server = Http2Server(sim, topo.server, build_isidewith_site(), config)
    stack = TcpStack(sim, topo.client)
    agent = make_agent(sim, stack, spec)
    agent.start()
    sim.run(until=until)
    return sim, server, stack


# -- construction-time validation ---------------------------------------------

class TestConfigValidation:
    def test_base_fields_still_validated(self):
        with pytest.raises(ValueError, match="max_connections"):
            Http2ServerConfig(max_connections=0)


# -- off-by-default: no hardening state, no deadline events -------------------

def test_default_config_creates_no_hardening_state():
    spec = AttackSpec("ping_flood", duration_s=2.0, rate_per_s=20.0)
    _sim, server, _stack = _session(spec, Http2ServerConfig())
    assert server.connections
    assert all(c._hardening is None for c in server.connections)
    assert server.shed_connections == 0
    assert server.timed_out_connections == 0


def test_idle_hardened_server_schedules_no_events():
    # Hardening armed but no traffic: the wheel stays empty, so the
    # run processes zero events (the lint/DET byte-identity contract).
    sim = Simulator(seed=1)
    topo = StandardTopology(sim, TopologyConfig())
    Http2Server(sim, topo.server, build_isidewith_site(),
                Http2ServerConfig(hardened=True))
    sim.run(until=30.0)
    assert sim.processed_events == 0


# -- deadlines vs their attack kinds ------------------------------------------

def test_handshake_deadline_kills_silent_dialers(monkeypatch):
    monkeypatch.setattr(h2server, "HANDSHAKE_TIMEOUT_S", 1.5)
    spec = AttackSpec("slow_preamble", duration_s=3.0, connections=3,
                      pace_s=10.0)  # no re-dial sweep within the run
    _sim, server, _stack = _session(
        spec, Http2ServerConfig(hardened=True), until=6.0)
    assert server.timed_out_connections == 3
    assert all(c._aborted for c in server.connections)
    assert all("handshake deadline" in c.shed_reason
               for c in server.connections)


def test_preamble_deadline_sheds_a_peer_silent_after_tls(monkeypatch):
    # TLS completes but no SETTINGS ever follows: no attack agent stops
    # there, so a bare client TlsSession plays the silent peer.
    monkeypatch.setattr(h2server, "PREAMBLE_TIMEOUT_S", 1.0)
    sim = Simulator(seed=5)
    topo = StandardTopology(sim, TopologyConfig())
    server = Http2Server(sim, topo.server, build_isidewith_site(),
                         Http2ServerConfig(hardened=True))
    sessions = []
    TcpStack(sim, topo.client).connect(
        "server", 443,
        lambda conn: sessions.append(TlsSession(conn, role="client")))
    sim.run(until=4.0)
    [conn] = server.connections
    assert sessions[0].established
    assert server.timed_out_connections == 1
    assert conn.shed_reason == "preamble deadline expired"


def test_header_deadline_resets_dangling_request_streams(monkeypatch):
    monkeypatch.setattr(h2server, "HEADER_TIMEOUT_S", 1.0)
    spec = AttackSpec("slow_headers", duration_s=4.0, streams=6,
                      pace_s=0.02)
    _sim, server, _stack = _session(
        spec, Http2ServerConfig(hardened=True), until=8.0)
    [conn] = server.connections
    assert conn.timed_out_streams == 6
    assert conn._open_stream_count() == 0  # the table was drained


def test_deadline_reset_flushes_queued_data(monkeypatch):
    # HEADERS(END_STREAM=0) still spawns the response worker, so a
    # dangling request for a large object has DATA queued when its
    # header deadline fires.  The reset must flush that queue: no DATA
    # for the stream may follow its RST_STREAM onto the wire.
    monkeypatch.setattr(h2server, "HEADER_TIMEOUT_S", 0.05)
    sim = Simulator(seed=5)
    topo = StandardTopology(sim, TopologyConfig())
    suite = MonitorSuite(mode="collect")
    suite.attach(sim, topology=topo)
    server = Http2Server(sim, topo.server, build_isidewith_site(),
                         Http2ServerConfig(hardened=True))
    suite.attach_endpoint(server)
    queued_at_reset = []
    reset_stream = ServerConnection._reset_stream

    def spy(conn, stream_id, error_code):
        queued_at_reset.append(len(conn.stream_queues.get(stream_id, ())))
        reset_stream(conn, stream_id, error_code)

    monkeypatch.setattr(ServerConnection, "_reset_stream", spy)
    sent = []
    server.taps.append(lambda conn, direction, frame, dup:
                       sent.append(frame) if direction == "send" else None)
    spec = AttackSpec("slow_headers", duration_s=4.0, streams=1,
                      target_path="/js/vendor.bundle.js")
    make_agent(sim, TcpStack(sim, topo.client), spec).start()
    sim.run(until=4.0)

    assert len(queued_at_reset) == 1 and queued_at_reset[0] > 0
    [rst] = [i for i, f in enumerate(sent)
             if isinstance(f, fr.RstStreamFrame)]
    assert not [f for f in sent[rst:] if isinstance(f, fr.DataFrame)
                and f.stream_id == sent[rst].stream_id]
    assert suite.violations == []


@pytest.mark.parametrize("kind, shed_at", [
    (dos_eval.CONTROL_KIND, 4.144186574588988),
    ("slow_headers", 3.1093250289897836),
])
def test_queued_frame_cap_sheds_at_its_pinned_time(monkeypatch, kind,
                                                   shed_at):
    # The cap counts the frames still to be cut from each body run, so
    # it trips on the same enqueue as when every frame was built up front.
    monkeypatch.setattr(h2server, "MAX_QUEUED_FRAMES", 50)
    sheds = []
    shed = h2server._ConnectionHardening._shed

    def spy(hardening, reason):
        if not hardening.conn._aborted:
            sheds.append((hardening.conn.sim.now, hardening.conn))
        shed(hardening, reason)

    monkeypatch.setattr(h2server._ConnectionHardening, "_shed", spy)
    attack = (None if kind == dos_eval.CONTROL_KIND
              else dos_eval.attack_spec(kind, 1.0).to_jsonable())
    dos_eval.run_cell(0, kind, "hardened", 1.0, attack)
    assert [(now, conn.shed_reason) for now, conn in sheds] == [
        (shed_at, "63 response frames queued exceeds cap 50")]


def test_body_progress_deadline_beats_the_trickle(monkeypatch):
    # One byte per 2 s defeats a first-byte timeout but not a
    # progress deadline tighter than the trickle pace.
    monkeypatch.setattr(h2server, "BODY_PROGRESS_TIMEOUT_S", 0.5)
    spec = AttackSpec("slow_post", duration_s=6.0, streams=6, pace_s=2.0)
    _sim, server, _stack = _session(
        spec, Http2ServerConfig(hardened=True), until=10.0)
    [conn] = server.connections
    assert conn.timed_out_streams == 6


def test_max_open_streams_caps_below_the_stream_table(monkeypatch):
    monkeypatch.setattr(h2server, "MAX_OPEN_STREAMS", 8)
    spec = AttackSpec("slow_headers", duration_s=4.0, streams=40,
                      pace_s=0.02)
    _sim, server, _stack = _session(
        spec, Http2ServerConfig(hardened=True), until=8.0)
    [conn] = server.connections
    assert conn._open_stream_count() <= 8
    assert conn._hardening.capped_streams >= 30


# -- rate budgets -------------------------------------------------------------

@pytest.mark.parametrize("kind,knob", [
    ("ping_flood", "max_pings_per_s"),
    ("settings_flood", "max_settings_per_s"),
    ("stream_reset_churn", "max_resets_per_s"),
])
def test_control_frame_floods_are_shed(kind, knob, monkeypatch):
    monkeypatch.setattr(h2server, knob.upper(), 20.0)
    spec = AttackSpec(kind, duration_s=5.0, rate_per_s=60.0)
    _sim, server, _stack = _session(
        spec, Http2ServerConfig(hardened=True), until=8.0)
    assert server.shed_connections == 1
    [conn] = server.connections
    assert conn._aborted
    assert "exceeds budget" in conn.shed_reason


def test_rate_budget_admits_a_polite_peer(monkeypatch):
    monkeypatch.setattr(h2server, "MAX_PINGS_PER_S", 20.0)
    spec = AttackSpec("ping_flood", duration_s=5.0, rate_per_s=10.0)
    _sim, server, _stack = _session(
        spec, Http2ServerConfig(hardened=True), until=8.0)
    assert server.shed_connections == 0
    assert all(not c._aborted for c in server.connections)


# -- reap-slowest at the accept cap -------------------------------------------

def test_reap_slowest_established_idler_admits_a_newcomer():
    sim = Simulator(seed=5)
    topo = StandardTopology(sim, TopologyConfig())
    server = Http2Server(sim, topo.server, build_isidewith_site(),
                         Http2ServerConfig(max_connections=1, hardened=True))
    stack = TcpStack(sim, topo.client)
    # An established-then-silent occupant...
    agent = make_agent(sim, stack, AttackSpec("slow_headers",
                                              duration_s=2.0, streams=2,
                                              pace_s=0.02))
    agent.start()
    # ...and a newcomer dialing well past the 1 s idle floor.
    sim.schedule(5.0, stack.connect, "server", 443, lambda conn: None)
    sim.run(until=8.0)
    assert server.reaped_connections == 1
    victim = server.connections[0]
    assert victim._aborted and "reaped" in victim.shed_reason
    assert server.refused_connections == 0


def test_never_established_connections_are_not_reap_victims(monkeypatch):
    # Two silent dialers occupy both slots but never complete TLS: they
    # are on the handshake deadline's clock, not the reaper's.  That
    # deadline is pushed past the run, so both still hold their slot
    # when the newcomer dials.
    monkeypatch.setattr(h2server, "HANDSHAKE_TIMEOUT_S", 30.0)
    sim = Simulator(seed=5)
    topo = StandardTopology(sim, TopologyConfig())
    server = Http2Server(sim, topo.server, build_isidewith_site(),
                         Http2ServerConfig(max_connections=2, hardened=True))
    stack = TcpStack(sim, topo.client)
    agent = make_agent(sim, stack, AttackSpec("slow_preamble",
                                              duration_s=2.0,
                                              connections=2, pace_s=10.0))
    agent.start()
    sim.schedule(5.0, stack.connect, "server", 443, lambda conn: None)
    sim.run(until=8.0)
    assert server.reaped_connections == 0
    assert server.refused_connections == 1
