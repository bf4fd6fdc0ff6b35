"""HTTP/2 server + client integration over the standard topology."""

from collections import deque
from dataclasses import replace

import pytest

from repro.experiments import chaos, dos_eval, figure5, table2
from repro.http2 import frames as fr
from repro.http2.client import Http2Client, Http2ClientConfig
from repro.http2.server import (
    MAX_FRAME_PAYLOAD,
    Http2Server,
    Http2ServerConfig,
    ServerConnection,
    _DataRun,
)
from repro.http2.settings import Http2Settings
from repro.invariants import generate_spec
from repro.simnet.engine import Simulator
from repro.simnet.topology import StandardTopology
from repro.tcp.connection import TcpConfig
from repro.website.objects import WebObject
from repro.website.sitemap import Site


def make_site(objects=None):
    site = Site(name="test", authority="test.example")
    for path, size in (objects or {"/a": 30_000, "/b": 20_000,
                                   "/small": 900}).items():
        site.add(WebObject(path=path, size=size, cacheable=False))
    return site


class H2Rig:
    def __init__(self, seed=0, server_config=None, site=None,
                 client_settings=None):
        self.sim = Simulator(seed=seed)
        self.topo = StandardTopology(self.sim)
        self.site = site or make_site()
        self.server = Http2Server(self.sim, self.topo.server, self.site,
                                  server_config or Http2ServerConfig(),
                                  tcp_config=TcpConfig(deliver_duplicates=True))
        client_config = Http2ClientConfig(authority=self.site.authority)
        if client_settings is not None:
            client_config.settings = client_settings
        self.client = Http2Client(self.sim, self.topo.client,
                                  config=client_config)
        self.ready = False
        self.client.connect(self._on_ready)

    def _on_ready(self):
        self.ready = True

    def run(self, duration=1.0):
        self.sim.run(until=self.sim.now + duration)

    def goaway(self):
        """Graceful server close (RFC 7540 section 6.8): GOAWAY naming the
        last client stream, and refuse new streams while the ones in
        flight finish."""
        conn = self.server.connections[0]
        conn._shutting_down = True
        last = max((sid for sid in conn.streams if sid % 2 == 1), default=0)
        conn.send_frame(fr.GoAwayFrame(last_stream_id=last, error_code=0))


def test_connection_reaches_ready():
    rig = H2Rig()
    rig.run(1.0)
    assert rig.ready
    assert rig.client.connection.ready


def test_get_roundtrip_delivers_full_object():
    rig = H2Rig()
    rig.run(1.0)
    done = []
    stream = rig.client.request("/a", on_complete=done.append)
    rig.run(3.0)
    assert done and done[0] is stream
    assert stream.bytes_received == 30_000
    assert stream.status == "200"
    assert stream.content_length == 30_000


def test_unknown_path_gets_404():
    rig = H2Rig()
    rig.run(1.0)
    done = []
    stream = rig.client.request("/missing", on_complete=done.append)
    rig.run(2.0)
    assert done
    assert stream.status == "404"
    assert stream.bytes_received == 0


def test_concurrent_requests_interleave_on_the_wire():
    rig = H2Rig()
    rig.run(1.0)
    rig.client.request("/a")
    rig.client.request("/b")
    rig.run(3.0)
    entries = [e for e in rig.server.combined_tx_log() if e.is_data]
    paths_in_order = [e.object_path for e in entries]
    # Round-robin: /b frames appear before /a finished.
    first_b = paths_in_order.index("/b")
    last_a = len(paths_in_order) - 1 - paths_in_order[::-1].index("/a")
    assert first_b < last_a


def test_fifo_scheduler_serializes():
    rig = H2Rig(server_config=Http2ServerConfig(scheduler="fifo"))
    rig.run(1.0)
    rig.client.request("/a")
    rig.client.request("/b")
    rig.run(3.0)
    entries = [e for e in rig.server.combined_tx_log() if e.is_data]
    paths = [e.object_path for e in entries]
    # No interleaving: each object is one contiguous run on the wire
    # (worker spawn order decides which run comes first).
    runs = [paths[0]]
    for path in paths[1:]:
        if path != runs[-1]:
            runs.append(path)
    assert len(runs) == 2 and set(runs) == {"/a", "/b"}


def test_rst_stream_stops_delivery():
    rig = H2Rig(site=make_site({"/big": 400_000}))
    rig.run(1.0)
    stream = rig.client.request("/big")
    rig.run(0.08)
    rig.client.reset_stream(stream)
    rig.run(2.0)
    assert stream.reset
    assert stream.bytes_received < 400_000
    server_conn = rig.server.connections[0]
    assert not server_conn.stream_queues.get(stream.stream_id)


def eager_frames(start, stop, end, serve_id=0, dup=False):
    """The DATA frames of a body run as the server once built them all
    at serve time: ``(length, object_offset, end_stream, serve_id,
    dup)``, split from the run's start."""
    frames = []
    offset = start
    while offset < stop:
        length = min(MAX_FRAME_PAYLOAD, stop - offset)
        offset += length
        frames.append((length, offset - length, offset >= end, serve_id,
                       dup))
    return frames


def test_reset_mid_object_sends_a_prefix_of_the_eager_frames():
    rig = H2Rig(site=make_site({"/big": 400_000}))
    rig.run(1.0)
    events = []
    rig.server.taps.append(lambda conn, direction, frame, dup:
                           events.append((direction, frame)))
    stream = rig.client.request("/big")
    rig.run(0.08)
    rig.client.reset_stream(stream)
    rig.run(2.0)
    sid = stream.stream_id
    # The tap sees a received frame after its handler ran.
    [rst] = [i for i, (direction, frame) in enumerate(events)
             if direction == "recv" and isinstance(frame, fr.RstStreamFrame)]

    def data(entries):
        return [(f.length, f.object_offset, f.end_stream, f.serve_id, False)
                for direction, f in entries if direction == "send"
                and isinstance(f, fr.DataFrame) and f.stream_id == sid]

    sent = data(events[:rst])
    eager = eager_frames(0, 400_000, 400_000, serve_id=sent[0][3])
    assert 0 < len(sent) < len(eager) // 2
    assert sent == eager[:len(sent)]
    assert data(events[rst:]) == []
    assert rig.server.connections[0].queued_frames == 0


def test_reset_before_serve_suppresses_response():
    rig = H2Rig()
    rig.run(1.0)
    stream = rig.client.request("/a")
    rig.client.reset_stream(stream)
    rig.run(2.0)
    served = [e for e in rig.server.combined_tx_log()
              if e.is_data and e.stream_id == stream.stream_id]
    assert len(served) <= 1  # at most a frame raced the reset


def test_flow_control_windows_respected():
    settings = Http2Settings(initial_window_size=8_192)
    rig = H2Rig(site=make_site({"/big": 600_000}), client_settings=settings)
    rig.run(1.0)
    stream = rig.client.request("/big")
    rig.run(10.0)
    # Auto window updates keep it flowing to completion anyway.
    assert stream.complete
    assert stream.bytes_received == 600_000


def test_server_tracks_requests_received():
    rig = H2Rig()
    rig.run(1.0)
    rig.client.request("/a")
    rig.client.request("/b")
    rig.run(2.0)
    assert rig.server.connections[0].requests_received == 2


def test_padding_hook_inflates_wire_bytes():
    config = Http2ServerConfig()
    config.pad_object = lambda size, rng: size + 5_000
    rig = H2Rig(server_config=config)
    rig.run(1.0)
    stream = rig.client.request("/a")
    rig.run(3.0)
    assert stream.bytes_received == 35_000


def test_server_push_delivers_unrequested_object():
    config = Http2ServerConfig()
    config.push_map = {"/a": ["/b"]}
    rig = H2Rig(server_config=config,
                client_settings=Http2Settings(enable_push=True))
    rig.run(1.0)
    pushed = []
    rig.client.on_push = pushed.append
    rig.client.request("/a")
    rig.run(3.0)
    assert pushed and pushed[0].path == "/b"
    assert pushed[0].pushed
    assert pushed[0].complete
    assert pushed[0].bytes_received == 20_000


def test_push_disabled_without_client_opt_in():
    config = Http2ServerConfig()
    config.push_map = {"/a": ["/b"]}
    rig = H2Rig(server_config=config)  # default settings: push off
    rig.run(1.0)
    pushed = []
    rig.client.on_push = pushed.append
    rig.client.request("/a")
    rig.run(3.0)
    assert not pushed


def test_ping_is_echoed():
    from repro.http2 import frames as fr
    rig = H2Rig()
    rig.run(1.0)
    before = rig.client.connection.frames_received
    rig.client.connection.send_frame(fr.PingFrame())
    rig.run(1.0)
    assert rig.client.connection.frames_received > before


def test_tx_log_offsets_monotonic():
    rig = H2Rig()
    rig.run(1.0)
    rig.client.request("/a")
    rig.client.request("/b")
    rig.run(3.0)
    offsets = [e.tcp_offset for e in rig.server.combined_tx_log()]
    assert offsets == sorted(offsets)


# -- the mux's bookkeeping ----------------------------------------------------

def test_round_robin_pick_tests_a_bounded_number_of_streams(monkeypatch):
    """A pick tests the streams up to the next eligible one, not every
    queued stream: 64 eligible queues cost about one test per frame."""
    calls = []
    sendable = ServerConnection._sendable

    def counted(conn, sid):
        calls.append(sid)
        return sendable(conn, sid)

    monkeypatch.setattr(ServerConnection, "_sendable", counted)
    rig = H2Rig(site=make_site({"/obj": 30_000}))
    rig.run(1.0)
    rig.server.stall()
    streams = [rig.client.request("/obj") for _ in range(64)]
    rig.run(0.5)
    [conn] = rig.server.connections
    assert len(conn.stream_queues) == 64
    calls.clear()
    rig.server.resume()
    rig.run(10.0)
    frames = len(conn.tx_log)
    assert all(stream.complete for stream in streams)
    assert frames >= 64 * 22
    assert len(calls) <= 2 * frames


@pytest.fixture
def checked_pump(monkeypatch):
    """Check after every pump that the ready list is the sorted set of
    queued stream ids."""
    pumps = []
    pump = ServerConnection.pump

    def checked(conn):
        pump(conn)
        assert conn._queued_sids == sorted(conn.stream_queues)
        pumps.append(len(conn._queued_sids))

    monkeypatch.setattr(ServerConnection, "pump", checked)
    return pumps


def test_ready_list_tracks_queues_at_1mbps(checked_pump):
    figure5.run_cell(0, 0.05, 1e6)
    assert max(checked_pump) > 1


def test_ready_list_tracks_queues_under_attack(checked_pump):
    table2.run_cell(0)
    assert max(checked_pump) > 1


@pytest.mark.parametrize("scheduler", ["fifo", "weighted"])
def test_ready_list_tracks_queues_in_chaos(checked_pump, scheduler):
    for index in range(3):
        spec = replace(generate_spec(0, index), scheduler=scheduler)
        assert chaos.run_cell(index, spec.to_jsonable())["ok"]
    assert max(checked_pump) > 1


@pytest.fixture
def eager_shadow(monkeypatch):
    """Shadow every stream queue with the frames the server once built
    at serve time.  Each transmitted frame must be the shadow's head,
    and after every pump the queued-frame count must equal the frames
    the shadow still holds."""
    shadows = {}
    counts = []
    enqueue = ServerConnection._enqueue
    drop_queue = ServerConnection._drop_queue
    transmit = ServerConnection._transmit
    pump = ServerConnection.pump

    def shadowed_enqueue(conn, sid, entry):
        shadow = shadows.setdefault(conn, {}).setdefault(sid, deque())
        if isinstance(entry, _DataRun):
            shadow.extend((entry.obj, frame) for frame in eager_frames(
                entry.offset, entry.stop, entry.end, entry.serve_id,
                entry.dup))
        else:
            shadow.append(entry)
        enqueue(conn, sid, entry)

    def shadowed_drop_queue(conn, sid):
        # An emptied queue is dropped before its last frame goes out;
        # only a reset drops frames unsent.
        if conn.stream_queues.get(sid):
            del shadows[conn][sid]
        return drop_queue(conn, sid)

    def shadowed_transmit(conn, sid, frame, dup=False):
        head = shadows[conn][sid].popleft()
        if isinstance(frame, fr.DataFrame):
            assert frame.stream_id == sid
            assert (frame.object_ref, (frame.length, frame.object_offset,
                                       frame.end_stream, frame.serve_id,
                                       dup)) == head
        else:
            assert (frame, dup) == head
        transmit(conn, sid, frame, dup)

    def checked_pump(conn):
        pump(conn)
        left = sum(map(len, shadows.get(conn, {}).values()))
        assert conn.queued_frames == left
        counts.append(left)

    monkeypatch.setattr(ServerConnection, "_enqueue", shadowed_enqueue)
    monkeypatch.setattr(ServerConnection, "_drop_queue", shadowed_drop_queue)
    monkeypatch.setattr(ServerConnection, "_transmit", shadowed_transmit)
    monkeypatch.setattr(ServerConnection, "pump", checked_pump)
    return counts


def test_queued_frame_count_at_1mbps(eager_shadow):
    figure5.run_cell(0, 0.05, 1e6)
    assert max(eager_shadow) > 100


def test_queued_frame_count_on_a_hardened_server(eager_shadow):
    dos_eval.run_cell(0, "slow_headers", "hardened", 1.0,
                      dos_eval.attack_spec("slow_headers", 1.0).to_jsonable())
    assert max(eager_shadow) > 100
