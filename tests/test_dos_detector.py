"""DosDetector: rule-by-rule classification and the passivity contract.

The detector subscribes to the server's existing taps and must (a) flag each
attack shape in the taxonomy, (b) stay silent on legitimate traffic --
including the slow-client shape naive timeouts misclassify -- and (c)
add zero simulator events when attached (byte-identity).
"""

import pytest

from repro.browser.browser import Browser, BrowserConfig
from repro.http2 import frames as fr
from repro.http2.client import Http2Client, Http2ClientConfig
from repro.http2.server import Http2Server, Http2ServerConfig
from repro.invariants import (
    DosDetector,
    DosDetectorConfig,
    DosViolation,
    MonitorSuite,
)
from repro.invariants.violations import DOMAIN_ERRORS
from repro.simnet.engine import Simulator
from repro.simnet.topology import StandardTopology, TopologyConfig
from repro.tcp.connection import TcpConfig
from repro.website.isidewith import build_isidewith_site


class _Clock:
    def __init__(self):
        self.now = 0.0


class _Tcp:
    pass


class _H2:
    class _Tls:
        def __init__(self, conn):
            self.conn = conn

    def __init__(self, conn):
        self.tls = self._Tls(conn)


def _pair():
    tcp = _Tcp()
    return tcp, _H2(tcp)


# -- config -------------------------------------------------------------------

def test_config_rejects_nonpositive_thresholds():
    for field in ("preamble_threshold_s", "dangling_min_streams",
                  "ping_rate_per_s", "sweep_every_events", "max_flags"):
        with pytest.raises(ValueError, match=field):
            DosDetectorConfig(**{field: 0}).validate()


def test_dos_domain_is_registered():
    assert DOMAIN_ERRORS["dos"] is DosViolation


# -- slow rules (sweep-driven) ------------------------------------------------

def test_slow_preamble_flagged_after_threshold():
    clock = _Clock()
    detector = DosDetector(clock, DosDetectorConfig(sweep_every_events=1))
    tcp, _h2 = _pair()
    detector.on_segment(tcp, "recv", None)
    clock.now = 3.0  # > 2.0s with no client SETTINGS
    detector.on_segment(tcp, "recv", None)
    assert detector.codes() == ["DOS_SLOW_PREAMBLE"]
    assert detector.flags[0].domain == "dos"
    assert abs(detector.first_flag_at - 3.0) < 1e-9


def test_completed_preamble_is_never_slow():
    clock = _Clock()
    detector = DosDetector(clock, DosDetectorConfig(sweep_every_events=1))
    _tcp, h2 = _pair()
    detector.on_frame(h2, "recv", fr.SettingsFrame(settings={1: 100}), False)
    clock.now = 50.0
    detector.finalize()
    assert not detector.detected


def test_dangling_headers_flagged_at_min_streams():
    clock = _Clock()
    config = DosDetectorConfig(sweep_every_events=1, dangling_min_streams=4)
    detector = DosDetector(clock, config)
    _tcp, h2 = _pair()
    detector.on_frame(h2, "recv", fr.SettingsFrame(settings={1: 1}), False)
    for stream_id in (1, 3, 5, 7):
        detector.on_frame(h2, "recv", fr.HeadersFrame(
            stream_id=stream_id, end_stream=False), False)
    clock.now = 3.0  # > dangling_threshold_s with zero body bytes
    detector.finalize()
    assert detector.codes() == ["DOS_SLOW_HEADERS"]


def test_trickling_bodies_flagged():
    clock = _Clock()
    config = DosDetectorConfig(sweep_every_events=10_000,
                               dangling_min_streams=2,
                               trickle_min_frames=2)
    detector = DosDetector(clock, config)
    _tcp, h2 = _pair()
    detector.on_frame(h2, "recv", fr.SettingsFrame(settings={1: 1}), False)
    for stream_id in (1, 3):
        detector.on_frame(h2, "recv", fr.HeadersFrame(
            stream_id=stream_id, end_stream=False), False)
        for _ in range(3):
            clock.now += 1.0
            detector.on_frame(h2, "recv", fr.DataFrame(
                stream_id=stream_id, length=1), False)
    detector.finalize()
    assert detector.codes() == ["DOS_SLOW_POST"]


def test_bulk_upload_is_not_a_trickle():
    clock = _Clock()
    config = DosDetectorConfig(sweep_every_events=10_000,
                               dangling_min_streams=1)
    detector = DosDetector(clock, config)
    _tcp, h2 = _pair()
    detector.on_frame(h2, "recv", fr.SettingsFrame(settings={1: 1}), False)
    detector.on_frame(h2, "recv", fr.HeadersFrame(
        stream_id=1, end_stream=False), False)
    for _ in range(8):  # real POST body: full-size frames
        clock.now += 0.01
        detector.on_frame(h2, "recv", fr.DataFrame(
            stream_id=1, length=1370), False)
    detector.finalize()
    assert not detector.detected


def test_completed_request_stops_dangling():
    clock = _Clock()
    config = DosDetectorConfig(sweep_every_events=10_000,
                               dangling_min_streams=1)
    detector = DosDetector(clock, config)
    _tcp, h2 = _pair()
    detector.on_frame(h2, "recv", fr.SettingsFrame(settings={1: 1}), False)
    detector.on_frame(h2, "recv", fr.HeadersFrame(
        stream_id=1, end_stream=False), False)
    detector.on_frame(h2, "recv", fr.DataFrame(
        stream_id=1, length=900, end_stream=True), False)
    clock.now = 60.0
    detector.finalize()
    assert not detector.detected


# -- rate rules (inline) ------------------------------------------------------

@pytest.mark.parametrize("frame,code", [
    (fr.PingFrame(), "DOS_PING_FLOOD"),
    (fr.SettingsFrame(settings={1: 1}), "DOS_SETTINGS_FLOOD"),
    (fr.RstStreamFrame(stream_id=1), "DOS_RESET_CHURN"),
])
def test_control_frame_floods_flagged_inline(frame, code):
    clock = _Clock()
    config = DosDetectorConfig(ping_rate_per_s=5.0, settings_rate_per_s=5.0,
                               reset_rate_per_s=5.0,
                               sweep_every_events=10_000)
    detector = DosDetector(clock, config)
    _tcp, h2 = _pair()
    for _ in range(7):  # 7 within one second > budget 5/s
        clock.now += 0.01
        detector.on_frame(h2, "recv", frame, False)
    assert code in detector.codes()


def test_slow_control_frames_stay_within_budget():
    clock = _Clock()
    config = DosDetectorConfig(ping_rate_per_s=5.0,
                               sweep_every_events=10_000)
    detector = DosDetector(clock, config)
    _tcp, h2 = _pair()
    detector.on_frame(h2, "recv", fr.SettingsFrame(settings={1: 1}), False)
    for _ in range(20):  # 2/s: the window resets before the budget trips
        clock.now += 0.5
        detector.on_frame(h2, "recv", fr.PingFrame(), False)
    detector.finalize()
    assert not detector.detected


def test_acks_and_sent_frames_are_not_counted():
    clock = _Clock()
    config = DosDetectorConfig(ping_rate_per_s=2.0,
                               sweep_every_events=10_000)
    detector = DosDetector(clock, config)
    _tcp, h2 = _pair()
    detector.on_frame(h2, "recv", fr.SettingsFrame(settings={1: 1}), False)
    for _ in range(20):
        clock.now += 0.01
        detector.on_frame(h2, "recv", fr.PingFrame(ack=True), False)
        detector.on_frame(h2, "send", fr.PingFrame(), False)
        detector.on_frame(h2, "recv", fr.PingFrame(), True)  # duplicate
    detector.finalize()
    assert not detector.detected


# -- emission bounds ----------------------------------------------------------

def test_one_flag_per_connection_and_code():
    clock = _Clock()
    detector = DosDetector(clock, DosDetectorConfig(ping_rate_per_s=2.0,
                                                    sweep_every_events=10_000))
    _tcp, h2 = _pair()
    for _ in range(50):
        clock.now += 0.001
        detector.on_frame(h2, "recv", fr.PingFrame(), False)
    assert len(detector.flags) == 1


def test_max_flags_bounds_emissions():
    clock = _Clock()
    detector = DosDetector(clock, DosDetectorConfig(ping_rate_per_s=1.0,
                                                    sweep_every_events=10_000,
                                                    max_flags=3))
    for _ in range(10):
        _tcp, h2 = _pair()
        for _ in range(5):
            clock.now += 0.001
            detector.on_frame(h2, "recv", fr.PingFrame(), False)
    assert len(detector.flags) == 3


# -- passivity: attached detector changes nothing -----------------------------

def _legit_load(seed: int, with_detector: bool, with_monitors: bool = False):
    sim = Simulator(seed=seed)
    suite = MonitorSuite(mode="collect") if with_monitors else None
    topo = StandardTopology(sim, TopologyConfig())
    if suite is not None:
        suite.attach(sim, topology=topo)
    site = build_isidewith_site()
    server = Http2Server(sim, topo.server, site, Http2ServerConfig(),
                         tcp_config=TcpConfig(deliver_duplicates=True))
    if suite is not None:
        suite.attach_server(server)
    detector = DosDetector(sim) if with_detector else None
    if detector is not None:
        detector.attach(server)
    client = Http2Client(sim, topo.client, server_addr="server", port=443,
                         config=Http2ClientConfig(authority=site.authority),
                         tcp_config=TcpConfig(deliver_duplicates=False))
    if suite is not None:
        suite.attach_client(client)
    browser = Browser(sim, client, site.plan_load(sim.rng("plan"),
                                                  warm=False),
                      BrowserConfig())
    browser.start()
    sim.run(until=40.0)
    assert browser.result is not None
    return sim.processed_events, detector, suite


def test_attached_detector_is_byte_identical_and_silent():
    bare_events, _, _ = _legit_load(11, with_detector=False)
    probed_events, detector, _ = _legit_load(11, with_detector=True)
    assert probed_events == bare_events
    assert detector.events > 0  # it really observed the whole load
    assert not detector.detected  # and judged it legitimate


def test_detector_and_monitors_compose_on_one_server():
    """Arming the invariant monitors and then the detector on the same
    server keeps both observers whole: the detector sees exactly what
    it sees alone, and every server-side law is still watched."""
    bare_events, _, _ = _legit_load(3, with_detector=False)
    _, solo, _ = _legit_load(3, with_detector=True)
    events, detector, suite = _legit_load(3, with_detector=True,
                                          with_monitors=True)
    assert events == bare_events
    assert detector.events == solo.events
    labels = {watch.label for watch in
              list(suite._tcp.values()) + list(suite._h2.values())}
    assert {"tcp server#0", "h2 server#0"} <= labels
    assert suite.finalize() == []


def test_late_tap_sees_an_accepted_connections_later_frames():
    """A tap appended to the server after a connection was accepted
    observes that connection's later frames: connections share the
    server's tap list rather than copying it at accept."""
    sim = Simulator(seed=5)
    topo = StandardTopology(sim, TopologyConfig())
    site = build_isidewith_site()
    server = Http2Server(sim, topo.server, site, Http2ServerConfig(),
                         tcp_config=TcpConfig(deliver_duplicates=True))
    client = Http2Client(sim, topo.client, server_addr="server", port=443,
                         config=Http2ClientConfig(authority=site.authority),
                         tcp_config=TcpConfig(deliver_duplicates=False))
    browser = Browser(sim, client, site.plan_load(sim.rng("plan"),
                                                  warm=False),
                      BrowserConfig())
    browser.start()
    for _ in range(100_000):
        if server.connections:
            break
        sim.run(max_events=1)
    accepted = server.connections[0]
    seen = []
    server.taps.append(
        lambda conn, direction, frame, dup: seen.append((conn, direction)))
    sim.run(until=40.0)
    assert browser.result is not None
    assert any(conn is accepted and direction == "recv"
               for conn, direction in seen)
    assert any(conn is accepted and direction == "send"
               for conn, direction in seen)
