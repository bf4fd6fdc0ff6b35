"""DosDetector: rule-by-rule classification and the passivity contract.

The detector subscribes to the server's existing taps and must (a) flag each
attack shape in the taxonomy, (b) stay silent on legitimate traffic --
including the slow-client shape naive timeouts misclassify -- and (c)
add zero simulator events when attached (byte-identity).  A seeded mixed
probe stream pins the detector's per-event work exactly.
"""

import hashlib
import json
import random

import pytest

from repro.attacks import make_agent
from repro.browser.browser import Browser, BrowserConfig
from repro.experiments.dos_eval import attack_spec
from repro.http2 import frames as fr
from repro.http2.client import Http2Client, Http2ClientConfig
from repro.http2 import server as h2server
from repro.http2.server import Http2Server, Http2ServerConfig
from repro.invariants import DosDetector, MonitorSuite
from repro.invariants import dos_detector
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


def _thresholds(monkeypatch, **values):
    """Set detector threshold constants (lower-case names) for one test."""
    for name, value in values.items():
        monkeypatch.setattr(dos_detector, name.upper(), value)


# -- the threshold ladder (docs/DOS.md) --------------------------------------

@pytest.mark.parametrize("threshold,budgets", [
    ("PREAMBLE_THRESHOLD_S", ("HANDSHAKE_TIMEOUT_S", "PREAMBLE_TIMEOUT_S")),
    ("DANGLING_THRESHOLD_S", ("HEADER_TIMEOUT_S",)),
    ("DANGLING_MIN_STREAMS", ("MAX_OPEN_STREAMS",)),
    ("PING_RATE_PER_S", ("MAX_PINGS_PER_S",)),
    ("SETTINGS_RATE_PER_S", ("MAX_SETTINGS_PER_S",)),
    ("RESET_RATE_PER_S", ("MAX_RESETS_PER_S",)),
])
def test_detector_thresholds_sit_below_the_hardened_budgets(threshold,
                                                           budgets):
    """Detect, then shield: the taps stop seeing a connection once the
    hardened server sheds it, so every detector threshold must trip
    before the budget it shadows."""
    for budget in budgets:
        assert getattr(dos_detector, threshold) < getattr(h2server, budget)


# -- slow rules (sweep-driven) ------------------------------------------------

def test_slow_preamble_flagged_after_threshold(monkeypatch):
    _thresholds(monkeypatch, sweep_every_events=1)
    clock = _Clock()
    detector = DosDetector(clock)
    tcp, _h2 = _pair()
    detector.on_segment(tcp, "recv", None)
    clock.now = 3.0  # > 2.0s with no client SETTINGS
    detector.on_segment(tcp, "recv", None)
    assert detector.codes() == ["DOS_SLOW_PREAMBLE"]
    assert detector.flags[0].domain == "dos"
    assert abs(detector.first_flag_at - 3.0) < 1e-9


def test_completed_preamble_is_never_slow(monkeypatch):
    _thresholds(monkeypatch, sweep_every_events=1)
    clock = _Clock()
    detector = DosDetector(clock)
    _tcp, h2 = _pair()
    detector.on_frame(h2, "recv", fr.SettingsFrame(settings={1: 100}), False)
    clock.now = 50.0
    detector.finalize()
    assert not detector.detected


def test_dangling_headers_flagged_at_min_streams(monkeypatch):
    _thresholds(monkeypatch, sweep_every_events=1, dangling_min_streams=4)
    clock = _Clock()
    detector = DosDetector(clock)
    _tcp, h2 = _pair()
    detector.on_frame(h2, "recv", fr.SettingsFrame(settings={1: 1}), False)
    for stream_id in (1, 3, 5, 7):
        detector.on_frame(h2, "recv", fr.HeadersFrame(
            stream_id=stream_id, end_stream=False), False)
    clock.now = 3.0  # > DANGLING_THRESHOLD_S with zero body bytes
    detector.finalize()
    assert detector.codes() == ["DOS_SLOW_HEADERS"]


def test_trickling_bodies_flagged(monkeypatch):
    _thresholds(monkeypatch, sweep_every_events=10_000,
                dangling_min_streams=2, trickle_min_frames=2)
    clock = _Clock()
    detector = DosDetector(clock)
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


def test_bulk_upload_is_not_a_trickle(monkeypatch):
    _thresholds(monkeypatch, sweep_every_events=10_000,
                dangling_min_streams=1)
    clock = _Clock()
    detector = DosDetector(clock)
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


def test_completed_request_stops_dangling(monkeypatch):
    _thresholds(monkeypatch, sweep_every_events=10_000,
                dangling_min_streams=1)
    clock = _Clock()
    detector = DosDetector(clock)
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
def test_control_frame_floods_flagged_inline(frame, code, monkeypatch):
    _thresholds(monkeypatch, ping_rate_per_s=5.0, settings_rate_per_s=5.0,
                reset_rate_per_s=5.0, sweep_every_events=10_000)
    clock = _Clock()
    detector = DosDetector(clock)
    _tcp, h2 = _pair()
    for _ in range(7):  # 7 within one second > budget 5/s
        clock.now += 0.01
        detector.on_frame(h2, "recv", frame, False)
    assert code in detector.codes()


def test_slow_control_frames_stay_within_budget(monkeypatch):
    _thresholds(monkeypatch, ping_rate_per_s=5.0, sweep_every_events=10_000)
    clock = _Clock()
    detector = DosDetector(clock)
    _tcp, h2 = _pair()
    detector.on_frame(h2, "recv", fr.SettingsFrame(settings={1: 1}), False)
    for _ in range(20):  # 2/s: the window resets before the budget trips
        clock.now += 0.5
        detector.on_frame(h2, "recv", fr.PingFrame(), False)
    detector.finalize()
    assert not detector.detected


def test_acks_and_sent_frames_are_not_counted(monkeypatch):
    _thresholds(monkeypatch, ping_rate_per_s=2.0, sweep_every_events=10_000)
    clock = _Clock()
    detector = DosDetector(clock)
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

def test_one_flag_per_connection_and_code(monkeypatch):
    _thresholds(monkeypatch, ping_rate_per_s=2.0, sweep_every_events=10_000)
    clock = _Clock()
    detector = DosDetector(clock)
    _tcp, h2 = _pair()
    for _ in range(50):
        clock.now += 0.001
        detector.on_frame(h2, "recv", fr.PingFrame(), False)
    assert len(detector.flags) == 1


def test_max_flags_bounds_emissions(monkeypatch):
    _thresholds(monkeypatch, ping_rate_per_s=1.0, sweep_every_events=10_000,
                max_flags=3)
    clock = _Clock()
    detector = DosDetector(clock)
    for _ in range(10):
        _tcp, h2 = _pair()
        for _ in range(5):
            clock.now += 0.001
            detector.on_frame(h2, "recv", fr.PingFrame(), False)
    assert len(detector.flags) == 3


# -- pinned probe stream --------------------------------------------------------

def _mixed_probe_stream(n_events: int) -> DosDetector:
    """Feed a detector a seeded probe stream shaped like a mixed
    attack/legitimate server: a few connections stay preamble-silent,
    others dangle request streams, trickle bodies and flood control
    frames, so every rule -- inline rates and periodic sweeps -- runs."""
    rng = random.Random(20260810)
    clock = _Clock()
    detector = DosDetector(clock)
    conns = [_pair() for _ in range(32)]
    greeted = [False] * len(conns)
    next_stream = [1] * len(conns)
    open_streams = [[] for _ in conns]

    for _ in range(n_events):
        clock.now += 0.0004
        index = rng.randrange(len(conns))
        tcp, h2 = conns[index]
        if index < 4:
            # Preamble-silent connections: TCP activity, no frames.
            detector.on_segment(tcp, "recv", None)
            continue
        if not greeted[index]:
            greeted[index] = True
            detector.on_frame(h2, "recv", fr.SettingsFrame(
                settings={1: 4096}), False)
            continue
        roll = rng.random()
        if roll < 0.15:
            detector.on_segment(tcp, "recv", None)
        elif roll < 0.35:
            stream_id = next_stream[index]
            next_stream[index] += 2
            open_streams[index].append(stream_id)
            detector.on_frame(h2, "recv", fr.HeadersFrame(
                stream_id=stream_id, end_stream=rng.random() < 0.5), False)
        elif roll < 0.60 and open_streams[index]:
            stream_id = rng.choice(open_streams[index])
            detector.on_frame(h2, "recv", fr.DataFrame(
                stream_id=stream_id, length=rng.choice((1, 1, 40, 1200)),
                end_stream=rng.random() < 0.1), False)
        elif roll < 0.75:
            detector.on_frame(h2, "recv", fr.PingFrame(), False)
        elif roll < 0.85:
            detector.on_frame(h2, "recv", fr.SettingsFrame(
                settings={4: 65_535}), False)
        elif open_streams[index]:
            stream_id = open_streams[index].pop(0)
            detector.on_frame(h2, "recv", fr.RstStreamFrame(
                stream_id=stream_id), False)
        else:
            detector.on_frame(h2, "recv", fr.PingFrame(ack=True), False)
    detector.finalize(clock.now)
    return detector


def test_mixed_probe_stream_work_and_flags_pinned():
    """The detector's event count and flag list over a fixed stream are
    exact: any change is a semantic change to the hot probe path every
    hardened run pays, and has to be re-pinned deliberately."""
    detector = _mixed_probe_stream(60_000)
    flags = json.dumps([flag.to_jsonable() for flag in detector.flags],
                       sort_keys=True)
    assert detector.events + len(detector.flags) == 60_078
    assert hashlib.sha256(flags.encode()).hexdigest()[:16] \
        == "cbbea1dae71390a2"


# -- passivity: attached detector changes nothing -----------------------------

def _legit_load(seed: int, with_detector: bool, with_monitors: bool = False,
                attack=None):
    """One legitimate page load; with ``attack`` (a kind), the attack
    agent rides the client's TCP stack as in ``dos_eval.run_cell`` and
    the browser starts 1 s into it.  Returns the processed event count,
    the server's connection count, the detector and the monitor suite."""
    sim = Simulator(seed=seed)
    suite = MonitorSuite(mode="collect") if with_monitors else None
    topo = StandardTopology(sim, TopologyConfig())
    if suite is not None:
        suite.attach(sim, topology=topo)
    site = build_isidewith_site()
    server = Http2Server(sim, topo.server, site, Http2ServerConfig(),
                         tcp_config=TcpConfig(deliver_duplicates=True))
    if suite is not None:
        suite.attach_endpoint(server)
    detector = DosDetector(sim) if with_detector else None
    if detector is not None:
        detector.attach(server)
    client = Http2Client(sim, topo.client,
                         config=Http2ClientConfig(authority=site.authority),
                         tcp_config=TcpConfig(deliver_duplicates=False))
    if suite is not None:
        suite.attach_endpoint(client)
    browser = Browser(sim, client, site.plan_load(sim.rng("plan"),
                                                  warm=False),
                      BrowserConfig())
    if attack is None:
        browser.start()
        sim.run(until=40.0)
        assert browser.result is not None
    else:
        make_agent(sim, client.tcp, attack_spec(attack, 1.0)).start()
        sim.schedule(1.0, browser.start)
        sim.run(until=30.0)
    return sim.processed_events, len(server.connections), detector, suite


def test_attached_detector_is_byte_identical_and_silent():
    bare_events, _, _, _ = _legit_load(11, with_detector=False)
    probed_events, _, detector, _ = _legit_load(11, with_detector=True)
    assert probed_events == bare_events
    assert detector.events > 0  # it really observed the whole load
    assert not detector.detected  # and judged it legitimate


@pytest.mark.parametrize("attack", ["slow_headers", "ping_flood"])
def test_flagging_detector_is_byte_identical(attack):
    """Passivity where it matters: the detector flags the attack during
    the run, and the armed run still executes exactly the events, and
    accepts exactly the connections, of the run without it."""
    bare_events, bare_conns, _, _ = _legit_load(11, with_detector=False,
                                                attack=attack)
    events, conns, detector, _ = _legit_load(11, with_detector=True,
                                             attack=attack)
    assert detector.codes()
    assert (events, conns) == (bare_events, bare_conns)


def test_detector_and_monitors_compose_on_one_server():
    """Arming the invariant monitors and then the detector on the same
    server keeps both observers whole: the detector sees exactly what
    it sees alone, and every server-side law is still watched."""
    bare_events, _, _, _ = _legit_load(3, with_detector=False)
    _, _, solo, _ = _legit_load(3, with_detector=True)
    events, _, detector, suite = _legit_load(3, with_detector=True,
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
    client = Http2Client(sim, topo.client,
                         config=Http2ClientConfig(authority=site.authority),
                         tcp_config=TcpConfig(deliver_duplicates=False))
    browser = Browser(sim, client, site.plan_load(sim.rng("plan"),
                                                  warm=False),
                      BrowserConfig())
    browser.start()
    for step in range(1, 40_000):  # 1 ms steps up to the first accept
        if server.connections:
            break
        sim.run(until=step * 0.001)
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
