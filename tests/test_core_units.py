"""Core adversary component unit tests: wire predicates, observer,
controller, estimator, predictor, metrics."""

import pytest

from repro.core import estimator as estimator_module
from repro.core import observer
from repro.core import predictor as predictor_module
from repro.core.controller import NetworkController
from repro.core.estimator import ObjectEstimate, SizeEstimator
from repro.core.metrics import ServeSpanIndex, serve_spans
from repro.core.observer import TrafficMonitor
from repro.core.predictor import ObjectPredictor, SizeIdentityMap
from repro.core.wire import (
    REQUEST_RECORD_MIN_WIRE,
    carries_request,
    carries_request_any,
)
from repro.http2.server import TxEntry
from repro.simnet.engine import Simulator
from repro.simnet.middlebox import CLIENT_TO_SERVER, SERVER_TO_CLIENT
from repro.simnet.packet import RecordInfo, TcpWireView, WireView
from repro.simnet.trace import CompletedRecord


def view(records=(), retx=False, payload=100):
    return WireView(pid=1, src="client", dst="server", size=54 + payload,
                    tcp=TcpWireView(src_port=1, dst_port=443, seq=0, ack=0,
                                    payload_len=payload),
                    records=tuple(records), is_retransmit=retx)


def record_info(wire_len=120, content_type=23, start=True, end=True):
    return RecordInfo(record_id=1, content_type=content_type,
                      record_wire_len=wire_len, bytes_in_packet=wire_len,
                      is_start=start, is_end=end)


# -- wire predicates ----------------------------------------------------------

def test_request_detection_by_size():
    assert carries_request(view([record_info(wire_len=90)]))
    assert not carries_request(view([record_info(wire_len=34)]))


def test_request_detection_excludes_retransmits():
    v = view([record_info(wire_len=90)], retx=True)
    assert not carries_request(v)
    assert carries_request_any(v)


def test_request_detection_requires_record_start():
    v = view([record_info(wire_len=2000, start=False, end=True)])
    assert not carries_request(v)


def test_request_detection_ignores_handshake():
    v = view([record_info(wire_len=500, content_type=22)])
    assert not carries_request(v)


# -- observer -------------------------------------------------------------------

@pytest.fixture
def no_preface(monkeypatch):
    """A monitor that counts every request-sized record as a GET."""
    monkeypatch.setattr(observer, "PREAMBLE_RECORDS", 0)


def test_monitor_counts_requests_and_skips_preface():
    sim = Simulator()
    monitor = TrafficMonitor(sim)
    for _ in range(3):
        monitor(sim.now, CLIENT_TO_SERVER, view([record_info(90)]), False)
    assert monitor.request_count == 2  # first was the preface


def test_monitor_index_trigger_fires_once(no_preface):
    sim = Simulator()
    monitor = TrafficMonitor(sim)
    fired = []
    monitor.on_request_index(2, fired.append)
    for _ in range(4):
        monitor(sim.now, CLIENT_TO_SERVER, view([record_info(90)]), False)
    assert len(fired) == 1
    assert fired[0].index == 2


def test_monitor_trigger_on_past_index_rejected(no_preface):
    sim = Simulator()
    monitor = TrafficMonitor(sim)
    monitor(sim.now, CLIENT_TO_SERVER, view([record_info(90)]), False)
    with pytest.raises(ValueError):
        monitor.on_request_index(1, lambda s: None)


def test_monitor_ignores_dropped_and_s2c(no_preface):
    sim = Simulator()
    monitor = TrafficMonitor(sim)
    monitor(sim.now, CLIENT_TO_SERVER, view([record_info(90)]), True)
    monitor(sim.now, SERVER_TO_CLIENT, view([record_info(90)]), False)
    assert monitor.request_count == 0
    assert monitor.app_packets_s2c == 1


def test_monitor_counts_control_records(no_preface):
    sim = Simulator()
    monitor = TrafficMonitor(sim)
    seen = []
    monitor.on_every_control(seen.append)
    monitor(sim.now, CLIENT_TO_SERVER, view([record_info(34)]), False)
    assert monitor.control_count == 1 and len(seen) == 1


# -- controller -----------------------------------------------------------------

def test_controller_policy_lifecycle():
    from repro.simnet.middlebox import Middlebox
    sim = Simulator()
    mbox = Middlebox(sim)
    controller = NetworkController(sim, mbox)
    controller.set_request_spacing(0.05)
    controller.set_bandwidth(1e6)
    controller.drop_application_packets(0.5, 1.0)
    controller.set_uniform_delay(0.01)
    controller.set_request_jitter(0.05)
    assert len(mbox._policies) == 5
    controller.clear_request_jitter()
    controller.clear_drops()
    assert len(mbox._policies) == 3


def test_controller_replaces_spacing_and_keeps_ramp():
    from repro.simnet.middlebox import Middlebox
    sim = Simulator()
    mbox = Middlebox(sim)
    controller = NetworkController(sim, mbox)
    first = controller.set_request_spacing(0.05)
    first._last_release = 3.0
    second = controller.set_request_spacing(0.08)
    assert second._last_release == 3.0
    assert len(mbox._policies) == 1


def test_controller_hold_first_until():
    from repro.simnet.middlebox import Middlebox
    sim = Simulator()
    mbox = Middlebox(sim)
    controller = NetworkController(sim, mbox)
    policy = controller.set_request_spacing(0.08, initial_gap_s=0.3,
                                            initial_count=1,
                                            hold_first_until=2.0)
    assert policy._last_release == pytest.approx(1.7)


# -- estimator -------------------------------------------------------------------

def completed(wire_len, start, end, rid=None, ct=23):
    completed._n = getattr(completed, "_n", 0) + 1
    return CompletedRecord(record_id=rid or completed._n, content_type=ct,
                           wire_len=wire_len, start_time=start, end_time=end,
                           direction=SERVER_TO_CLIENT,
                           final_packet_size=wire_len + 54)


def test_estimator_sums_between_delimiters():
    est = SizeEstimator()
    records = [completed(1400, 0.0, 0.0), completed(1400, 0.001, 0.001),
               completed(700, 0.002, 0.002),
               completed(1400, 0.003, 0.003), completed(200, 0.004, 0.004)]
    sizes = [e.size for e in est.estimate_from_records(records)]
    assert sizes == [(1400 - 30) * 2 + 670, 1370 + 170]


def test_estimator_skips_control_records():
    est = SizeEstimator()
    records = [completed(34, 0.0, 0.0), completed(1400, 0.001, 0.001),
               completed(500, 0.002, 0.002), completed(30, 0.003, 0.003)]
    estimates = est.estimate_from_records(records)
    assert len(estimates) == 1
    assert estimates[0].size == 1370 + 470


def test_estimator_time_gap_delimits(monkeypatch):
    monkeypatch.setattr(estimator_module, "TIME_GAP_DELIMITER_S", 0.05)
    est = SizeEstimator()
    records = [completed(1400, 0.0, 0.0),
               completed(1400, 0.2, 0.2), completed(300, 0.201, 0.201)]
    sizes = [e.size for e in est.estimate_from_records(records)]
    assert sizes == [1370, 1370 + 270]


def test_estimator_tiny_tail_record_lost():
    """A sub-control-size final record is invisible to the estimator --
    the object's estimate falls short by the tail.  Documents a real
    limitation of the delimiter side-channel."""
    est = SizeEstimator()
    records = [completed(1400, 0.0, 0.0), completed(31, 0.001, 0.001)]
    estimates = est.estimate_from_records(records)
    assert estimates[0].size == 1370  # the 1-byte tail was skipped


def test_estimator_trailing_run_emitted():
    est = SizeEstimator()
    records = [completed(1400, 0.0, 0.0)]
    estimates = est.estimate_from_records(records)
    assert len(estimates) == 1 and estimates[0].size == 1370


# -- predictor --------------------------------------------------------------------

def estimate(size, t=0.0):
    return ObjectEstimate(size=size, start_time=t, end_time=t, n_records=1)


def test_size_map_identifies_within_tolerance():
    size_map = SizeIdentityMap({10_000: "a", 20_000: "b"})
    assert size_map.identify(10_300) == "a"
    assert size_map.identify(19_700) == "b"
    assert size_map.identify(15_000) is None


def test_size_map_rejects_ambiguous_sizes():
    with pytest.raises(ValueError):
        SizeIdentityMap({10_000: "a", 10_500: "b"})


def test_predict_dedupes_repeats():
    size_map = SizeIdentityMap({10_000: "a", 20_000: "b"})
    predictor = ObjectPredictor(size_map)
    labels = [p.label for p in predictor.predict(
        [estimate(10_000), estimate(10_050), estimate(20_000)])]
    assert labels == ["a", "b"]


def test_predict_burst_prefers_dense_window(monkeypatch):
    monkeypatch.setattr(predictor_module, "BURST_WINDOW_S", 1.0)
    size_map = SizeIdentityMap({10_000: "a", 20_000: "b", 30_000: "c"})
    predictor = ObjectPredictor(size_map)
    estimates = [
        estimate(10_000, t=0.0),           # isolated spurious hit
        estimate(10_000, t=5.0), estimate(20_000, t=5.1),
        estimate(30_000, t=5.2),           # the real burst
    ]
    labels = [p.label for p in predictor.predict_burst(
        estimates, ["a", "b", "c"])]
    assert labels == ["a", "b", "c"]


def test_predict_burst_empty_when_nothing_matches():
    size_map = SizeIdentityMap({10_000: "a"})
    predictor = ObjectPredictor(size_map)
    assert predictor.predict_burst([estimate(50_000)], ["a"]) == []


# -- metrics --------------------------------------------------------------------------

def tx(path, serve_id, offset, length, t=0.0, end=False, dup=False):
    return TxEntry(time=t, stream_id=serve_id, object_path=path,
                   serve_id=serve_id, tcp_offset=offset, length=length,
                   is_data=True, end_stream=end, duplicate=dup)


#: The hand-built transmission logs the metric tests below read; the
#: span-index equivalence test (test_span_index.py) replays every one.
METRIC_LOGS = {
    "contiguous": [tx("/a", 1, 0, 1000), tx("/a", 1, 1000, 1000, end=True),
                   tx("/b", 2, 2000, 1000, end=True)],
    "perfect_interleave": [tx("/a", 1, 0, 100), tx("/b", 2, 100, 100),
                           tx("/a", 1, 200, 100),
                           tx("/b", 2, 300, 100, end=True),
                           tx("/a", 1, 400, 100, end=True)],
    # /b sits wholly between two halves of /a: /a is clearly interleaved.
    "enclosed": [tx("/a", 1, 0, 100), tx("/b", 2, 100, 100, end=True),
                 tx("/a", 1, 200, 100, end=True)],
    # /a spans [0, 1000); /b spans [500, 1500): half of /a is inside /b.
    "partial_overlap": [tx("/a", 1, 0, 500), tx("/b", 2, 500, 500),
                        tx("/a", 1, 1000, 500, end=True),
                        tx("/b", 2, 1500, 500, end=True)],
    "duplicate_after_first": [tx("/a", 1, 0, 100, end=True),
                              tx("/b", 2, 100, 100, end=True),
                              tx("/a", 3, 150, 100, dup=True, end=True)],
    "clean_reserve": [tx("/a", 1, 0, 100), tx("/b", 2, 100, 100, end=True),
                      tx("/a", 1, 200, 100, end=True),
                      tx("/a", 3, 300, 200, end=True)],
    "duplicate_reserve": [tx("/a", 1, 0, 100),
                          tx("/b", 2, 100, 100, end=True),
                          tx("/a", 1, 200, 100, end=True),
                          tx("/a", 9, 300, 200, dup=True, end=True)],
    "single": [tx("/a", 1, 0, 10, end=True)],
    "two_serves": [tx("/a", 1, 0, 100), tx("/a", 1, 100, 100, end=True),
                   tx("/a", 2, 200, 100, end=True)],
    "two_objects": [tx("/a", 1, 0, 100, end=True),
                    tx("/b", 2, 100, 100, end=True)],
}


def test_degree_zero_for_contiguous_object():
    log = METRIC_LOGS["contiguous"]
    assert ServeSpanIndex(log).degree("/a") == 0.0
    assert ServeSpanIndex(log).degree("/b") == 0.0


def test_degree_high_for_perfect_interleave():
    log = METRIC_LOGS["perfect_interleave"]
    # Three equal runs: 1 - 1/3.
    assert ServeSpanIndex(log).degree("/a") == pytest.approx(2 / 3)


def test_degree_counts_interruption_by_enclosed_object():
    log = METRIC_LOGS["enclosed"]
    assert ServeSpanIndex(log).degree("/a") == pytest.approx(0.5)


def test_degree_partial_overlap():
    log = METRIC_LOGS["partial_overlap"]
    # /a's second piece [1000,1500) lies inside /b's span [500,2000).
    degree = ServeSpanIndex(log).degree("/a")
    assert 0.4 <= degree <= 0.6


def test_degree_defaults_to_first_non_duplicate_serve():
    assert ServeSpanIndex(METRIC_LOGS["duplicate_after_first"]).degree(
        "/a") == 0.0


def test_object_serialized_requires_completed_clean_serve():
    assert not ServeSpanIndex(METRIC_LOGS["enclosed"]).serialized("/a")
    assert ServeSpanIndex(METRIC_LOGS["clean_reserve"]).serialized("/a")


def test_object_serialized_ignores_duplicates():
    index = ServeSpanIndex(METRIC_LOGS["duplicate_reserve"])
    assert not index.serialized("/a")


def test_missing_object_raises():
    with pytest.raises(KeyError):
        ServeSpanIndex(METRIC_LOGS["single"]).degree("/zzz")


def test_serve_spans_grouping():
    spans = serve_spans(METRIC_LOGS["two_serves"])
    assert set(spans) == {("/a", 1), ("/a", 2)}
    assert spans[("/a", 1)].total_bytes == 200


def test_mean_degree():
    """The mean over several objects, as the baseline reports it."""
    index = ServeSpanIndex(METRIC_LOGS["two_objects"])
    degrees = [index.degree(path) for path in ("/a", "/b")]
    assert sum(degrees) / len(degrees) == 0.0
