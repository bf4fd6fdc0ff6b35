"""Trace recorder and packet wire-view tests."""

import pytest

from repro.simnet.middlebox import CLIENT_TO_SERVER, SERVER_TO_CLIENT
from repro.simnet.packet import HEADER_OVERHEAD, Packet, RecordInfo, WireView
from repro.simnet.trace import TraceRecorder
from repro.tcp.segment import RecordSlice, TcpSegment
from repro.tls.record import APPLICATION_DATA, HANDSHAKE, TlsRecord


def seg_packet(record, offset=0, length=None, retx=0, src="server",
               dst="client"):
    length = length if length is not None else record.wire_len - offset
    seg = TcpSegment(src=src, dst=dst, src_port=443, dst_port=40000,
                     seq=0, payload_len=length,
                     slices=(RecordSlice(record, offset, length),),
                     retx_count=retx)
    return Packet(src=src, dst=dst, size=HEADER_OVERHEAD + length,
                  segment=seg)


def app_record(payload=1379):
    return TlsRecord(content_type=APPLICATION_DATA, payload_len=payload)


def test_wire_view_exposes_cleartext_only_fields():
    record = app_record(100)
    packet = seg_packet(record)
    view = packet.wire_view()
    assert view.size == HEADER_OVERHEAD + record.wire_len
    assert view.tcp.src_port == 443
    assert view.has_application_data
    info = view.records[0]
    assert info.content_type == APPLICATION_DATA
    assert info.record_wire_len == record.wire_len
    assert info.is_start and info.is_end


def test_wire_view_partial_record_slices():
    record = app_record(2000)
    first = seg_packet(record, offset=0, length=1000).wire_view()
    second = seg_packet(record, offset=1000).wire_view()
    assert first.records[0].is_start and not first.records[0].is_end
    assert not second.records[0].is_start and second.records[0].is_end


def test_pure_ack_view():
    seg = TcpSegment(src="client", dst="server", src_port=40000, dst_port=443)
    view = Packet(src="client", dst="server", size=HEADER_OVERHEAD,
                  segment=seg).wire_view()
    assert view.tcp.payload_len == 0
    assert not (view.tcp.syn or view.tcp.fin or view.tcp.rst)
    assert not view.has_application_data


def test_recorder_stores_and_filters():
    recorder = TraceRecorder()
    record = app_record()
    recorder(0.1, CLIENT_TO_SERVER, seg_packet(record, src="client",
                                               dst="server").wire_view(), False)
    recorder(0.2, SERVER_TO_CLIENT, seg_packet(record).wire_view(), False)
    recorder(0.3, SERVER_TO_CLIENT, seg_packet(record).wire_view(), True)
    assert len(recorder) == 3
    assert len(recorder.packets(SERVER_TO_CLIENT)) == 1
    assert len(recorder.packets(SERVER_TO_CLIENT, include_dropped=True)) == 2


def test_recorder_completed_records_single_packet():
    recorder = TraceRecorder()
    record = app_record(500)
    recorder(1.0, SERVER_TO_CLIENT, seg_packet(record).wire_view(), False)
    completed = recorder.completed_records(SERVER_TO_CLIENT)
    assert len(completed) == 1
    assert completed[0].wire_len == record.wire_len
    assert completed[0].start_time == completed[0].end_time == 1.0


def test_recorder_reassembles_multi_packet_record():
    recorder = TraceRecorder()
    record = app_record(3000)
    recorder(1.0, SERVER_TO_CLIENT,
             seg_packet(record, 0, 1400).wire_view(), False)
    recorder(1.1, SERVER_TO_CLIENT,
             seg_packet(record, 1400, 1400).wire_view(), False)
    recorder(1.2, SERVER_TO_CLIENT,
             seg_packet(record, 2800).wire_view(), False)
    completed = recorder.completed_records(SERVER_TO_CLIENT)
    assert len(completed) == 1
    assert completed[0].start_time == 1.0
    assert completed[0].end_time == 1.2


def test_recorder_dropped_packets_do_not_complete_records():
    recorder = TraceRecorder()
    record = app_record(500)
    recorder(1.0, SERVER_TO_CLIENT, seg_packet(record).wire_view(), True)
    assert recorder.completed_records(SERVER_TO_CLIENT) == []


def test_recorder_content_type_filter():
    recorder = TraceRecorder()
    handshake = TlsRecord(content_type=HANDSHAKE, payload_len=400)
    recorder(1.0, SERVER_TO_CLIENT, seg_packet(handshake).wire_view(), False)
    assert recorder.completed_records(SERVER_TO_CLIENT, content_type=23) == []
    assert len(recorder.completed_records(SERVER_TO_CLIENT,
                                          content_type=None)) == 1


def test_recorder_retransmit_filter():
    recorder = TraceRecorder()
    record = app_record(100)
    recorder(1.0, CLIENT_TO_SERVER,
             seg_packet(record, retx=1, src="client").wire_view(), False)
    recorder(1.1, CLIENT_TO_SERVER,
             seg_packet(record, src="client").wire_view(), False)
    assert recorder.retransmit_count() == 1
    assert recorder.retransmit_count(CLIENT_TO_SERVER) == 1
    assert recorder.retransmit_count(SERVER_TO_CLIENT) == 0


def test_recorder_clear():
    recorder = TraceRecorder()
    record = app_record(100)
    recorder(1.0, SERVER_TO_CLIENT, seg_packet(record).wire_view(), False)
    recorder(3.0, SERVER_TO_CLIENT,
             seg_packet(record, retx=1).wire_view(), False)
    recorder.clear()
    assert len(recorder) == 0
    assert recorder.retransmit_count() == 0


def test_recorder_count_predicate():
    recorder = TraceRecorder()
    record = app_record(100)
    for t in (1.0, 2.0, 3.0):
        recorder(t, SERVER_TO_CLIENT, seg_packet(record).wire_view(), False)
    assert recorder.count(lambda p: p.time > 1.5) == 2


def test_topology_wiring():
    from repro.simnet.engine import Simulator
    from repro.simnet.topology import StandardTopology, TopologyConfig
    sim = Simulator()
    topo = StandardTopology(sim, TopologyConfig(client_propagation_s=0.004,
                                                server_propagation_s=0.008))
    # A packet from the client transits the middlebox and gets captured.
    record = app_record(100)
    topo.client.send_packet(seg_packet(record, src="client", dst="server"))
    sim.run(until=1.0)
    assert len(topo.trace) == 1
    assert topo.trace.packets(CLIENT_TO_SERVER)


def test_result_table_formatting():
    from repro.experiments.results import ResultTable
    table = ResultTable("Title", ["a", "bb"])
    table.add_row(1, 2.345)
    table.add_row("xx", "yy")
    text = table.to_text()
    lines = text.splitlines()
    assert lines[0] == "Title"
    assert "2.3" in text and "xx" in text
    with pytest.raises(ValueError):
        table.add_row(1)
