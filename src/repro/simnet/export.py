"""Capture export/import.

Dumps a :class:`~repro.simnet.trace.TraceRecorder` to JSON-lines (one
packet per line, wire-view fields only -- the same information a pcap
of the encrypted traffic carries) and loads it back for offline
analysis.  Every analysis component in :mod:`repro.core` and
:mod:`repro.analysis` works on re-loaded captures, so experiments can be
captured once and analysed many times.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.simnet.packet import RecordInfo, TcpWireView, WireView
from repro.simnet.trace import CapturedPacket, TraceRecorder


def packet_to_dict(captured: CapturedPacket) -> dict:
    """Serializable form of one captured packet."""
    view = captured.view
    out = {
        "time": captured.time,
        "direction": captured.direction,
        "dropped": captured.dropped,
        "pid": view.pid,
        "src": view.src,
        "dst": view.dst,
        "size": view.size,
        "retx": view.is_retransmit,
        "records": [
            [r.record_id, r.content_type, r.record_wire_len,
             r.bytes_in_packet, r.is_start, r.is_end]
            for r in view.records
        ],
    }
    if view.tcp is not None:
        tcp = view.tcp
        out["tcp"] = [tcp.src_port, tcp.dst_port, tcp.seq, tcp.ack,
                      tcp.payload_len, tcp.syn, tcp.fin, tcp.rst, tcp.is_ack]
    return out


def packet_from_dict(data: dict) -> CapturedPacket:
    """Inverse of :func:`packet_to_dict`."""
    tcp = None
    if "tcp" in data:
        (src_port, dst_port, seq, ack, payload_len,
         syn, fin, rst, is_ack) = data["tcp"]
        tcp = TcpWireView(src_port=src_port, dst_port=dst_port, seq=seq,
                          ack=ack, payload_len=payload_len, syn=syn,
                          fin=fin, rst=rst, is_ack=is_ack)
    records = tuple(
        RecordInfo(record_id=rid, content_type=ct, record_wire_len=wl,
                   bytes_in_packet=bp, is_start=start, is_end=end)
        for rid, ct, wl, bp, start, end in data["records"]
    )
    view = WireView(pid=data["pid"], src=data["src"], dst=data["dst"],
                    size=data["size"], tcp=tcp, records=records,
                    is_retransmit=data["retx"])
    return CapturedPacket(time=data["time"], direction=data["direction"],
                          view=view, dropped=data["dropped"])


def save_trace(trace: TraceRecorder, path: Union[str, Path]) -> int:
    """Write the capture as JSON lines; returns the packet count."""
    path = Path(path)
    packets = trace.packets(include_dropped=True)
    with path.open("w") as handle:
        for captured in packets:
            handle.write(json.dumps(packet_to_dict(captured)) + "\n")
    return len(packets)


def load_trace(path: Union[str, Path]) -> TraceRecorder:
    """Read a JSON-lines capture back into a recorder."""
    recorder = TraceRecorder()
    with Path(path).open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            captured = packet_from_dict(json.loads(line))
            recorder(captured.time, captured.direction, captured.view,
                     captured.dropped)
    return recorder
