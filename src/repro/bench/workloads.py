"""The fixed, seeded workload suite behind ``repro bench``.

Every workload is a pure function of its :class:`Scale`: it builds its
own seeded state, runs a deterministic amount of work, and returns the
number of *events* it processed (the unit each topic's events-per-second
metric is expressed in).  The returned count must be byte-identical
across processes and platforms -- ``repro bench --compare`` enforces
that strictly, so a change in a count is a semantic change to the hot
path and has to be re-baselined deliberately.

No workload reads the wall clock (that is :mod:`repro.bench.measure`'s
job) and none touches ambient state: the linter's DET/CACHE families
apply here exactly as they do to experiment cells.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

#: Bump a workload's ``version`` whenever its definition changes shape
#: (different op mix, different seeds, different scale fields): compare
#: refuses to diff snapshots across workload versions rather than
#: reporting a bogus regression.
_SEED = 20260807


@dataclass(frozen=True)
class Scale:
    """Knobs sizing one run of the suite.  ``full`` is the committed
    baseline scale; ``smoke`` is a reduced suite for quick local runs."""

    name: str
    heap_events: int
    trace_packets: int
    stream_bytes: int
    hpack_blocks: int
    session_loads: int
    lint_passes: int
    taint_passes: int
    dispatch_cells: int
    dos_probe_events: int


SCALES: Tuple[Scale, ...] = (
    Scale(name="full", heap_events=300_000, trace_packets=60_000,
          stream_bytes=80_000_000, hpack_blocks=6_000, session_loads=2,
          lint_passes=2, taint_passes=2, dispatch_cells=24,
          dos_probe_events=300_000),
    Scale(name="smoke", heap_events=60_000, trace_packets=12_000,
          stream_bytes=12_000_000, hpack_blocks=1_200, session_loads=1,
          lint_passes=1, taint_passes=1, dispatch_cells=8,
          dos_probe_events=60_000),
)


def scale_by_name(name: str) -> Scale:
    """Resolve a scale name; raises ``ValueError`` on unknown names."""
    for scale in SCALES:
        if scale.name == name:
            return scale
    raise ValueError(f"unknown scale {name!r}; "
                     f"choose from {', '.join(s.name for s in SCALES)}")


@dataclass(frozen=True)
class Workload:
    """One benchmark topic: a name, a version, and its runner."""

    topic: str
    version: int
    description: str
    run: Callable[[Scale], int]


# -- event_heap: the simulator's scheduling core ---------------------------

def _noop() -> None:
    return None


def _run_event_heap(scale: Scale) -> int:
    """Self-rescheduling timers churning the event heap.

    Each tick schedules its successor *and* a decoy event it immediately
    cancels, so the heap sees the schedule/cancel/pop mix a real session
    produces (RTO timers are armed and disarmed constantly).
    """
    from repro.simnet.engine import Simulator

    sim = Simulator(seed=_SEED)
    rng = sim.rng("bench-heap")

    def tick() -> None:
        decoy = sim.schedule(5.0, _noop)
        decoy.cancel()
        sim.schedule(0.001 + rng.random() * 0.01, tick)

    for _ in range(64):
        sim.schedule(rng.random() * 0.01, tick)
    sim.run(max_events=scale.heap_events)
    return sim.processed_events


# -- packet_trace: per-packet object churn + capture -----------------------

def _run_packet_trace(scale: Scale) -> int:
    """The middlebox transit cost: build packets carrying TLS record
    slices, derive their wire views, and capture them in a
    :class:`~repro.simnet.trace.TraceRecorder`, then run the trace's
    record reassembly and retransmission queries the adversary runs.
    """
    from repro.simnet.middlebox import CLIENT_TO_SERVER, SERVER_TO_CLIENT
    from repro.simnet.packet import HEADER_OVERHEAD, Packet
    from repro.simnet.trace import TraceRecorder
    from repro.tcp.segment import RecordSlice, TcpSegment
    from repro.tls.record import APPLICATION_DATA, TlsRecord

    rng = random.Random(_SEED)
    recorder = TraceRecorder()
    mss = 1370
    record: Optional[TlsRecord] = None
    rec_offset = 0
    seq = 0
    now = 0.0
    sizes = (220, 900, 1380, 4200, 16000, 48000)
    for i in range(scale.trace_packets):
        now += 0.0002
        if i % 11 == 10:
            # A client-side pure ACK (no payload, no records).
            ack_seg = TcpSegment(src="client", dst="server", src_port=40001,
                                 dst_port=443, seq=0, ack_no=seq,
                                 payload_len=0)
            packet = Packet(src="client", dst="server",
                            size=HEADER_OVERHEAD, segment=ack_seg,
                            created_at=now)
            recorder(now, CLIENT_TO_SERVER, packet.wire_view(), False)
            continue
        if record is None or rec_offset >= record.wire_len:
            record = TlsRecord(content_type=APPLICATION_DATA,
                               payload_len=rng.choice(sizes))
            rec_offset = 0
        length = min(mss, record.wire_len - rec_offset)
        slices = (RecordSlice(record=record, offset=rec_offset,
                              length=length),)
        rec_offset += length
        retx = 1 if i % 97 == 96 else 0
        seg = TcpSegment(src="server", dst="client", src_port=443,
                         dst_port=40001, seq=seq, ack_no=0,
                         payload_len=length, slices=slices,
                         retx_count=retx)
        seq += length
        packet = Packet(src="server", dst="client",
                        size=length + HEADER_OVERHEAD, segment=seg,
                        created_at=now)
        recorder(now, SERVER_TO_CLIENT, packet.wire_view(),
                 i % 211 == 210)
    completed = recorder.completed_records(SERVER_TO_CLIENT)
    retx_packets = recorder.retransmitted_packets(SERVER_TO_CLIENT)
    app = recorder.application_packets(SERVER_TO_CLIENT)
    return scale.trace_packets + len(completed) + len(retx_packets) + len(app)


# -- tcp_reassembly: send-side slicing + receive-side reordering ------------

def _run_tcp_reassembly(scale: Scale) -> int:
    """Drive :class:`SendBuffer`/:class:`ReceiveBuffer` with the segment
    mix of a lossy link: mostly in-order, with held-back (out-of-order)
    spans, duplicate re-deliveries, and periodic ACK releases.
    """
    from repro.tcp.buffer import ReceiveBuffer, SendBuffer
    from repro.tls.record import APPLICATION_DATA, TlsRecord

    rng = random.Random(_SEED + 1)
    send = SendBuffer()
    delivered = [0]

    def deliver(slices, dup) -> None:
        delivered[0] += len(slices)

    recv = ReceiveBuffer(deliver, deliver_duplicates=True)
    mss = 1370
    sizes = (800, 1370, 2740, 9000, 32000)
    written = 0
    while written < scale.stream_bytes:
        record = TlsRecord(content_type=APPLICATION_DATA,
                           payload_len=rng.choice(sizes))
        send.write(record)
        written += record.wire_len

    segments = 0
    seq = 0
    held = []
    total = send.total_written
    while seq < total or held:
        if held and (seq >= total or rng.random() < 0.4):
            h_seq, h_len, h_slices = held.pop(0 if rng.random() < 0.5
                                              else -1)
            recv.on_segment(h_seq, h_len, h_slices)
            segments += 1
            continue
        length = min(mss, total - seq)
        slices = send.slice_stream(seq, length)
        roll = rng.random()
        if roll < 0.05 and len(held) < 8:
            held.append((seq, length, slices))
        elif roll < 0.08:
            recv.on_segment(seq, length, slices)
            recv.on_segment(seq, length, slices)  # duplicate delivery
            segments += 1
        else:
            recv.on_segment(seq, length, slices)
        segments += 1
        seq += length
        if segments % 64 == 0:
            send.release(recv.rcv_nxt)
    send.release(recv.rcv_nxt)
    return segments + delivered[0]


# -- hpack: header compression on both ends --------------------------------

def _run_hpack(scale: Scale) -> int:
    """Encode and decode realistic request/response header blocks
    through a stateful encoder/decoder pair (dynamic-table churn
    included: cookies and paths recur, sizes force evictions)."""
    from repro.http2.hpack import HpackDecoder, HpackEncoder

    rng = random.Random(_SEED + 2)
    encoder = HpackEncoder()
    decoder = HpackDecoder()
    paths = tuple(f"/assets/obj_{i:03d}.bin" for i in range(48))
    cookies = tuple(f"session={i:032d}" for i in range(12))
    agents = ("Mozilla/5.0 (X11; Linux x86_64) repro-bench/1.0",
              "Mozilla/5.0 (Macintosh) repro-bench/1.0")
    ops = 0
    for i in range(scale.hpack_blocks):
        if i % 2 == 0:
            headers = sorted({
                ":method": "GET",
                ":path": rng.choice(paths),
                ":scheme": "https",
                ":authority": "bench.example",
                "user-agent": rng.choice(agents),
                "accept": "*/*",
                "cookie": rng.choice(cookies),
            }.items())
        else:
            headers = sorted({
                ":status": "200",
                "content-type": "application/octet-stream",
                "content-length": str(rng.randrange(100, 1 << 20)),
                "server": "repro-h2",
                "cache-control": "max-age=3600",
            }.items())
        _, tokens = encoder.encode(headers)
        decoded = decoder.decode(tokens)
        ops += len(headers) + len(decoded)
    return ops


# -- lint: the whole-program analyzer over its own source -------------------

def _run_lint(scale: Scale) -> int:
    """A full analyzer pass over the installed ``repro`` package (the
    self-check workload), plus an explicit sweep of the flow-sensitive
    core: build every function's CFG and solve dominators on it.  The
    event count is files + findings + blocks + dominator facts -- a
    pure function of the committed source tree, so any drift in it
    means the analyzer or the tree changed shape.
    """
    from repro.lint.cfg import build_cfg, dominators
    from repro.lint.cli import package_root
    from repro.lint.engine import build_project, lint_paths, load_contexts

    root = package_root()
    events = 0
    for _ in range(scale.lint_passes):
        report = lint_paths([root])
        events += report.files_checked + len(report.findings)
        project = build_project(load_contexts([root]))
        for key in sorted(project.functions):
            fn = project.functions[key]
            cfg = build_cfg(fn.node)
            events += len(cfg.blocks)
            events += sum(len(doms) for doms
                          in dominators(cfg).values())
    return events


# -- taint: the interprocedural LEAK pass over the package ------------------

def _run_taint(scale: Scale) -> int:
    """The full interprocedural taint pass (every LEAK rule) over the
    installed ``repro`` package: summary fixpoints over the adversary
    and defense call graphs plus the tap-passivity sweep.  The event
    count is analyzed functions + summary rounds' worth of flow facts +
    findings -- a pure function of the committed tree, so drift means
    the analyzer or the boundary changed shape.
    """
    from repro.lint.cli import package_root
    from repro.lint.engine import build_project, load_contexts
    from repro.lint.taint import (LEAK_SPECS, _relevant_functions,
                                  _sink_functions, check_taint)

    root = package_root()
    events = 0
    for _ in range(scale.taint_passes):
        project = build_project(load_contexts([root]))
        findings = check_taint(
            project, {spec.code for spec in LEAK_SPECS} | {"LEAK003"})
        events += len(findings)
        for spec in LEAK_SPECS:
            sinks = _sink_functions(project, spec)
            events += len(sinks)
            events += len(_relevant_functions(project, sinks))
        events += sum(len(finding.trace) for finding in findings)
    return events


# -- runner_dispatch: per-cell overhead of the two dispatch paths ----------

def _dispatch_cell(seed: int) -> dict:
    """A near-empty grid cell: whatever time its run takes is dispatch
    overhead, which is exactly what this workload measures."""
    return {"value": seed % 7, "processed_events": 1, "sim_time_s": 0.0}


def _run_runner_dispatch(scale: Scale):
    """Inline vs persistent-worker dispatch overhead.

    The same trivial grid runs through both dispatch paths sequentially
    (one cell in flight at a time), so the difference in ``elapsed_s -
    sum(cell wall time)`` is purely the cost of getting a cell run and
    its result placed: a function call inline, one pipe round-trip on
    the one-worker pool (plus that worker's spawn).  The aux metrics
    record each path's per-cell overhead; the event count stays a pure
    function of the specs.
    """
    from repro.experiments.runner import RunCache, RunSpec, run_grid

    specs = [RunSpec.make("repro.bench.workloads:_dispatch_cell", seed)
             for seed in range(scale.dispatch_cells)]
    inline = run_grid(specs, workers=0, cache=RunCache.disabled())
    pooled = run_grid(specs, workers=1, cache=RunCache.disabled())

    events = 0
    for grid in (inline, pooled):
        events += sum(m["value"] + m["processed_events"]
                      for m in grid.metrics())
    cells = float(len(specs))
    aux = {
        "inline_dispatch_s_per_cell":
            max(0.0, inline.elapsed_s - inline.wall_time_s) / cells,
        "worker_dispatch_s_per_cell":
            max(0.0, pooled.elapsed_s - pooled.wall_time_s) / cells,
    }
    return events, aux


# -- dos_detector: per-probe-event overhead of the DoS classifier -----------

class _BenchClock:
    """Minimal ``.now`` clock the detector samples (no simulator)."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0.0


class _BenchTcpConn:
    """Identity-keyed stand-in for a server-side TCP connection."""

    __slots__ = ()


class _BenchH2Conn:
    """Stand-in exposing the ``h2_conn.tls.conn`` chain the frame tap
    walks to key its per-connection tracks."""

    __slots__ = ("tls",)

    class _Tls:
        __slots__ = ("conn",)

        def __init__(self, conn) -> None:
            self.conn = conn

    def __init__(self, conn) -> None:
        self.tls = self._Tls(conn)


def _run_dos_detector(scale: Scale) -> int:
    """Feed the DoS detector a seeded probe-event stream shaped like a
    mixed attack/legitimate server: per-event cost of the taps is the
    whole measurement (the detector is on the hot probe path of every
    hardened run).  A handful of connections stay preamble-silent and
    others dangle request streams, trickle bodies, and flood control
    frames, so every rule -- inline rates and periodic sweeps --
    executes at realistic ratios.
    """
    from repro.http2 import frames as fr
    from repro.invariants.dos_detector import DosDetector

    rng = random.Random(_SEED + 3)
    clock = _BenchClock()
    detector = DosDetector(clock)
    tcp_conns = [_BenchTcpConn() for _ in range(32)]
    h2_conns = [_BenchH2Conn(conn) for conn in tcp_conns]
    greeted = [False] * len(tcp_conns)
    next_stream = [1] * len(tcp_conns)
    open_streams: list = [[] for _ in tcp_conns]

    for i in range(scale.dos_probe_events):
        clock.now += 0.0004
        index = rng.randrange(len(tcp_conns))
        if index < 4:
            # Preamble-silent connections: TCP activity, no frames.
            detector.on_segment(tcp_conns[index], "recv", None)
            continue
        h2 = h2_conns[index]
        if not greeted[index]:
            greeted[index] = True
            detector.on_frame(h2, "recv", fr.SettingsFrame(
                settings={1: 4096}), False)
            continue
        roll = rng.random()
        if roll < 0.15:
            detector.on_segment(tcp_conns[index], "recv", None)
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
    return detector.events + len(detector.flags)


# -- session: the figure5-style macro workload ------------------------------

def _run_session(scale: Scale) -> int:
    """Full attacked sessions (browser + HTTP/2 + TCP + adversary
    pipeline), the macro workload every experiment multiplies."""
    from repro.core.phases import AttackConfig
    from repro.experiments.session import SessionConfig, run_session

    total = 0
    for seed in range(scale.session_loads):
        result = run_session(SessionConfig(seed=seed, attack=AttackConfig()))
        total += result.processed_events
    return total


def workloads() -> Tuple[Workload, ...]:
    """The suite, in its canonical run order."""
    return (
        Workload("event_heap", 1,
                 "simulator heap: schedule/cancel/pop timer churn",
                 _run_event_heap),
        Workload("packet_trace", 1,
                 "packet construction, wire views and trace capture",
                 _run_packet_trace),
        Workload("tcp_reassembly", 1,
                 "TCP send-buffer slicing + out-of-order reassembly",
                 _run_tcp_reassembly),
        Workload("hpack", 1,
                 "HPACK encode/decode with dynamic-table churn",
                 _run_hpack),
        Workload("lint", 2,
                 "whole-program analyzer self-check + CFG/dominators sweep",
                 _run_lint),
        Workload("taint", 1,
                 "interprocedural LEAK taint pass over the package",
                 _run_taint),
        Workload("runner_dispatch", 1,
                 "inline vs persistent-worker dispatch overhead",
                 _run_runner_dispatch),
        Workload("dos_detector", 1,
                 "DoS-detector probe taps over a mixed traffic stream",
                 _run_dos_detector),
        Workload("session", 1,
                 "full attacked page loads (figure5-style macro run)",
                 _run_session),
    )
