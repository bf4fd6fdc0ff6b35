"""TLS session: handshake byte exchange and record (re)assembly.

The handshake is modelled as the usual three flights with realistic
sizes, so that GET counting by the adversary starts from the same
record-index offsets a real capture would show.  Application records are
reassembled from the TCP slice deliveries; duplicate deliveries (from
retransmitted segments, when the connection runs in duplicate-delivery
mode) surface to the application flagged ``dup=True``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.tcp.connection import TcpConnection
from repro.tls.record import APPLICATION_DATA, HANDSHAKE, TlsRecord

#: TCP port every TLS server of the model listens on.
HTTPS_PORT = 443


@dataclass
class HandshakeProfile:
    """Record payload sizes for each handshake flight (bytes)."""

    client_hello: int = 482
    server_flight: Tuple[int, ...] = (1388, 1388, 1021)
    client_finished: int = 58


#: The handshake flights every session sends.
HANDSHAKE_PROFILE = HandshakeProfile()


class TlsSession:
    """One endpoint of a TLS connection over a :class:`TcpConnection`."""

    def __init__(self, conn: TcpConnection, role: str):
        if role not in ("client", "server"):
            raise ValueError(f"bad role {role!r}")
        self.conn = conn
        self.role = role
        self.established = False

        #: Called once the handshake completes.
        self.on_established: Optional[Callable[["TlsSession"], None]] = None
        #: Called for every complete application record:
        #: ``on_application_record(record, dup)``.
        self.on_application_record: Optional[Callable[[TlsRecord, bool], None]] = None

        self._pending_bytes: Dict[int, int] = {}
        self._pending_record: Dict[int, TlsRecord] = {}
        self._dup_bytes: Dict[int, int] = {}
        self._handshake_records_seen = 0
        self._handshake_started = False
        conn.on_deliver = self._on_deliver

        if role == "client" and conn.established:
            self.start_handshake()

    # -- handshake ---------------------------------------------------------

    def start_handshake(self) -> None:
        """Client: send the ClientHello.  (Server waits.)  Idempotent:
        the constructor auto-starts on an established connection and
        callers may also invoke this explicitly."""
        if self.role != "client":
            raise RuntimeError("only the client initiates the handshake")
        if self._handshake_started:
            return
        self._handshake_started = True
        self._send_handshake_record(HANDSHAKE_PROFILE.client_hello)

    def _send_handshake_record(self, payload_len: int) -> None:
        record = TlsRecord(content_type=HANDSHAKE, payload_len=payload_len,
                           payload="handshake")
        self.conn.send_record(record)

    def _on_handshake_record(self) -> None:
        self._handshake_records_seen += 1
        if self.role == "server":
            if self._handshake_records_seen == 1:
                # Got ClientHello: send the ServerHello..Finished flight.
                for size in HANDSHAKE_PROFILE.server_flight:
                    self._send_handshake_record(size)
            elif self._handshake_records_seen == 2:
                # Got client Finished.
                self._establish()
        else:
            flight = len(HANDSHAKE_PROFILE.server_flight)
            if self._handshake_records_seen == flight:
                # Full server flight received: send Finished, go live.
                self._send_handshake_record(HANDSHAKE_PROFILE.client_finished)
                self._establish()

    def _establish(self) -> None:
        self.established = True
        if self.on_established is not None:
            self.on_established(self)

    # -- application data -----------------------------------------------------

    def send_application(self, payload, payload_len: int) -> TlsRecord:
        """Encrypt-and-send one application record; returns the record."""
        if not self.established:
            raise RuntimeError("TLS session not established")
        record = TlsRecord(content_type=APPLICATION_DATA,
                           payload_len=payload_len, payload=payload)
        self.conn.send_record(record)
        return record

    # -- reassembly --------------------------------------------------------------

    def _on_deliver(self, slices: tuple, dup: bool) -> None:
        for record_slice in slices:
            record = record_slice.record
            rid = record.record_id
            if dup:
                got = self._dup_bytes.get(rid, 0) + record_slice.length
                if got >= record.wire_len:
                    self._dup_bytes.pop(rid, None)
                    self._dispatch(record, dup=True)
                else:
                    self._dup_bytes[rid] = got
            else:
                got = self._pending_bytes.get(rid, 0) + record_slice.length
                if got >= record.wire_len:
                    self._pending_bytes.pop(rid, None)
                    self._dispatch(record, dup=False)
                else:
                    self._pending_bytes[rid] = got

    def _dispatch(self, record: TlsRecord, dup: bool) -> None:
        if record.content_type == HANDSHAKE:
            if not dup:
                self._on_handshake_record()
            return
        if record.content_type == APPLICATION_DATA:
            if self.on_application_record is not None:
                self.on_application_record(record, dup)
