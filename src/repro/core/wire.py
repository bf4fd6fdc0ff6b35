"""Shared wire-level predicates for the adversary.

Everything here consumes :class:`~repro.simnet.packet.WireView` only --
the cleartext-derivable information boundary of the paper's adversary.
"""

from __future__ import annotations

from repro.simnet.packet import WireView

#: TLS application-data records at or above this wire length are treated
#: as request (GET) records; smaller ones are control frames
#: (WINDOW_UPDATE 34 B, SETTINGS ack 30 B, RST_STREAM 34 B, PING 38 B).
#: The floor sits just above the 38-byte PING because HPACK dynamic
#: indexing shrinks *repeat* GETs (every header field already in the
#: table) to ~42-46 bytes on the wire -- the post-reset re-requests the
#: serialize phase must space are exactly such records.
REQUEST_RECORD_MIN_WIRE = 40

#: A full-sized DATA record (9-byte frame header + 1370 payload + TLS
#: framing) rides a packet of this size; anything smaller delimits an
#: object tail (Fig. 1).  Derivable on the wire from the modal packet size.
FULL_RECORD_WIRE = 1400


def carries_request(view: WireView) -> bool:
    """True when the packet carries the *start* of a GET-sized record.

    This is the live version of the paper's
    ``ssl.record.content_type == 23`` request counter.  Retransmitted
    copies (inferable from TCP sequence reuse) are excluded so the
    count tracks distinct requests.
    """
    if view.is_retransmit:
        return False
    return carries_request_any(view)


def carries_request_any(view: WireView) -> bool:
    """Like :func:`carries_request` but retransmitted copies match too.

    Used by the spacing policy: held or retransmitted request copies
    must also be spaced, exactly as a netem qdisc would treat them.
    """
    for r in view.records:
        if (r.content_type == 23 and r.is_start
                and r.record_wire_len >= REQUEST_RECORD_MIN_WIRE):
            return True
    return False


def carries_application_data(view: WireView) -> bool:
    """Any TLS application-data bytes at all (the drop-phase matcher)."""
    return view.has_application_data
