"""QUIC-lite substrate (extension; paper Section VII, reference [27]).

The paper closes by pointing at HTTP/2-over-QUIC streaming attacks as
the next frontier.  This subpackage implements enough of QUIC to ask
whether the serialization attack transfers to HTTP/3:

* datagram transport (no TCP): every packet carries QUIC frames,
* independent streams with per-stream reassembly -- no cross-stream
  head-of-line blocking,
* packet-number-based ACKs, RACK-style loss detection, Reno congestion
  control (shared with :mod:`repro.tcp`),
* full encryption: unlike TLS-over-TCP, *nothing* but packet sizes and
  timing is visible on the wire (QUIC encrypts even packet numbers), so
  the adversary loses the ``content_type == 23`` filter and must work
  from sizes alone.

The headline (see :mod:`repro.experiments.quic_transfer`): the attack
still works -- request datagrams are individually spaceable by size, and
object boundaries fall out of sub-MTU packets plus time gaps -- but the
observable is noisier and identification degrades accordingly.
"""

from repro.quic.connection import QuicConfig, QuicConnection, QuicEndpoint
from repro.quic.frames import AckFrame, QuicPacket, StreamFrame
from repro.quic.h3 import H3Client, H3Server

__all__ = [
    "AckFrame",
    "H3Client",
    "H3Server",
    "QuicConfig",
    "QuicConnection",
    "QuicEndpoint",
    "QuicPacket",
    "StreamFrame",
]
