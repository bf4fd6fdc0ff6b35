"""Network endpoints.

A :class:`Host` owns one duplex attachment to the network (endpoint hosts
in this reproduction always hang off the middlebox, as in the paper's
client -- lab gateway -- server path) and dispatches received packets to
a registered transport stack.
"""

from __future__ import annotations

from typing import Optional

from repro.simnet.engine import Simulator
from repro.simnet.link import Link
from repro.simnet.packet import Packet


class Host:
    """An endpoint with an address and a transport stack."""

    def __init__(self, sim: Simulator, address: str):
        self.sim = sim
        self.address = address
        self._out_link: Optional[Link] = None
        self._transport = None

    def attach_links(self, out_link: Link, in_link: Link) -> None:
        """Wire this host's egress link and subscribe to its ingress link."""
        self._out_link = out_link
        in_link.attach(self.receive_packet)

    def register_transport(self, transport) -> None:
        """Register the object whose ``handle_packet(pkt)`` receives traffic."""
        self._transport = transport

    def send_packet(self, packet: Packet) -> bool:
        """Transmit a packet on the egress link."""
        if self._out_link is None:
            raise RuntimeError(f"host {self.address} has no egress link")
        return self._out_link.send(packet)

    def receive_packet(self, packet: Packet) -> None:
        """Deliver an arriving packet to the transport stack."""
        if self._transport is not None:
            self._transport.handle_packet(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Host({self.address})"
