"""The standard client -- middlebox -- server topology.

Mirrors the paper's setup: clients inside a lab, a 1 Gbps gateway the
adversary controls, and the target server across the Internet.  The
client-side hop is short (LAN); the server-side hop carries the WAN
propagation delay and a little natural jitter and loss, which give the
baseline (no-adversary) runs their realistic variance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.simnet.engine import Simulator
from repro.simnet.host import Host
from repro.simnet.link import Link, LinkConfig, exponential_jitter
from repro.simnet.middlebox import CLIENT_TO_SERVER, SERVER_TO_CLIENT, Middlebox
from repro.simnet.trace import TraceRecorder


@dataclass
class TopologyConfig:
    """Knobs for the standard topology.

    Defaults give a ~30 ms RTT path with a 1 Gbps gateway, matching the
    paper's testbed scale.
    """

    client_bandwidth_bps: float = 1_000_000_000.0
    client_propagation_s: float = 0.005
    server_bandwidth_bps: float = 1_000_000_000.0
    server_propagation_s: float = 0.010
    #: Mean of the exponential natural jitter on the WAN hop (seconds).
    natural_jitter_mean_s: float = 0.0004
    #: Natural random loss on the WAN hop.
    natural_loss_rate: float = 0.0002
    buffer_bytes: int = 512_000


class StandardTopology:
    """client <-> middlebox <-> server, with a trace recorder tapped in."""

    def __init__(self, sim: Simulator, config: Optional[TopologyConfig] = None):
        self.sim = sim
        self.config = config or TopologyConfig()
        cfg = self.config

        self.client = Host(sim, "client")
        self.server = Host(sim, "server")
        self.middlebox = Middlebox(sim, "gateway")

        lan = LinkConfig(
            bandwidth_bps=cfg.client_bandwidth_bps,
            propagation_s=cfg.client_propagation_s,
            buffer_bytes=cfg.buffer_bytes,
        )
        wan = LinkConfig(
            bandwidth_bps=cfg.server_bandwidth_bps,
            propagation_s=cfg.server_propagation_s,
            buffer_bytes=cfg.buffer_bytes,
            loss_rate=cfg.natural_loss_rate,
            jitter=(exponential_jitter(cfg.natural_jitter_mean_s)
                    if cfg.natural_jitter_mean_s > 0 else None),
        )

        # client -> middlebox -> server
        self._c2m = Link(sim, "client->mbox", lan)
        self._m2s = Link(sim, "mbox->server", wan)
        # server -> middlebox -> client
        self._s2m = Link(sim, "server->mbox", wan)
        self._m2c = Link(sim, "mbox->client", lan)

        self.client.attach_links(self._c2m, self._m2c)
        self.server.attach_links(self._s2m, self._m2s)
        self.middlebox.attach(CLIENT_TO_SERVER, self._c2m, self._m2s)
        self.middlebox.attach(SERVER_TO_CLIENT, self._s2m, self._m2c)

        #: Name -> link registry; the fault injector addresses link
        #: flap / blackhole targets through these stable names.
        self.links = {
            "client->mbox": self._c2m,
            "mbox->server": self._m2s,
            "server->mbox": self._s2m,
            "mbox->client": self._m2c,
        }

        self.trace = TraceRecorder()
        self.middlebox.taps.append(self.trace)

    def base_rtt_s(self) -> float:
        """Propagation-only round-trip time of the path."""
        cfg = self.config
        return 2.0 * (cfg.client_propagation_s + cfg.server_propagation_s)
