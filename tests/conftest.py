"""Shared test fixtures and rigs."""

from __future__ import annotations

import pytest

from repro.experiments.runner import CACHE_DIR_ENV
from repro.simnet.engine import Simulator
from repro.simnet.host import Host
from repro.simnet.link import Link, LinkConfig
from repro.tcp.connection import TcpConfig, TcpStack


@pytest.fixture(autouse=True)
def isolated_run_cache(tmp_path, monkeypatch):
    """Point the default run cache at the test's own directory, so no
    test is answered from records an earlier run left behind.  Child
    processes inherit it through the environment."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "repro-runs"))


class DirectRig:
    """Two hosts joined by a plain duplex link (no middlebox)."""

    def __init__(self, seed: int = 0, link: LinkConfig | None = None,
                 client_tcp: TcpConfig | None = None,
                 server_tcp: TcpConfig | None = None):
        self.sim = Simulator(seed=seed)
        link = link or LinkConfig(propagation_s=0.01)
        self.client_host = Host(self.sim, "client")
        self.server_host = Host(self.sim, "server")
        c2s = Link(self.sim, "c2s", link)
        s2c = Link(self.sim, "s2c", link)
        self.client_host.attach_links(c2s, s2c)
        self.server_host.attach_links(s2c, c2s)
        self.client_tcp = TcpStack(self.sim, self.client_host,
                                   client_tcp or TcpConfig())
        self.server_tcp = TcpStack(self.sim, self.server_host,
                                   server_tcp or TcpConfig())

    def run(self, duration: float = 5.0) -> None:
        self.sim.run(until=self.sim.now + duration)


@pytest.fixture
def rig() -> DirectRig:
    return DirectRig()


def make_rig(**kwargs) -> DirectRig:
    return DirectRig(**kwargs)
