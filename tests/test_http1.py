"""HTTP/1.1 baseline stack tests."""

import pytest

from repro.http1.client import Http1Client
from repro.http1.server import Http1Server
from repro.simnet.engine import Simulator
from repro.simnet.topology import StandardTopology
from repro.website.objects import WebObject
from repro.website.sitemap import Site


class H1Rig:
    def __init__(self, seed=0):
        self.sim = Simulator(seed=seed)
        self.topo = StandardTopology(self.sim)
        self.site = Site("h1", "h1.example")
        for path, size in {"/a": 25_000, "/b": 14_000, "/c": 3_000}.items():
            self.site.add(WebObject(path=path, size=size))
        self.server = Http1Server(self.sim, self.topo.server, self.site)
        self.client = Http1Client(self.sim, self.topo.client)
        self.ready = False
        self.client.connect(lambda: setattr(self, "ready", True))

    def run(self, duration=1.0):
        self.sim.run(until=self.sim.now + duration)


def test_connect_and_single_get():
    rig = H1Rig()
    rig.run(1.0)
    assert rig.ready
    done = []
    exchange = rig.client.request("/a", on_complete=done.append)
    rig.run(3.0)
    assert done and exchange.complete
    assert exchange.bytes_received == 25_000


def test_pipelined_responses_arrive_in_request_order():
    rig = H1Rig()
    rig.run(1.0)
    completions = []
    for path in ("/a", "/b", "/c"):
        rig.client.request(path,
                           on_complete=lambda e: completions.append(e.path))
    rig.run(5.0)
    assert completions == ["/a", "/b", "/c"]


def test_responses_never_interleave_on_wire():
    rig = H1Rig()
    rig.run(1.0)
    for path in ("/a", "/b", "/c"):
        rig.client.request(path)
    rig.run(5.0)
    body_paths = [e.object_path for e in rig.server.tx_log if e.is_body]
    runs = [body_paths[0]]
    for path in body_paths[1:]:
        if path != runs[-1]:
            runs.append(path)
    assert runs == ["/a", "/b", "/c"]


def test_request_before_connect_raises():
    rig = H1Rig()
    with pytest.raises(RuntimeError):
        rig.client.request("/a")


def test_missing_object_served_as_header_only():
    rig = H1Rig()
    rig.run(1.0)
    rig.client.request("/missing")
    rig.run(2.0)
    body = [e for e in rig.server.tx_log if e.is_body]
    assert body == []


def test_pending_tracks_outstanding():
    rig = H1Rig()
    rig.run(1.0)
    rig.client.request("/a")
    rig.client.request("/b")
    assert len(rig.client.pending()) == 2
    rig.run(5.0)
    assert rig.client.pending() == []


def test_sizes_readable_by_passive_estimator():
    """The classic HTTP/1.x story: sequential responses leak sizes."""
    from repro.core.estimator import SizeEstimator
    rig = H1Rig()
    rig.run(1.0)
    for path in ("/a", "/b", "/c"):
        rig.client.request(path)
    rig.run(5.0)
    estimates = [e.size for e in
                 SizeEstimator().estimate_from_trace(rig.topo.trace)]
    recovered = [s for s in estimates if s > 2_000]
    assert any(abs(s - 25_000) < 400 for s in recovered)
    assert any(abs(s - 14_000) < 400 for s in recovered)
    assert any(abs(s - 3_000) < 400 for s in recovered)
