"""Concurrency limits, REFUSED_STREAM retry, and GOAWAY tests."""

import pytest

from repro.http2.server import Http2ServerConfig
from repro.http2.settings import Http2Settings

from tests.test_http2_integration import H2Rig, make_site


def strict_server_config(max_streams):
    config = Http2ServerConfig()
    config.settings = Http2Settings(max_concurrent_streams=max_streams)
    return config


def test_concurrency_cap_refuses_excess_streams():
    site = make_site({f"/o{i}": 200_000 for i in range(6)})
    rig = H2Rig(site=site, server_config=strict_server_config(2))
    rig.run(1.0)
    for i in range(6):
        rig.client.request(f"/o{i}")
    rig.run(0.2)
    server_conn = rig.server.connections[0]
    assert server_conn.refused_streams > 0


def test_refused_requests_retry_to_completion():
    site = make_site({f"/o{i}": 60_000 for i in range(6)})
    rig = H2Rig(site=site, server_config=strict_server_config(2))
    rig.run(1.0)
    done = []
    for i in range(6):
        rig.client.request(f"/o{i}", on_complete=lambda s: done.append(s.path))
    rig.run(20.0)
    assert sorted(done) == sorted(f"/o{i}" for i in range(6))
    assert rig.client.refused_retries > 0


def test_cap_never_hit_with_roomy_limit():
    rig = H2Rig()
    rig.run(1.0)
    rig.client.request("/a")
    rig.client.request("/b")
    rig.run(3.0)
    assert rig.server.connections[0].refused_streams == 0
    assert rig.client.refused_retries == 0


def test_goaway_finishes_inflight_and_refuses_new():
    rig = H2Rig(site=make_site({"/big": 300_000, "/late": 10_000}))
    rig.run(1.0)
    done = []
    rig.client.request("/big", on_complete=lambda s: done.append(s.path))
    rig.run(0.05)
    rig.goaway()
    rig.run(0.2)
    late = rig.client.request("/late")
    rig.run(10.0)
    # The in-flight stream completes; the post-GOAWAY one is refused and
    # never retried (the client saw GOAWAY).
    assert done == ["/big"]
    assert rig.client.goaway
    assert late.reset and not late.complete
