"""HTTP/2 connection-level behaviour: preface, settings, windows, batching."""

import pytest

from repro.http2 import frames as fr
from repro.http2.connection import CLIENT_PREFACE_LEN, DEFAULT_WINDOW
from repro.http2.settings import Http2Settings

from tests.test_http2_integration import H2Rig, make_site


def test_preface_and_settings_exchange():
    rig = H2Rig()
    rig.run(1.0)
    client_conn = rig.client.connection
    server_conn = rig.server.connections[0]
    assert client_conn.ready and server_conn.ready
    # Each side parsed the other's advertised settings.
    assert server_conn.peer_settings == rig.client.config.settings
    assert client_conn.peer_settings == rig.server.config.settings


def test_connection_window_bumped_beyond_default():
    rig = H2Rig()
    rig.run(1.0)
    server_conn = rig.server.connections[0]
    # The client's WINDOW_UPDATE raised the server's send credit far
    # above the RFC default of 65535.
    assert server_conn.send_window_connection.available > DEFAULT_WINDOW


def test_send_window_consumed_and_replenished():
    rig = H2Rig(site=make_site({"/big": 2_000_000}))
    rig.run(1.0)
    server_conn = rig.server.connections[0]
    before = server_conn.send_window_connection.available
    stream = rig.client.request("/big")
    rig.run(10.0)
    assert stream.complete
    after = server_conn.send_window_connection.available
    # Auto updates kept the window alive through a 2 MB transfer.
    assert after > 0
    assert before > 0


def test_request_batch_rides_one_record():
    rig = H2Rig(site=make_site({f"/x{i}": 5_000 for i in range(4)}))
    rig.run(1.0)
    conn = rig.client._tcp_conn
    written_before = conn.send_buffer.total_written
    streams = rig.client.request_batch([f"/x{i}" for i in range(4)])
    # One record appended: exactly one wire write spanning all GETs.
    assert conn.send_buffer.total_written > written_before
    assert len(streams) == 4
    rig.run(3.0)
    assert all(s.complete for s in streams)


def test_batched_requests_arrive_simultaneously_despite_spacing():
    """The batching defense: a spacing policy cannot separate GETs that
    share one record/segment."""
    from repro.core.wire import carries_request_any
    from repro.simnet.middlebox import CLIENT_TO_SERVER, SpacingPolicy

    rig = H2Rig(site=make_site({f"/x{i}": 5_000 for i in range(4)}))
    rig.run(1.0)
    rig.topo.middlebox.add_policy(SpacingPolicy(
        min_gap_s=0.5, direction=CLIENT_TO_SERVER,
        match=carries_request_any))
    streams = rig.client.request_batch([f"/x{i}" for i in range(4)])
    rig.run(5.0)
    assert all(s.complete for s in streams)
    finish_times = sorted(s.completed_at for s in streams)
    # All four complete within a whisker of each other: no 0.5 s stairs.
    assert finish_times[-1] - finish_times[0] < 0.3


def test_sequential_requests_are_spaced_by_same_policy():
    from repro.core.wire import carries_request_any
    from repro.simnet.middlebox import CLIENT_TO_SERVER, SpacingPolicy

    rig = H2Rig(site=make_site({f"/x{i}": 5_000 for i in range(4)}))
    rig.run(1.0)
    rig.topo.middlebox.add_policy(SpacingPolicy(
        min_gap_s=0.5, direction=CLIENT_TO_SERVER,
        match=carries_request_any))
    streams = [rig.client.request(f"/x{i}") for i in range(4)]
    rig.run(6.0)
    assert all(s.complete for s in streams)
    finish_times = sorted(s.completed_at for s in streams)
    assert finish_times[-1] - finish_times[0] > 1.0  # the staircase


def test_goaway_flag_visible_to_client():
    rig = H2Rig()
    rig.run(1.0)
    rig.goaway()
    rig.run(1.0)
    assert rig.client.goaway
    assert rig.client.broken


def test_duplicate_settings_records_ignored():
    rig = H2Rig()
    rig.run(1.0)
    conn = rig.client.connection
    settings_before = conn.peer_settings
    # Feed a duplicate SETTINGS dispatch (as a dup TLS delivery would).
    conn._dispatch(fr.SettingsFrame(settings={0x4: 1}), dup=True)
    assert conn.peer_settings == settings_before
