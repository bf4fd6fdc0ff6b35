"""Browser behaviour tests over the full stack."""

import pytest

from repro.browser.browser import Browser, BrowserConfig
from repro.http2.client import Http2Client, Http2ClientConfig
from repro.http2.server import Http2Server, Http2ServerConfig
from repro.simnet.engine import Simulator
from repro.simnet.middlebox import SERVER_TO_CLIENT, WindowedDropPolicy
from repro.simnet.topology import StandardTopology
from repro.tcp.connection import TcpConfig
from repro.website.isidewith import HTML_PATH, build_isidewith_site


class BrowserRig:
    def __init__(self, seed=0, browser_config=None, warm=None):
        self.sim = Simulator(seed=seed)
        self.topo = StandardTopology(self.sim)
        self.site = build_isidewith_site()
        self.server = Http2Server(self.sim, self.topo.server, self.site,
                                  Http2ServerConfig(),
                                  tcp_config=TcpConfig(deliver_duplicates=True,
                                                       initial_ssthresh_bytes=48_000))
        self.client = Http2Client(self.sim, self.topo.client,
                                  config=Http2ClientConfig(
                                      authority=self.site.authority))
        plan = self.site.plan_load(self.sim.rng("plan"), warm=warm)
        self.plan = plan
        self.browser = Browser(self.sim, self.client, plan,
                               browser_config or BrowserConfig())

    def run_to_completion(self, limit=40.0):
        self.browser.start()
        while self.browser.result is None and self.sim.now < limit:
            self.sim.run(until=self.sim.now + 0.5)
        self.sim.run(until=self.sim.now + 0.3)
        return self.browser.result


def test_clean_load_succeeds():
    result = BrowserRig(seed=1).run_to_completion()
    assert result.success and not result.broken
    assert result.resets == 0


def test_all_needed_paths_completed():
    rig = BrowserRig(seed=2)
    result = rig.run_to_completion()
    assert set(result.completed_paths) == set(rig.plan.uncached_paths())


def test_request_phases_in_order():
    rig = BrowserRig(seed=3, warm=False)
    result = rig.run_to_completion()
    times = {event.path: event.time for event in result.requests}
    html_time = times[HTML_PATH]
    for request in rig.plan.initial:
        assert times[request.path] < html_time
    for request in rig.plan.scripted:
        assert times[request.path] > html_time


def test_images_requested_in_permutation_order():
    rig = BrowserRig(seed=4)
    result = rig.run_to_completion()
    image_events = [e for e in result.requests if "emblem" in e.path]
    expected = [f"/img/emblem-{p}.png" for p in result.permutation]
    assert [e.path for e in image_events] == expected


def test_warm_load_skips_cached_aux():
    rig = BrowserRig(seed=5, warm=True)
    result = rig.run_to_completion()
    requested = {event.path for event in result.requests}
    assert not any("icon" in path or "banner" in path for path in requested)
    assert sum(1 for p in requested if "emblem" in p) == 8


def test_speculative_requests_fire_on_html_bytes():
    rig = BrowserRig(seed=6, warm=False)
    result = rig.run_to_completion()
    times = {event.path: event.time for event in result.requests}
    html_time = times[HTML_PATH]
    head_paths = [r.path for r in rig.plan.head_resources]
    # Head resources go out after the HTML request but before the
    # scripted phase (they are parse-triggered, not JS-triggered).
    first_image = min(times[r.path] for r in rig.plan.scripted)
    assert all(html_time < times[p] < first_image for p in head_paths)


def test_drop_burst_triggers_reset_and_rerequest():
    rig = BrowserRig(seed=7, warm=False)
    # An un-ending 100% drop of application data starting mid-load.
    rig.topo.middlebox.add_policy(WindowedDropPolicy(
        rig.sim, rate=0.95, direction=SERVER_TO_CLIENT,
        start_at=0.55, end_at=5.2))
    result = rig.run_to_completion()
    assert result.resets >= 1
    assert any(event.is_rerequest for event in result.requests)


def test_unrequested_objects_not_rerequested_after_reset():
    rig = BrowserRig(seed=8, warm=False)
    rig.topo.middlebox.add_policy(WindowedDropPolicy(
        rig.sim, rate=0.95, direction=SERVER_TO_CLIENT,
        start_at=0.55, end_at=5.2))
    result = rig.run_to_completion()
    rerequests = [e for e in result.requests if e.is_rerequest]
    first_time = {e.path: e.time for e in result.requests
                  if not e.is_rerequest}
    for event in rerequests:
        assert event.path in first_time
        assert first_time[event.path] < event.time


def test_permanent_blackout_breaks_load():
    rig = BrowserRig(seed=9, browser_config=BrowserConfig(page_timeout_s=25.0))
    rig.topo.middlebox.add_policy(WindowedDropPolicy(
        rig.sim, rate=1.0, direction=SERVER_TO_CLIENT,
        start_at=0.55, end_at=1e9))
    result = rig.run_to_completion(limit=30.0)
    assert result is not None
    assert result.broken and not result.success


def test_page_timeout_enforced():
    rig = BrowserRig(seed=10, browser_config=BrowserConfig(
        page_timeout_s=0.2))
    result = rig.run_to_completion(limit=5.0)
    assert result.broken
    assert result.duration_s == pytest.approx(0.2, abs=0.05)


def test_deterministic_given_seed():
    first = BrowserRig(seed=11).run_to_completion()
    second = BrowserRig(seed=11).run_to_completion()
    assert [e.path for e in first.requests] == [e.path for e in second.requests]
    assert first.duration_s == second.duration_s
