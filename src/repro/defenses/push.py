"""Server-push defense (paper Section VII).

The server pushes all eight emblem images together with the result HTML
in one fixed, canonical order.  The client never requests them, so the
adversary's request spacing has nothing to hold, and the wire order is
constant across users -- the preference order never appears on the wire.
"""

from __future__ import annotations

from repro.http2.server import Http2ServerConfig
from repro.http2.settings import Http2Settings
from repro.website.isidewith import HTML_PATH, PARTIES, IsideWithSite


def push_defense_server_config(site: IsideWithSite) -> Http2ServerConfig:
    """Server config that pushes the emblems with the HTML."""
    return Http2ServerConfig(push_map={
        HTML_PATH: [site.image_path(party) for party in PARTIES],
    })


def push_client_settings() -> Http2Settings:
    """Client settings accepting server push."""
    return Http2Settings(enable_push=True)
