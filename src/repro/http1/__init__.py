"""HTTP/1.1 baseline substrate.

The comparison point of the paper's related work: an HTTP/1.1 server
serves requests strictly in order on each connection (no multiplexing),
so the classic size side-channel works against it without any active
interference.  The fingerprinting experiments use this stack to show the
H1 -> H2 -> H2-plus-attack progression.
"""

from repro.http1.client import Http1Client, Http1Exchange
from repro.http1.server import Http1Server

__all__ = ["Http1Client", "Http1Exchange", "Http1Server"]
