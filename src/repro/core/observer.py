"""The adversary's traffic monitor.

The paper implements this with ``tshark`` filtering
``ssl.record.content_type == 23`` and counting forwarded GET requests on
the client -> server path.  Here it is a middlebox tap that consumes
wire views only, counts request-carrying packets, and fires registered
triggers (e.g. "on the 6th GET, start the drop burst").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.core.wire import carries_request
from repro.simnet.middlebox import CLIENT_TO_SERVER, SERVER_TO_CLIENT
from repro.simnet.packet import WireView


@dataclass
class RequestSighting:
    """One counted GET-carrying packet."""

    index: int
    time: float
    record_wire_len: int


#: Leading request-sized records per capture that are the client's
#: connection preface, not GETs (see :class:`TrafficMonitor`).
PREAMBLE_RECORDS = 1


class TrafficMonitor:
    """Counts GETs and exposes index-based triggers.

    The first :data:`PREAMBLE_RECORDS` request-sized records per
    capture are discarded: every HTTP/2 connection opens with the
    client's connection preface + SETTINGS, which rides a GET-sized
    application-data record that a naive content-type-23 counter would
    miscount (the paper's adversary knows the protocol preamble just as
    it knows the request sequence).
    """

    def __init__(self, sim):
        self.sim = sim
        self._skipped = 0
        self.request_count = 0
        self.sightings: List[RequestSighting] = []
        self.app_packets_s2c = 0
        #: Small (sub-request-size) client application records: stream
        #: control frames.  A burst of these while the page is stalled is
        #: the client's RST_STREAM volley (Section IV-D).
        self.control_count = 0
        self.control_times: List[float] = []
        self._index_triggers: Dict[int, List[Callable[[RequestSighting], None]]] = {}
        self._every_request: List[Callable[[RequestSighting], None]] = []
        self._every_control: List[Callable[[float], None]] = []

    # Middlebox tap signature.
    def __call__(self, now: float, direction: str, view: WireView,
                 dropped: bool) -> None:
        if direction == SERVER_TO_CLIENT:
            if not dropped and view.has_application_data:
                self.app_packets_s2c += 1
            return
        if direction != CLIENT_TO_SERVER or dropped:
            return
        if not carries_request(view):
            if _carries_control_record(view):
                self.control_count += 1
                self.control_times.append(now)
                for callback in self._every_control:
                    callback(now)
            return
        if self._skipped < PREAMBLE_RECORDS:
            self._skipped += 1
            return
        self.request_count += 1
        record_len = max((r.record_wire_len for r in view.records
                          if r.is_application_data and r.is_start), default=0)
        sighting = RequestSighting(index=self.request_count, time=now,
                                   record_wire_len=record_len)
        self.sightings.append(sighting)
        for callback in self._every_request:
            callback(sighting)
        for callback in self._index_triggers.pop(self.request_count, []):
            callback(sighting)

    def on_request_index(self, index: int,
                         callback: Callable[[RequestSighting], None]) -> None:
        """Fire ``callback`` when the ``index``-th GET is observed."""
        if index <= self.request_count:
            raise ValueError(f"request {index} already observed")
        self._index_triggers.setdefault(index, []).append(callback)

    def on_every_request(self,
                         callback: Callable[[RequestSighting], None]) -> None:
        """Fire ``callback`` for every GET observed."""
        self._every_request.append(callback)

    def on_every_control(self, callback: Callable[[float], None]) -> None:
        """Fire ``callback(now)`` for every small control record seen."""
        self._every_control.append(callback)


def _carries_control_record(view: WireView) -> bool:
    return any(r.is_application_data and r.is_start for r in view.records)
