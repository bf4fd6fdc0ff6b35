"""Page-load engine."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.http2.client import ClientStream, Http2Client
from repro.website.sitemap import PageLoadPlan, PlannedRequest

#: Stall window: the channel is considered dead when less than
#: ``STALL_MIN_BYTES`` arrived over the last ``STALL_TIMEOUT_S`` while
#: requests are outstanding; the browser then resets its pending
#: streams (the Section IV-D behaviour -- a trickle of leaked
#: retransmissions must not keep a dead-looking page alive).
STALL_TIMEOUT_S = 3.0
#: Below ~8 KB/s the page is effectively dead: a trickle of leaked
#: retransmissions through an 80 % drop burst must not count as
#: progress, or the browser never resets and never re-requests.
STALL_MIN_BYTES = 24_576
STALL_CHECK_INTERVAL_S = 0.25
#: Pause after a reset before re-requesting missing objects.
RESET_BACKOFF_S = 0.5
#: Gap between consecutive re-requests.
REREQUEST_GAP_S = 0.02
#: Resets tolerated before declaring the load broken.
MAX_RESETS = 3
#: First pause before redialling; doubles per attempt.
RECONNECT_BACKOFF_S = 0.25
#: Ceiling on the reconnect backoff.
RECONNECT_BACKOFF_CAP_S = 2.0


@dataclass
class BrowserConfig:
    """Client-side behaviour knobs (Firefox-like defaults)."""

    page_timeout_s: float = 30.0
    #: Fresh-connection attempts after the transport dies (GOAWAY or
    #: TCP teardown).  0 keeps the legacy behaviour -- a dead
    #: connection breaks the load immediately; fault-tolerant profiles
    #: enable a couple of retries.
    max_reconnects: int = 0


@dataclass
class RequestEvent:
    """One GET issued by the browser (ground truth for evaluation)."""

    time: float
    path: str
    stream_id: int
    is_rerequest: bool = False


@dataclass
class PageLoadResult:
    """Outcome of one page load."""

    success: bool
    broken: bool
    duration_s: float
    resets: int
    requests: List[RequestEvent]
    completed_paths: List[str]
    plan: PageLoadPlan
    #: Fresh connections dialled after transport failures.
    reconnects: int = 0

    @property
    def permutation(self):
        return self.plan.meta.get("permutation")


class Browser:
    """Drives one page load over one HTTP/2 connection."""

    def __init__(self, sim, client: Http2Client, plan: PageLoadPlan,
                 config: Optional[BrowserConfig] = None):
        self.sim = sim
        self.client = client
        self.plan = plan
        self.config = config or BrowserConfig()

        self._needed: Set[str] = set(plan.uncached_paths())
        # Insertion-ordered dict as an ordered set: completion order is
        # part of the result (completed_paths) and membership tests run
        # on every stream completion.
        self._completed: Dict[str, None] = {}
        self._requests: List[RequestEvent] = []
        self._weights: Dict[str, int] = {r.path: r.weight
                                         for r in plan.all_requests()}
        self._resets = 0
        self._reconnects = 0
        self._reconnecting = False
        self._scripted_fired = False
        self._head_fired = False
        self._body_fired = False
        self._finished = False
        self._started_at = 0.0
        self._progress_history: Deque[Tuple[float, int]] = deque()
        self._stall_timer = None
        self._timeout_timer = None
        self.result: Optional[PageLoadResult] = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Begin the load: connect, then run the plan."""
        self._started_at = self.sim.now
        self._timeout_timer = self.sim.schedule(self.config.page_timeout_s,
                                                self._on_page_timeout)
        self.client.connect(self._on_connected)

    def _on_connected(self) -> None:
        self.client.on_push = self._on_push
        self._schedule_phase(self.plan.initial, self._after_initial)
        self._stall_timer = self.sim.schedule(
            STALL_CHECK_INTERVAL_S, self._check_stalls)

    def _on_push(self, stream) -> None:
        """A server-pushed stream satisfies its path like a response."""
        stream.on_complete = self._on_stream_complete

    def _after_initial(self) -> None:
        self.sim.schedule(self.plan.html.gap_s, self._request_html)

    def _request_html(self) -> None:
        if self._finished:
            return
        self._issue(self.plan.html, html=True)
        # Preload hints fire with the document request, before any HTML
        # bytes arrive.
        self._schedule_phase(self.plan.preload)

    # -- request plumbing --------------------------------------------------------

    def _schedule_phase(self, requests: List[PlannedRequest],
                        after: Optional[Callable[[], None]] = None,
                        rerequest: bool = False) -> None:
        """Issue a phase's requests sequentially, honouring gaps."""
        pending = [r for r in requests if not r.cached]
        if not pending:
            if after is not None:
                after()
            return
        self.sim.schedule(pending[0].gap_s, self._issue_next, pending, 0,
                          after, rerequest)

    def _issue_next(self, pending: List[PlannedRequest], index: int,
                    after: Optional[Callable[[], None]],
                    rerequest: bool) -> None:
        """Issue ``pending[index]`` and schedule the next request of the
        phase after its gap (``after`` runs once the phase is done).  A
        method rather than a self-scheduling closure, so a phase leaves
        no function-cell cycle for the collector."""
        if self._finished:
            return
        if index >= len(pending):
            if after is not None:
                after()
            return
        self._issue(pending[index], is_rerequest=rerequest)
        next_gap = (pending[index + 1].gap_s
                    if index + 1 < len(pending) else 0.0)
        self.sim.schedule(next_gap, self._issue_next, pending, index + 1,
                          after, rerequest)

    def _issue(self, request: PlannedRequest, html: bool = False,
               is_rerequest: bool = False) -> ClientStream:
        stream = self.client.request(
            request.path, weight=request.weight,
            on_complete=self._on_stream_complete)
        self._requests.append(RequestEvent(
            time=self.sim.now, path=request.path,
            stream_id=stream.stream_id, is_rerequest=is_rerequest))
        if html or request.path == self.plan.html.path:
            stream.on_first_byte = self._on_html_first_byte
            stream.on_progress = self._on_html_progress
        return stream

    # -- HTML-driven triggers ----------------------------------------------------

    def _on_html_first_byte(self, _stream: ClientStream) -> None:
        if not self._head_fired:
            self._head_fired = True
            self._schedule_phase(self.plan.head_resources)

    def _on_html_progress(self, stream: ClientStream) -> None:
        if self._body_fired or stream.content_length is None:
            return
        if stream.bytes_received * 2 >= stream.content_length:
            self._body_fired = True
            self._schedule_phase(self.plan.body_resources)

    def _on_stream_complete(self, stream: ClientStream) -> None:
        if self._finished:
            return
        if stream.path in self._needed and stream.path not in self._completed:
            self._completed[stream.path] = None
        if stream.path == self.plan.html.path and not self._scripted_fired:
            self._scripted_fired = True
            self.sim.schedule(self.plan.exec_delay_s, self._fire_scripted)
        self._maybe_finish()

    def _fire_scripted(self) -> None:
        if self._finished:
            return
        missing = [r for r in self.plan.scripted
                   if r.path not in self._completed]
        self._schedule_phase(missing)

    # -- stall handling (RST_STREAM + re-request) -----------------------------------

    def _check_stalls(self) -> None:
        if self._finished:
            return
        self._stall_timer = self.sim.schedule(
            STALL_CHECK_INTERVAL_S, self._check_stalls)
        if self._reconnecting:
            # A redial is pending; judge nothing until it lands.
            return
        if self.client.broken:
            if self._reconnects >= self.config.max_reconnects:
                self._finish(broken=True)
            else:
                self._begin_reconnect()
            return
        now = self.sim.now
        total_bytes = self.client.bytes_received
        self._progress_history.append((now, total_bytes))
        cutoff = now - STALL_TIMEOUT_S
        while len(self._progress_history) > 1 and self._progress_history[1][0] <= cutoff:
            self._progress_history.popleft()

        pending = self.client.pending_streams()
        if not pending:
            return
        # Connection-level stall: reset only when the whole connection's
        # throughput over the window is negligible (the channel looks
        # dead, as under the paper's drop burst).  A queued request on a
        # healthy connection just waits, as real browsers with ~90 s
        # request timeouts do; and a trickle of leaked packets from an
        # 80 % drop burst must not count as life.
        window_start_time, window_start_bytes = self._progress_history[0]
        if now - window_start_time < STALL_TIMEOUT_S:
            return
        if total_bytes - window_start_bytes >= STALL_MIN_BYTES:
            return
        oldest_pending = min(s.requested_at for s in pending)
        if now - oldest_pending < STALL_TIMEOUT_S:
            return
        if self._resets >= MAX_RESETS:
            self._finish(broken=True)
            return
        self._resets += 1
        for stream in pending:
            self.client.reset_stream(stream)
        self.sim.schedule(RESET_BACKOFF_S, self._rerequest_missing)

    # -- connection-loss recovery (fresh connection + re-request) -----------

    def _begin_reconnect(self) -> None:
        """Schedule a redial with capped exponential backoff."""
        self._reconnecting = True
        self._reconnects += 1
        delay = min(RECONNECT_BACKOFF_CAP_S,
                    RECONNECT_BACKOFF_S * (2 ** (self._reconnects - 1)))
        self.sim.schedule(delay, self._do_reconnect)

    def _do_reconnect(self) -> None:
        if self._finished:
            return
        # Clear the flag before dialling: if this attempt also dies the
        # stall checker sees `broken` again and either retries (under
        # the cap) or declares the load broken.
        self._reconnecting = False
        self.client.reconnect(self._on_reconnected)

    def _on_reconnected(self) -> None:
        if self._finished:
            return
        # The dead connection's silence must not count against the
        # fresh one's stall window.
        self._progress_history = deque()
        self._rerequest_missing()

    def _rerequest_missing(self) -> None:
        if self._finished:
            return
        requested_before = {event.path for event in self._requests}
        pending = {s.path for s in self.client.pending_streams()}
        missing = [path for path in self._ordered_needed()
                   if path in requested_before
                   and path not in self._completed
                   and path not in pending]
        requests = [
            PlannedRequest(path=path,
                           gap_s=0.0 if i == 0 else REREQUEST_GAP_S,
                           weight=self._weights.get(path, 16))
            for i, path in enumerate(missing)
        ]
        self._schedule_phase(requests, rerequest=True)

    def _ordered_needed(self) -> List[str]:
        """Missing-object re-request order: document, scripted, the rest."""
        order: Dict[str, None] = {}
        if self.plan.html.path in self._needed:
            order[self.plan.html.path] = None
        for request in self.plan.scripted:
            if not request.cached:
                order[request.path] = None
        # Sorted: set iteration order depends on string hash
        # randomization, which would make re-request order (and thus
        # the whole run) vary across interpreter invocations.
        for path in sorted(self._needed):
            order.setdefault(path, None)
        return list(order)

    # -- completion ----------------------------------------------------------------

    def _maybe_finish(self) -> None:
        if self._finished:
            return
        # The scripted phase may not have fired yet even though every
        # already-issued request completed; only finish once every needed
        # path is done.
        if all(path in self._completed for path in self._needed):
            self._finish(broken=False)

    def _on_page_timeout(self) -> None:
        if not self._finished:
            self._finish(broken=True)

    def _finish(self, broken: bool) -> None:
        self._finished = True
        for timer in (self._stall_timer, self._timeout_timer):
            if timer is not None:
                timer.cancel()
        success = all(path in self._completed for path in self._needed)
        self.result = PageLoadResult(
            success=success and not broken,
            broken=broken,
            duration_s=self.sim.now - self._started_at,
            resets=self._resets,
            requests=list(self._requests),
            completed_paths=list(self._completed),
            plan=self.plan,
            reconnects=self._reconnects,
        )
