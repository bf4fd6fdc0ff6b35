"""The end-to-end serialization attack (Section V).

:class:`Http2SerializationAttack` wires the traffic monitor, the network
controller and the phase state machine onto a compromised middlebox,
runs the jitter -> throttle -> drop -> serialize pipeline, and finally
recovers object identities from the capture with the size estimator and
predictor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.controller import NetworkController
from repro.core.deinterleave import PartialMatch, PartialMultiplexAnalyzer
from repro.core.estimator import ObjectEstimate, SizeEstimator
from repro.core.observer import RequestSighting, TrafficMonitor
from repro.core.phases import AttackConfig, AttackPhase
from repro.core.predictor import ObjectPredictor, Prediction, SizeIdentityMap
from repro.simnet.middlebox import SERVER_TO_CLIENT, Middlebox
from repro.simnet.trace import TraceRecorder

#: Delay-variation fraction of the "netem" phase-1 style.
NETEM_FRAC = 0.5
#: Extra-wide spacing for the first few re-requests of each burst: the
#: re-served HTML is transmitted while the server's congestion window
#: is still recovering from the drop burst and needs a longer quiet
#: window than steady-state objects.
SERIALIZE_INITIAL_GAP_S = 0.30
#: Re-requests of each burst that get :data:`SERIALIZE_INITIAL_GAP_S`.
SERIALIZE_INITIAL_COUNT = 2
#: Hold even the first re-request this long after the burst ends, so
#: the server finishes retransmitting the holes the burst left behind
#: before the re-served object goes on the wire -- otherwise the
#: recovery backlog convoys the re-serve into the next response.
SERIALIZE_WARMUP_S = 0.8
#: Queue depth, in seconds at the throttled rate, of every throttle.
THROTTLE_BACKLOG_S = 0.5
#: Drop-burst length when no re-request ends it earlier (Section IV-D).
DROP_DURATION_S = 6.0
#: Minimum burst length before the re-request detector may fire.
MIN_DROP_S = 1.0


@dataclass
class AttackReport:
    """Everything the adversary learned from one session."""

    #: Ordered identified objects after the serialize phase began (the
    #: interesting window: re-served HTML + the 8 emblem images).
    predictions: List[Prediction]
    #: Same, as bare labels.
    predicted_labels: List[str]
    #: All size estimates over the whole session (diagnostics).
    all_estimates: List[ObjectEstimate]
    #: Estimates within the serialize window.
    window_estimates: List[ObjectEstimate]
    #: Phase transition times (phase name -> sim time).
    phase_times: Dict[str, float]
    #: GETs counted by the monitor.
    requests_observed: int
    #: Objects identified by the partial-multiplexing analyzer
    #: (Section VII extension): tail-residue + byte-conservation matches
    #: over the serialize window, usable even when runs interleave.
    partial_matches: List[PartialMatch] = field(default_factory=list)
    #: ``partial_matches`` mapped through the size map.
    partial_labels: List[str] = field(default_factory=list)


class Http2SerializationAttack:
    """One attack instance bound to one middlebox and capture."""

    def __init__(self, sim, middlebox: Middlebox, trace: TraceRecorder,
                 config: Optional[AttackConfig] = None,
                 size_map: Optional[SizeIdentityMap] = None,
                 census_sizes: Optional[List[int]] = None):
        self.sim = sim
        self.middlebox = middlebox
        self.trace = trace
        self.config = config or AttackConfig()
        self.config.validate()
        self.size_map = size_map
        #: The full site object-size census (the adversary can crawl its
        #: target); powers the partial-multiplexing analyzer.
        self.census_sizes = census_sizes

        self.monitor = TrafficMonitor(sim)
        self.controller = NetworkController(sim, middlebox)
        self.estimator = SizeEstimator()
        self.phase = AttackPhase.IDLE
        self.phase_times: Dict[str, float] = {}
        self._attached = False
        self._disrupt_started = 0.0
        self._last_get_time = None

    # -- lifecycle ------------------------------------------------------------

    def attach(self) -> None:
        """Install the monitor and the phase-1 policies."""
        if self._attached:
            raise RuntimeError("attack already attached")
        self._attached = True
        config = self.config
        self.middlebox.taps.append(self.monitor)

        if config.uniform_delay_s is not None:
            self.controller.set_uniform_delay(config.uniform_delay_s)
        if config.throttle_bps_at_start is not None:
            self.controller.set_bandwidth(config.throttle_bps_at_start,
                                          THROTTLE_BACKLOG_S)
        if config.spacing_s > 0:
            if config.phase1_style == "netem":
                self.controller.set_request_jitter(config.spacing_s,
                                                   NETEM_FRAC)
            else:
                self.controller.set_request_spacing(config.spacing_s)
        self._enter_phase(AttackPhase.SPACING)

        if config.trigger_request_index is not None:
            self.monitor.on_request_index(config.trigger_request_index,
                                          self._on_trigger)

    def _on_trigger(self, _sighting: RequestSighting) -> None:
        config = self.config
        self._enter_phase(AttackPhase.DISRUPT)
        self._disrupt_started = self.sim.now
        if config.throttle_bps_at_trigger is not None:
            self.controller.set_bandwidth(config.throttle_bps_at_trigger,
                                          THROTTLE_BACKLOG_S)
        if config.drop_rate > 0:
            self.controller.drop_application_packets(
                rate=config.drop_rate, duration_s=DROP_DURATION_S)
        # End the burst early when the client resets or re-requests
        # after a quiet period (the paper's "number of forwarded GET
        # requests" stop criterion); the timer is the fallback.
        self.monitor.on_every_request(self._maybe_detect_rerequest)
        self.monitor.on_every_control(self._maybe_detect_reset)
        self.sim.schedule(DROP_DURATION_S, self._enter_serialize)

    def _maybe_detect_reset(self, now: float) -> None:
        """A volley of small client records while the page is stalled is
        the RST_STREAM burst (Section IV-D): stop dropping immediately,
        before the re-requests even arrive, so the serialize spacing
        (including the warm-up hold) applies to every one of them."""
        if self.phase != AttackPhase.DISRUPT:
            return
        if now - self._disrupt_started < MIN_DROP_S:
            return
        recent = [t for t in self.monitor.control_times
                  if now - t <= 0.5 and t >= self._disrupt_started]
        if len(recent) >= 3:
            self._enter_serialize()

    def _maybe_detect_rerequest(self, sighting: RequestSighting) -> None:
        """A GET after a quiet interval means the client reset its
        streams and is re-requesting: stop dropping, start serializing.

        The quiet-gap requirement keeps speculative requests triggered
        by leaked HTML bytes (20 % of packets survive the burst) from
        ending the burst prematurely.
        """
        if self.phase != AttackPhase.DISRUPT:
            return
        previous = self._last_get_time
        self._last_get_time = sighting.time
        if sighting.time - self._disrupt_started < MIN_DROP_S:
            return
        if previous is not None and sighting.time - previous >= 1.5:
            self._enter_serialize()

    def _enter_serialize(self) -> None:
        if self.phase != AttackPhase.DISRUPT:
            return
        self._enter_phase(AttackPhase.SERIALIZE)
        self.controller.clear_drops()
        self.controller.clear_request_jitter()
        if self.config.serialize_spacing_s > 0:
            self.controller.set_request_spacing(
                self.config.serialize_spacing_s,
                initial_gap_s=SERIALIZE_INITIAL_GAP_S,
                initial_count=SERIALIZE_INITIAL_COUNT,
                hold_first_until=self.sim.now + SERIALIZE_WARMUP_S)

    def _enter_phase(self, phase: AttackPhase) -> None:
        self.phase = phase
        self.phase_times[phase.value] = self.sim.now

    # -- analysis ----------------------------------------------------------------

    @property
    def serialize_started_at(self) -> Optional[float]:
        return self.phase_times.get(AttackPhase.SERIALIZE.value)

    def report(self) -> AttackReport:
        """Post-session analysis of the capture."""
        # Reassemble the server->client records once: the estimator and
        # the partial-multiplexing analyzer both read them.
        records = self.trace.completed_records(SERVER_TO_CLIENT)
        all_estimates = self.estimator.estimate_from_records(records)
        window_start = self.serialize_started_at
        if window_start is None:
            window_estimates = all_estimates
        else:
            window_estimates = [e for e in all_estimates
                                if e.end_time >= window_start]
        partial_matches: List[PartialMatch] = []
        partial_labels: List[str] = []
        if self.census_sizes:
            analyzer = PartialMultiplexAnalyzer(self.census_sizes)
            window_start = self.serialize_started_at or 0.0
            partial_matches = analyzer.analyze(
                [r for r in records if r.end_time >= window_start])
            if self.size_map is not None:
                for match in partial_matches:
                    label = self.size_map.identify(match.size)
                    if label is not None and match.confident:
                        partial_labels.append(label)

        predictions: List[Prediction] = []
        if self.size_map is not None:
            predictor = ObjectPredictor(self.size_map)
            labels = list(self.size_map.labels)
            if "html" in labels:
                # The document is identified anywhere in the window; the
                # images are identified as the consecutive burst the
                # client is known to issue (assumption 5 of the paper).
                parties = [label for label in labels if label != "html"]
                run = predictor.predict_burst(window_estimates, parties)
                html_hits = [p for p in predictor.predict(window_estimates)
                             if p.label == "html"]
                predictions = html_hits[:1] + run
                if (not html_hits and "html" in partial_labels):
                    # The clean-estimate path missed the document, but
                    # the partial-multiplexing analyzer pinned it down
                    # by tail residue + byte conservation.
                    html_size = next(size for size, label in
                                     ((s, self.size_map.identify(s))
                                      for s in self.census_sizes or [])
                                     if label == "html")
                    match = next(m for m in partial_matches
                                 if m.confident
                                 and self.size_map.identify(m.size) == "html")
                    predictions = [Prediction(
                        label="html",
                        estimate=ObjectEstimate(size=html_size,
                                                start_time=match.end_time,
                                                end_time=match.end_time,
                                                n_records=0))] + run
            else:
                predictions = predictor.predict(window_estimates)
        return AttackReport(
            predictions=predictions,
            predicted_labels=[p.label for p in predictions],
            all_estimates=all_estimates,
            window_estimates=window_estimates,
            phase_times=dict(self.phase_times),
            requests_observed=self.monitor.request_count,
            partial_matches=partial_matches,
            partial_labels=partial_labels,
        )
