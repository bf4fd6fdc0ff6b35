"""The paper's contribution: the HTTP/2 serialization attack.

Components mirror the paper's adversary architecture (Section V):

* :mod:`repro.core.observer` -- the traffic monitor (``tshark`` role):
  counts GET-carrying records via the cleartext TLS content-type filter.
* :mod:`repro.core.controller` -- the network controller (``tc``/bash
  role): jitter spacing, bandwidth throttling, targeted drops.
* :mod:`repro.core.phases` / :mod:`repro.core.adversary` -- the attack
  state machine (jitter -> throttle -> drop burst -> reset ->
  re-serialize) and the end-to-end attack API.
* :mod:`repro.core.estimator` -- object-size recovery from encrypted
  traces (the sub-MTU delimiter algorithm of Fig. 1).
* :mod:`repro.core.predictor` -- size -> identity matching and sequence
  prediction (the object prediction module).
* :mod:`repro.core.metrics` -- the degree-of-multiplexing metric
  (Section II-A) computed from ground truth, used for evaluation only.
"""

from repro.core.adversary import AttackReport, Http2SerializationAttack
from repro.core.deinterleave import PartialMatch, PartialMultiplexAnalyzer
from repro.core.controller import NetworkController
from repro.core.estimator import ObjectEstimate, SizeEstimator
from repro.core.metrics import ServeSpanIndex, serve_spans
from repro.core.observer import TrafficMonitor
from repro.core.phases import AttackConfig, AttackPhase
from repro.core.predictor import ObjectPredictor, SizeIdentityMap

__all__ = [
    "AttackConfig",
    "AttackPhase",
    "AttackReport",
    "Http2SerializationAttack",
    "NetworkController",
    "ObjectEstimate",
    "PartialMatch",
    "PartialMultiplexAnalyzer",
    "ObjectPredictor",
    "ServeSpanIndex",
    "SizeEstimator",
    "SizeIdentityMap",
    "TrafficMonitor",
    "serve_spans",
]
