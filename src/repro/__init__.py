"""repro: reproduction of "Depending on HTTP/2 for Privacy? Good Luck!"
(DSN 2020).

The package implements, from scratch, the paper's serialization attack
on HTTP/2 multiplexing together with every substrate it runs on: a
discrete-event network simulator, TCP Reno, a TLS record layer, an
HTTP/2 stack (multi-worker server + browser-like client), the synthetic
target website, traffic-analysis classifiers, and defenses.

Quickstart::

    from repro import AttackConfig, SessionConfig, run_session

    result = run_session(SessionConfig(seed=1, attack=AttackConfig()))
    print(result.report.predicted_labels)   # adversary's view
    print(result.permutation)               # ground truth

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.core.adversary import AttackReport, Http2SerializationAttack
from repro.core.estimator import ObjectEstimate, SizeEstimator
from repro.core.metrics import degree_of_multiplexing, object_serialized
from repro.core.phases import (
    AttackConfig,
    AttackPhase,
    full_attack_config,
    jitter_only_config,
    jitter_plus_throttle_config,
)
from repro.core.predictor import ObjectPredictor, SizeIdentityMap
from repro.experiments.session import (
    SessionConfig,
    SessionResult,
    isidewith_size_map,
    run_session,
)
from repro.faults import FaultEvent, FaultInjector, FaultPlan, plan_for_intensity
from repro.simnet.engine import Simulator
from repro.website.isidewith import PARTIES, build_isidewith_site

__version__ = "1.0.0"

__all__ = [
    "AttackConfig",
    "AttackPhase",
    "AttackReport",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "Http2SerializationAttack",
    "ObjectEstimate",
    "ObjectPredictor",
    "PARTIES",
    "SessionConfig",
    "SessionResult",
    "Simulator",
    "SizeEstimator",
    "SizeIdentityMap",
    "__version__",
    "build_isidewith_site",
    "degree_of_multiplexing",
    "full_attack_config",
    "isidewith_size_map",
    "jitter_only_config",
    "jitter_plus_throttle_config",
    "object_serialized",
    "plan_for_intensity",
    "run_session",
]
