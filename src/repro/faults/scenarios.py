"""Canonical fault scenarios, generated deterministically from a seed.

The generator uses its own string-seeded :class:`random.Random` (string
seeding hashes with SHA-512, stable across processes and interpreter
invocations -- unlike ``hash()``), so the same ``(intensity, seed)``
pair yields the identical plan in every worker of a grid sweep.
"""

from __future__ import annotations

import random

from repro.faults.plan import FaultEvent, FaultPlan

#: Links a scenario may flap (the StandardTopology registry names).
FLAPPABLE_LINKS = ("client->mbox", "mbox->client", "mbox->server",
                   "server->mbox")

#: Relative likelihood of each fault kind in generated scenarios: link
#: trouble dominates real deployments; whole-server aborts are rare.
_KIND_WEIGHTS = (
    ("link_down", 4),
    ("middlebox_crash", 2),
    ("server_stall", 2),
    ("server_abort", 1),
)

#: Events per unit of intensity.
_EVENTS_AT_FULL_INTENSITY = 6

#: Scenario horizon: an undisturbed page load (~2 s) with room for
#: recoveries, so onsets actually hit the session.
_HORIZON_S = 4.0


def plan_for_intensity(intensity: float, seed: int) -> FaultPlan:
    """Build a fault plan whose disruption scales with ``intensity``.

    ``intensity`` runs from 0 (no faults) to 1 (six overlapping faults
    with second-scale outages).  Onsets land in the first ~70 % of the
    horizon so recoveries fit inside it.
    """
    if not 0.0 <= intensity <= 1.0:
        raise ValueError(f"intensity must be in [0, 1], got {intensity}")
    if intensity == 0.0:
        return FaultPlan()

    rng = random.Random(f"faults:{seed}:{intensity!r}")
    count = max(1, int(round(intensity * _EVENTS_AT_FULL_INTENSITY)))
    kinds = [k for k, _ in _KIND_WEIGHTS]
    weights = [w for _, w in _KIND_WEIGHTS]

    events = []
    for _ in range(count):
        kind = rng.choices(kinds, weights=weights)[0]
        at_s = rng.uniform(0.2, max(0.5, _HORIZON_S * 0.7))
        if kind == "server_abort":
            duration_s = 0.0
        else:
            duration_s = rng.uniform(0.1, 0.2 + 1.0 * intensity)
        target = (rng.choice(FLAPPABLE_LINKS)
                  if kind == "link_down" else "")
        events.append(FaultEvent(kind=kind, at_s=round(at_s, 4),
                                 duration_s=round(duration_s, 4),
                                 target=target))
    return FaultPlan(tuple(events)).sorted()
