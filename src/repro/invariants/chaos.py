"""Seeded chaos specs: random topologies x sessions x faults x defenses.

A :class:`ChaosSpec` is the declarative description of one fuzzed
session: everything :func:`repro.experiments.chaos.run_cell` needs to
assemble a run with monitors armed, as plain JSON-able data -- so a spec
rides inside a :class:`repro.experiments.runner.RunSpec` (and its cache
key), crosses process boundaries, and can be written to disk as a
reproducer.  :func:`generate_spec` derives spec ``index`` from a master
seed through a string-seeded ``random.Random``, so chaos campaigns are
reproducible run to run.  :func:`shrink_candidates` enumerates the
single-step reductions the failure minimizer tries, in the order tried.

This module is pure data and randomness; the session assembly and the
shrink *driver* live in :mod:`repro.experiments.chaos`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterator, Tuple

from repro.faults.plan import FaultEvent
from repro.faults.scenarios import FLAPPABLE_LINKS

#: Defense stacks the fuzzer cycles through.  ``push`` is excluded: its
#: push map is derived from the isidewith site, not the synthetic sites
#: chaos builds.
CHAOS_DEFENSES = ("none", "padding", "morphing", "random-order", "batching")

#: Server mux schedulers under test.
CHAOS_SCHEDULERS = ("round-robin", "fifo", "weighted")


@dataclass(frozen=True)
class ChaosSpec:
    """One fuzzed session, as cache-key-compatible data."""

    seed: int
    html_size: int
    object_sizes: Tuple[int, ...]
    defense: str
    attack: bool
    scheduler: str
    initial_window_size: int
    max_reconnects: int
    client_bandwidth_bps: float
    client_propagation_s: float
    server_propagation_s: float
    natural_jitter_mean_s: float
    natural_loss_rate: float
    buffer_bytes: int
    fault_events: Tuple[dict, ...] = ()
    time_limit_s: float = 8.0

    def to_jsonable(self) -> dict:
        """Plain-dict form (fault events deep-copied, tuples to lists)."""
        return {
            "seed": self.seed,
            "html_size": self.html_size,
            "object_sizes": list(self.object_sizes),
            "defense": self.defense,
            "attack": self.attack,
            "scheduler": self.scheduler,
            "initial_window_size": self.initial_window_size,
            "max_reconnects": self.max_reconnects,
            "client_bandwidth_bps": self.client_bandwidth_bps,
            "client_propagation_s": self.client_propagation_s,
            "server_propagation_s": self.server_propagation_s,
            "natural_jitter_mean_s": self.natural_jitter_mean_s,
            "natural_loss_rate": self.natural_loss_rate,
            "buffer_bytes": self.buffer_bytes,
            "fault_events": [dict(event) for event in self.fault_events],
            "time_limit_s": self.time_limit_s,
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "ChaosSpec":
        events = tuple(dict(event) for event in data.get("fault_events", ()))
        for event in events:
            FaultEvent.from_jsonable(event)  # validate early, fail loudly
        defense = str(data["defense"])
        if defense not in CHAOS_DEFENSES:
            raise ValueError(f"defense {defense!r} is not one of "
                             f"{', '.join(CHAOS_DEFENSES)}")
        return cls(
            seed=int(data["seed"]),
            html_size=int(data["html_size"]),
            object_sizes=tuple(int(s) for s in data.get("object_sizes", ())),
            defense=defense,
            attack=bool(data["attack"]),
            scheduler=str(data["scheduler"]),
            initial_window_size=int(data["initial_window_size"]),
            max_reconnects=int(data["max_reconnects"]),
            client_bandwidth_bps=float(data["client_bandwidth_bps"]),
            client_propagation_s=float(data["client_propagation_s"]),
            server_propagation_s=float(data["server_propagation_s"]),
            natural_jitter_mean_s=float(data["natural_jitter_mean_s"]),
            natural_loss_rate=float(data["natural_loss_rate"]),
            buffer_bytes=int(data["buffer_bytes"]),
            fault_events=events,
            time_limit_s=float(data.get("time_limit_s", 8.0)),
        )


def generate_spec(master_seed, index: int) -> ChaosSpec:
    """Derive spec ``index`` of a campaign, reproducibly.

    The generator stream is keyed by ``(master_seed, index)`` so every
    spec can be regenerated in isolation (the shrinker and the CLI's
    ``--seed`` replay rely on this).
    """
    rng = random.Random(f"chaos:{master_seed}:{index}")

    n_objects = rng.randrange(0, 11)
    object_sizes = tuple(rng.randrange(400, 50_001) for _ in range(n_objects))

    fault_events = []
    for _ in range(rng.randrange(0, 4)):
        kind = rng.choice(("link_down", "link_down", "middlebox_crash",
                           "server_stall", "server_abort"))
        at_s = round(rng.uniform(0.05, 4.0), 4)
        if kind == "server_abort":
            event = FaultEvent(kind=kind, at_s=at_s)
        elif kind == "link_down":
            event = FaultEvent(kind=kind, at_s=at_s,
                               duration_s=round(rng.uniform(0.05, 1.2), 4),
                               target=rng.choice(FLAPPABLE_LINKS))
        else:
            event = FaultEvent(kind=kind, at_s=at_s,
                               duration_s=round(rng.uniform(0.05, 1.2), 4))
        event.validate()
        fault_events.append(event.to_jsonable())

    return ChaosSpec(
        seed=rng.randrange(1 << 30),
        html_size=rng.randrange(2_000, 90_001),
        object_sizes=object_sizes,
        defense=rng.choice(CHAOS_DEFENSES),
        attack=rng.random() < 0.5,
        scheduler=rng.choice(CHAOS_SCHEDULERS),
        initial_window_size=rng.choice((16_384, 65_535, 262_144)),
        max_reconnects=rng.randrange(0, 3),
        client_bandwidth_bps=float(rng.choice((8_000_000, 40_000_000,
                                               1_000_000_000))),
        client_propagation_s=round(rng.uniform(0.001, 0.010), 6),
        server_propagation_s=round(rng.uniform(0.005, 0.030), 6),
        natural_jitter_mean_s=round(rng.uniform(0.0, 0.003), 6),
        natural_loss_rate=round(rng.uniform(0.0, 0.03), 5),
        buffer_bytes=rng.choice((32_000, 128_000, 256_000)),
        fault_events=tuple(fault_events),
    )


def shrink_candidates(spec: ChaosSpec) -> Iterator[Tuple[str, ChaosSpec]]:
    """Single-step reductions of ``spec``, simplest-first.

    Yields ``(description, candidate)`` pairs; the driver keeps the
    first candidate that still reproduces the violation and restarts
    from it (greedy delta debugging), so the order here is the
    preference order of the final reproducer.
    """
    if spec.attack:
        yield "disable attack", replace(spec, attack=False)
    if spec.defense != "none":
        yield f"drop defense {spec.defense}", replace(spec, defense="none")
    for i in range(len(spec.fault_events)):
        kept = spec.fault_events[:i] + spec.fault_events[i + 1:]
        dropped = spec.fault_events[i]
        yield (f"drop fault {dropped['kind']}@{dropped['at_s']}s",
               replace(spec, fault_events=kept))
    for i in range(len(spec.object_sizes)):
        kept = spec.object_sizes[:i] + spec.object_sizes[i + 1:]
        yield (f"drop object #{i} ({spec.object_sizes[i]}B)",
               replace(spec, object_sizes=kept))
    if spec.natural_jitter_mean_s > 0:
        yield "zero jitter", replace(spec, natural_jitter_mean_s=0.0)
    if spec.natural_loss_rate > 0:
        yield "zero loss", replace(spec, natural_loss_rate=0.0)
    if spec.max_reconnects > 0:
        yield "no reconnects", replace(spec, max_reconnects=0)
    if spec.scheduler != "round-robin":
        yield (f"default scheduler (was {spec.scheduler})",
               replace(spec, scheduler="round-robin"))
