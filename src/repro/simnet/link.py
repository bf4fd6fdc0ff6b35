"""Point-to-point links with bandwidth, delay, jitter, loss and queues.

A :class:`Link` is unidirectional; a host pair uses one per direction.
The model is the standard store-and-forward one:

* serialization -- a packet occupies the transmitter for
  ``size * 8 / bandwidth`` seconds; packets queue FIFO behind it,
* a finite buffer -- packets arriving to a full queue are tail-dropped,
* propagation -- constant one-way delay,
* jitter -- an extra per-packet random delay (netem-style).  Delivery
  stays FIFO: a packet never arrives before one accepted ahead of it,
  as on a real link whose queueing delays are correlated,
* random loss -- i.i.d. per-packet drop probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.simnet.engine import Simulator
from repro.simnet.packet import Packet


@dataclass
class LinkConfig:
    """Static parameters of one link direction."""

    bandwidth_bps: float = 1_000_000_000.0
    propagation_s: float = 0.005
    loss_rate: float = 0.0
    buffer_bytes: int = 256_000
    #: Optional per-packet jitter sampler (seconds); receives the link's
    #: random stream.  ``None`` means no jitter.
    jitter: Optional[Callable] = None


@dataclass
class LinkStats:
    """Counters updated as the link operates."""

    sent: int = 0
    delivered: int = 0
    dropped_loss: int = 0
    dropped_queue: int = 0
    dropped_down: int = 0
    bytes_delivered: int = 0


class Link:
    """One direction of a point-to-point link."""

    def __init__(self, sim: Simulator, name: str, config: LinkConfig):
        self.sim = sim
        self.name = name
        self.config = config
        self.stats = LinkStats()
        self._receiver: Optional[Callable[[Packet], None]] = None
        self._busy_until = 0.0
        self._queued_bytes = 0
        self._last_arrival = 0.0
        self._up = True
        self._rng = sim.rng(f"link:{name}")
        #: Packets accepted but not yet serialized: id(packet) -> the
        #: (packet, depart_handle, arrive_handle) triple, so ``set_down``
        #: can drop them (their bits never reached the wire).
        self._queued: dict = {}
        #: Observation taps: each ``tap(event, packet)`` fires with event
        #: one of accept/depart/arrive/drop_loss/drop_queue/drop_down/
        #: down/up.  Subscribe with ``taps.append(fn)``; an unarmed link
        #: loops over an empty list.  Taps only observe.
        self.taps: List[Callable[[str, Optional[Packet]], None]] = []

    def attach(self, receiver: Callable[[Packet], None]) -> None:
        """Set the callable invoked with each delivered packet."""
        self._receiver = receiver

    # -- administrative state (fault injection: flaps, blackholes) --------

    @property
    def up(self) -> bool:
        """Administrative state; a down link blackholes new packets."""
        return self._up

    def set_down(self) -> None:
        """Take the link down.  Packets already serialized or in flight
        still arrive (the bits are on the wire); packets still queued
        behind the transmitter are dropped with them -- their bits never
        reached the wire -- and packets offered while down are dropped.
        Idempotent."""
        if not self._up:
            return
        self._up = False
        queued, self._queued = self._queued, {}
        for packet, depart_handle, arrive_handle in queued.values():
            depart_handle.cancel()
            arrive_handle.cancel()
            self._queued_bytes -= packet.size
            self.stats.dropped_down += 1
            for tap in self.taps:
                tap("drop_down", packet)
        # The transmitter stops mid-queue; nothing occupies it any more.
        self._busy_until = self.sim.now
        for tap in self.taps:
            tap("down", None)

    def set_up(self) -> None:
        """Bring the link back up.  Idempotent."""
        if not self._up:
            for tap in self.taps:
                tap("up", None)
        self._up = True

    def send(self, packet: Packet) -> bool:
        """Enqueue ``packet`` for transmission.

        Returns ``False`` when the packet was dropped (down link, loss
        or full queue), ``True`` when it was accepted.
        """
        if self._receiver is None:
            raise RuntimeError(f"link {self.name} has no receiver attached")
        self.stats.sent += 1
        if not self._up:
            self.stats.dropped_down += 1
            for tap in self.taps:
                tap("drop_down", packet)
            return False
        config = self.config
        if config.loss_rate > 0 and self._rng.random() < config.loss_rate:
            self.stats.dropped_loss += 1
            for tap in self.taps:
                tap("drop_loss", packet)
            return False
        size = packet.size
        if self._queued_bytes + size > config.buffer_bytes:
            self.stats.dropped_queue += 1
            for tap in self.taps:
                tap("drop_queue", packet)
            return False

        # Per-packet hot path: comparisons stand in for ``max()`` and
        # pick the same float.
        sim = self.sim
        now = sim.now
        busy_until = self._busy_until
        depart = ((busy_until if busy_until > now else now)
                  + size * 8.0 / config.bandwidth_bps)
        self._busy_until = depart
        self._queued_bytes += size

        arrival = depart + config.propagation_s
        if config.jitter is not None:
            jitter = config.jitter(self._rng)
            arrival += jitter if jitter > 0.0 else 0.0
        if self._last_arrival > arrival:
            arrival = self._last_arrival
        self._last_arrival = arrival
        depart_handle = sim.schedule_at(depart, self._on_depart, packet)
        arrive_handle = sim.schedule_at(arrival, self._on_arrive, packet)
        self._queued[id(packet)] = (packet, depart_handle, arrive_handle)
        for tap in self.taps:
            tap("accept", packet)
        return True

    def queue_depth_bytes(self) -> int:
        """Bytes currently queued or being serialized."""
        return self._queued_bytes

    def _on_depart(self, packet: Packet) -> None:
        self._queued.pop(id(packet), None)
        self._queued_bytes -= packet.size
        for tap in self.taps:
            tap("depart", packet)

    def _on_arrive(self, packet: Packet) -> None:
        self.stats.delivered += 1
        self.stats.bytes_delivered += packet.size
        for tap in self.taps:
            tap("arrive", packet)
        self._receiver(packet)


def exponential_jitter(mean: float) -> Callable:
    """Jitter sampler with exponential (heavy-ish tail) distribution."""

    def sample(rng) -> float:
        return rng.expovariate(1.0 / mean) if mean > 0 else 0.0

    return sample
