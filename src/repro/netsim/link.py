"""Point-to-point link model.

A link connects two named endpoints and carries frames with a propagation
delay, a serialization delay derived from bandwidth, an optional random loss
probability, and an up/down state toggled by failure schedules. Links are
bidirectional; both directions share state and capacity accounting is per
direction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple

from repro.netsim.simulator import Simulator


@dataclass
class LinkStats:
    """Counters for one link, split per direction keyed by sender endpoint."""

    frames_sent: int = 0
    frames_dropped_down: int = 0
    frames_dropped_loss: int = 0
    bytes_sent: int = 0


class Link:
    """A bidirectional point-to-point link.

    Parameters
    ----------
    name:
        Unique name, used by failure schedules ("kreonet-dj-sg").
    a, b:
        Endpoint identifiers (opaque to the link; typically ISD-AS strings
        or router ids).
    latency_s:
        One-way propagation delay.
    bandwidth_bps:
        Capacity per direction; ``None`` means serialization delay is zero
        (useful for control-plane-only simulations).
    loss:
        Independent per-frame loss probability in [0, 1).
    """

    def __init__(
        self,
        name: str,
        a: Any,
        b: Any,
        latency_s: float,
        bandwidth_bps: Optional[float] = None,
        loss: float = 0.0,
        rng: Optional[random.Random] = None,
    ):
        if latency_s < 0:
            raise ValueError(f"latency must be non-negative, got {latency_s}")
        if not (0.0 <= loss < 1.0):
            raise ValueError(f"loss must be in [0, 1), got {loss}")
        self.name = name
        self.a = a
        self.b = b
        self.latency_s = latency_s
        self.bandwidth_bps = bandwidth_bps
        self.loss = loss
        self.up = True
        #: Registered faults, oldest first (see :meth:`add_fault`).
        self._faults: dict = {}
        self.stats = LinkStats()
        self._rng = rng or random.Random(0xC1E2A)
        # Time at which each direction's transmitter becomes free.
        self._tx_free_at = {a: 0.0, b: 0.0}

    def endpoints(self) -> Tuple[Any, Any]:
        return (self.a, self.b)

    def other(self, endpoint: Any) -> Any:
        if endpoint == self.a:
            return self.b
        if endpoint == self.b:
            return self.a
        raise ValueError(f"{endpoint!r} is not an endpoint of link {self.name}")

    def set_up(self, up: bool) -> None:
        self.up = up

    def add_fault(self, fault: Callable[[float, Any], Any]) -> Callable[[], None]:
        """Consult ``fault(now, sender)`` for every frame, after earlier
        registrations: it answers a drop reason (``str``) or ``(extra one-way
        delay, copies)``; ``sender`` is the endpoint the frame leaves, so a
        fault can cut one direction and spare the other.  The returned remover
        takes out exactly this registration."""
        def remove() -> None:
            self._faults.pop(remove, None)

        self._faults[remove] = fault
        return remove

    def consult_faults(self, now: float, sender: Any, delay_s: float) -> Any:
        """What the registered faults make of one frame from ``sender``: the
        first drop reason, or ``(delay_s plus each extra delay in registration
        order, copies)``.  Read by :meth:`transmit` and by the analytic walk."""
        copies = 1
        for fault in tuple(self._faults.values()):
            verdict = fault(now, sender)
            if isinstance(verdict, str):
                return verdict
            delay_s, copies = delay_s + verdict[0], copies * verdict[1]
        return delay_s, copies

    def transmit(
        self,
        sim: Simulator,
        sender: Any,
        size_bytes: int,
        deliver: Callable[[], None],
        drop: Optional[Callable[[str], None]] = None,
    ) -> None:
        """Send a frame from ``sender``; call ``deliver`` at the far end.

        Serialization is modeled with a per-direction transmitter that frames
        queue behind (FIFO), so sustained sends above capacity build delay
        rather than disappearing.
        """
        if sender not in self._tx_free_at:
            raise ValueError(f"{sender!r} is not an endpoint of link {self.name}")
        if not self.up:
            self.stats.frames_dropped_down += 1
            if drop:
                drop("link-down")
            return
        delay_s, copies = self.latency_s, 1
        if self._faults:
            verdict = self.consult_faults(sim.now, sender, delay_s)
            if isinstance(verdict, str):
                self.stats.frames_dropped_loss += 1
                if drop:
                    drop(verdict)
                return
            delay_s, copies = verdict
        while copies:  # each copy rolls the link's own loss and queues (FIFO)
            copies -= 1
            if self.loss and self._rng.random() < self.loss:
                self.stats.frames_dropped_loss += 1
                if drop:
                    drop("loss")
                continue
            ser = 0.0
            if self.bandwidth_bps:
                ser = size_bytes * 8 / self.bandwidth_bps
            start = max(sim.now, self._tx_free_at[sender])
            done = start + ser
            self._tx_free_at[sender] = done
            self.stats.frames_sent += 1
            self.stats.bytes_sent += size_bytes
            sim.schedule_at(done + delay_s, self._deliver_if_up, deliver, drop)

    def _deliver_if_up(
        self, deliver: Callable[[], None], drop: Optional[Callable[[str], None]]
    ) -> None:
        # A frame in flight when the link goes down is lost.
        if not self.up:
            self.stats.frames_dropped_down += 1
            if drop:
                drop("link-down")
            return
        deliver()
