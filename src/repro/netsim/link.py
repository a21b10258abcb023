"""Point-to-point link model.

A link connects two named endpoints and carries frames with a propagation
delay and an up/down state toggled by failure schedules. Loss, delay and
duplication come only through the fault seam (:meth:`Link.add_fault`).
Links are bidirectional; both directions share state and transmitter
accounting is per direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

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
        One-way propagation delay.  Frames take no serialization time.
    """

    def __init__(
        self,
        name: str,
        a: Any,
        b: Any,
        latency_s: float,
    ):
        if latency_s < 0:
            raise ValueError(f"latency must be non-negative, got {latency_s}")
        self.name = name
        self.a = a
        self.b = b
        self.latency_s = latency_s
        self.up = True
        #: Registered faults, oldest first (see :meth:`add_fault`).
        self._faults: dict = {}
        self.stats = LinkStats()
        # Time at which each direction's transmitter becomes free.
        self._tx_free_at = {a: 0.0, b: 0.0}

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

        Each direction's transmitter sends frames in FIFO order: a frame
        leaves no earlier than the one before it.
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
        while copies:  # each copy queues (FIFO)
            copies -= 1
            start = max(sim.now, self._tx_free_at[sender])
            self._tx_free_at[sender] = start
            self.stats.frames_sent += 1
            self.stats.bytes_sent += size_bytes
            sim.schedule_at(start + delay_s, self._deliver_if_up, deliver, drop)

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
