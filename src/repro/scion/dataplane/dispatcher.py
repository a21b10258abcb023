"""The dispatcher — and its retirement (paper, Section 4.8).

The dispatcher was a user-space stand-in for a kernel SCION socket layer:
one background process listening on a single fixed UDP port (30041),
demultiplexing all incoming SCION traffic to applications over Unix domain
sockets. It worked, but (a) its processing capacity is shared across all
applications on the host, and (b) because all traffic arrives on one UDP
port, Receive Side Scaling cannot spread load across cores. The
dispatcherless design gives every application its own UDP socket, restoring
RSS and removing the shared bottleneck.

This module models both data paths at the packet level for the ablation
benchmark, plus an analytic throughput model used by Hercules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import ReproError
from repro.netsim.simulator import Simulator
from repro.obs import CounterBackedStats, Telemetry, resolve


class DispatcherError(ReproError):
    """Raised for invalid registrations (e.g. duplicate ports)."""


class DataPathStats(CounterBackedStats):
    """Registry-backed end-host data path accounting.

    Fields stay readable as attributes; with telemetry enabled they are
    views over ``datapath_*_total`` counter families labelled by mode.
    """

    FIELDS = (
        "delivered", "dropped_queue_full", "dropped_no_listener",
        "busy_time_s",
    )
    PREFIX = "datapath"


class Dispatcher:
    """Single-port, single-core demultiplexer with a bounded queue.

    Every packet costs ``per_packet_s`` of the *one* dispatcher process,
    regardless of how many cores the host has — that is the bottleneck the
    paper hit with Hercules and LightningFilter.
    """

    #: Default per-packet cost: ~1.4 us => ~700 kpps, in line with a
    #: single-core user-space UDP + Unix-domain-socket relay.
    DEFAULT_PER_PACKET_S = 1.4e-6

    def __init__(
        self,
        per_packet_s: float = DEFAULT_PER_PACKET_S,
        queue_limit: int = 4096,
        telemetry: Optional[Telemetry] = None,
    ):
        self.per_packet_s = per_packet_s
        self.queue_limit = queue_limit
        tel = resolve(telemetry)
        self._tracer = tel.tracer
        self.stats = DataPathStats(
            tel.metrics if tel.enabled else None,
            labels={"mode": "dispatcher"},
        )
        self._listeners: Dict[int, Callable[[object], None]] = {}
        self._busy_until = 0.0
        self._queued = 0

    def register(self, port: int, handler: Callable[[object], None]) -> None:
        if port in self._listeners:
            raise DispatcherError(f"port {port} already registered")
        self._listeners[port] = handler

    def receive(self, sim: Simulator, dst_port: int, payload: object) -> None:
        """A packet arrived on the fixed dispatcher port; demux it."""
        handler = self._listeners.get(dst_port)
        if handler is None:
            self.stats.inc("dropped_no_listener")
            if self._tracer.enabled:
                self._tracer.add("dispatcher.drop", now=sim.now,
                                 status="error", reason="no-listener",
                                 port=dst_port)
            return
        if self._queued >= self.queue_limit:
            self.stats.inc("dropped_queue_full")
            if self._tracer.enabled:
                self._tracer.add("dispatcher.drop", now=sim.now,
                                 status="error", reason="queue-full",
                                 port=dst_port)
            return
        start = max(sim.now, self._busy_until)
        done = start + self.per_packet_s
        self._busy_until = done
        self._queued += 1
        self.stats.inc("busy_time_s", self.per_packet_s)
        if self._tracer.enabled:
            # The span covers queue wait + processing; its end time is
            # known at enqueue, so it is closed here (determinism is
            # unaffected: both ends carry explicit simulated times).
            span = self._tracer.open("dispatcher.receive", now=sim.now,
                                     port=dst_port)
            self._tracer.end(span, now=done)
        sim.schedule_at(done, self._deliver, handler, payload)

    def _deliver(self, handler: Callable[[object], None], payload: object) -> None:
        self._queued -= 1
        self.stats.inc("delivered")
        handler(payload)

    def capacity_pps(self) -> float:
        return 1.0 / self.per_packet_s


class DispatcherlessStack:
    """Per-application UDP sockets with RSS across cores.

    Each application's socket is served by the kernel's UDP stack; RSS
    hashes flows across ``cores`` receive queues, so aggregate capacity
    scales with the number of cores (up to the per-core packet cost).
    """

    #: Kernel UDP receive cost per packet per core (no extra IPC hop).
    DEFAULT_PER_PACKET_S = 0.9e-6

    def __init__(
        self,
        cores: int = 4,
        per_packet_s: float = DEFAULT_PER_PACKET_S,
        queue_limit: int = 4096,
        telemetry: Optional[Telemetry] = None,
    ):
        if cores < 1:
            raise ValueError("need at least one core")
        self.cores = cores
        self.per_packet_s = per_packet_s
        self.queue_limit = queue_limit
        tel = resolve(telemetry)
        self._tracer = tel.tracer
        self.stats = DataPathStats(
            tel.metrics if tel.enabled else None,
            labels={"mode": "dispatcherless"},
        )
        self._listeners: Dict[int, Callable[[object], None]] = {}
        self._busy_until = [0.0] * cores
        self._queued = [0] * cores

    def register(self, port: int, handler: Callable[[object], None]) -> None:
        if port in self._listeners:
            raise DispatcherError(f"port {port} already registered")
        self._listeners[port] = handler

    def receive(self, sim: Simulator, dst_port: int, payload: object,
                flow_hash: Optional[int] = None) -> None:
        handler = self._listeners.get(dst_port)
        if handler is None:
            self.stats.inc("dropped_no_listener")
            return
        core = (flow_hash if flow_hash is not None else dst_port) % self.cores
        if self._queued[core] >= self.queue_limit:
            self.stats.inc("dropped_queue_full")
            return
        start = max(sim.now, self._busy_until[core])
        done = start + self.per_packet_s
        self._busy_until[core] = done
        self._queued[core] += 1
        self.stats.inc("busy_time_s", self.per_packet_s)
        sim.schedule_at(done, self._deliver, core, handler, payload)

    def _deliver(self, core: int, handler: Callable[[object], None],
                 payload: object) -> None:
        self._queued[core] -= 1
        self.stats.inc("delivered")
        handler(payload)

    def capacity_pps(self) -> float:
        return self.cores / self.per_packet_s


@dataclass(frozen=True)
class EndHostDataPathModel:
    """Analytic throughput of the three end-host data paths the paper
    traversed historically: dispatcher, XDP bypass, dispatcherless.

    ``goodput_pps(offered)`` saturates at the data path's capacity.
    """

    mode: str                     # "dispatcher" | "xdp-bypass" | "dispatcherless"
    cores: int = 4
    dispatcher_pps: float = 1.0 / Dispatcher.DEFAULT_PER_PACKET_S
    kernel_core_pps: float = 1.0 / DispatcherlessStack.DEFAULT_PER_PACKET_S
    xdp_core_pps: float = 6.0e6   # XDP skips the socket layer entirely

    def capacity_pps(self) -> float:
        if self.mode == "dispatcher":
            return self.dispatcher_pps          # single shared process
        if self.mode == "dispatcherless":
            return self.cores * self.kernel_core_pps
        if self.mode == "xdp-bypass":
            return self.cores * self.xdp_core_pps
        raise ValueError(f"unknown end-host data path mode {self.mode!r}")

    def goodput_pps(self, offered_pps: float) -> float:
        if offered_pps < 0:
            raise ValueError("offered load must be non-negative")
        return min(offered_pps, self.capacity_pps())
