"""The dispatcher — and its retirement (paper, Section 4.8).

The dispatcher was a user-space stand-in for a kernel SCION socket layer:
one background process listening on a single fixed UDP port (30041),
demultiplexing all incoming SCION traffic to applications over Unix domain
sockets. It worked, but (a) its processing capacity is shared across all
applications on the host, and (b) because all traffic arrives on one UDP
port, Receive Side Scaling cannot spread load across cores. The
dispatcherless design gives every application its own UDP socket, restoring
RSS and removing the shared bottleneck.

This module models the end-host data paths analytically, for Hercules and
the Section 4.8 ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Dispatcher cost per packet: ~1.4 us => ~700 kpps, in line with a
#: single-core user-space UDP + Unix-domain-socket relay.
DISPATCHER_PER_PACKET_S = 1.4e-6

#: Kernel UDP receive cost per packet per core (no extra IPC hop).
KERNEL_PER_PACKET_S = 0.9e-6

#: XDP skips the socket layer entirely.
XDP_CORE_PPS = 6.0e6


@dataclass(frozen=True)
class EndHostDataPathModel:
    """Analytic throughput of the three end-host data paths the paper
    traversed historically: dispatcher, XDP bypass, dispatcherless.

    ``goodput_pps(offered)`` saturates at the data path's capacity.
    """

    mode: str                     # "dispatcher" | "xdp-bypass" | "dispatcherless"
    cores: int = 4

    def capacity_pps(self) -> float:
        if self.mode == "dispatcher":
            # One shared process, whatever the core count.
            return 1.0 / DISPATCHER_PER_PACKET_S
        if self.mode == "dispatcherless":
            return self.cores * (1.0 / KERNEL_PER_PACKET_S)
        if self.mode == "xdp-bypass":
            return self.cores * XDP_CORE_PPS
        raise ValueError(f"unknown end-host data path mode {self.mode!r}")

    def goodput_pps(self, offered_pps: float) -> float:
        if offered_pps < 0:
            raise ValueError("offered load must be non-negative")
        return min(offered_pps, self.capacity_pps())
