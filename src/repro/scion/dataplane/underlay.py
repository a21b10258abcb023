"""Intra-AS IP underlay ("Layer 2.5").

Section 4.3.1 of the paper: IP is repurposed as a bridging layer to
transport SCION packets across IP-routed network segments within an AS —
end hosts on a Wi-Fi VLAN can reach a border router in a DMZ without any
network overhaul (principle P2, "maximize network reachability").

We model an AS's internal network as a set of IP segments (VLANs/VXLANs)
joined by internal routers; any host can reach any service across segments
with a small per-segment-hop latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ReproError


class UnderlayError(ReproError):
    """Raised for unknown hosts/segments or address collisions."""


@dataclass
class IpSegment:
    """One intra-AS IP segment (a VLAN or VXLAN)."""

    name: str
    kind: str = "vlan"  # "vlan" | "vxlan" | "wifi" | "dmz"
    hosts: Set[str] = field(default_factory=set)


class IntraAsNetwork:
    """Segmented intra-AS IP connectivity.

    Latency between two hosts is ``base_latency_s`` within a segment plus
    ``segment_hop_s`` per routed segment crossing (hosts in a DMZ vs. a
    Wi-Fi VLAN are typically 1-2 routed hops apart).
    """

    def __init__(
        self,
        base_latency_s: float = 0.0004,
        segment_hop_s: float = 0.00025,
    ):
        self.base_latency_s = base_latency_s
        self.segment_hop_s = segment_hop_s
        self._segments: Dict[str, IpSegment] = {}
        self._host_segment: Dict[str, str] = {}
        #: adjacency between segments through internal routers
        self._adjacent: Dict[str, Set[str]] = {}

    def add_segment(self, name: str, kind: str = "vlan") -> IpSegment:
        if name in self._segments:
            raise UnderlayError(f"segment {name!r} already exists")
        segment = IpSegment(name, kind)
        self._segments[name] = segment
        self._adjacent.setdefault(name, set())
        return segment

    def connect_segments(self, a: str, b: str) -> None:
        for name in (a, b):
            if name not in self._segments:
                raise UnderlayError(f"unknown segment {name!r}")
        self._adjacent[a].add(b)
        self._adjacent[b].add(a)

    def add_host(self, ip: str, segment: str) -> None:
        if segment not in self._segments:
            raise UnderlayError(f"unknown segment {segment!r}")
        if ip in self._host_segment:
            raise UnderlayError(f"host {ip!r} already placed")
        self._segments[segment].hosts.add(ip)
        self._host_segment[ip] = segment

    def segment_of(self, ip: str) -> str:
        try:
            return self._host_segment[ip]
        except KeyError:
            raise UnderlayError(f"unknown host {ip!r}") from None

    def segment_distance(self, a_segment: str, b_segment: str) -> Optional[int]:
        """Routed hops between two segments (0 if identical), BFS."""
        if a_segment == b_segment:
            return 0
        visited = {a_segment}
        frontier = [a_segment]
        distance = 0
        while frontier:
            distance += 1
            next_frontier: List[str] = []
            for segment in frontier:
                for neighbor in sorted(self._adjacent[segment]):
                    if neighbor == b_segment:
                        return distance
                    if neighbor not in visited:
                        visited.add(neighbor)
                        next_frontier.append(neighbor)
            frontier = next_frontier
        return None

    def reachable(self, src_ip: str, dst_ip: str) -> bool:
        return (
            self.segment_distance(self.segment_of(src_ip), self.segment_of(dst_ip))
            is not None
        )

    def latency_s(self, src_ip: str, dst_ip: str) -> float:
        """One-way latency between two intra-AS hosts.

        Raises :class:`UnderlayError` if the hosts cannot reach each other
        (disconnected segments) — the failure mode P2 exists to avoid.
        """
        hops = self.segment_distance(self.segment_of(src_ip), self.segment_of(dst_ip))
        if hops is None:
            raise UnderlayError(
                f"no intra-AS route between {src_ip!r} and {dst_ip!r}"
            )
        return self.base_latency_s + hops * self.segment_hop_s
