"""Hercules: high-speed multipath bulk transfer over SCION.

Section 4.7.1 of the paper: Hercules moves large data sets (clinical
trials, simulation outputs) across the Science-DMZ using SCION's multipath
capability; Section 4.8 explains why it originally had to bypass the
dispatcher with XDP — the dispatcher's single process capped throughput.

The transfer model stripes a file across the selected paths, each path
contributing bandwidth bounded by (a) its share of the bottleneck link
capacity and (b) the end-host data path (dispatcher / XDP / per-app
sockets). The completion time and aggregate goodput expose both the
multipath aggregation win and the dispatcher wall for the ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.scion.addr import IA
from repro.scion.dataplane.dispatcher import EndHostDataPathModel
from repro.scion.network import ScionNetwork
from repro.scion.path import PathMeta

#: Hercules frames: jumbo-ish SCION packets.
PACKET_BYTES = 1400


class HerculesError(ReproError):
    """Raised for impossible transfers (no paths, zero size)."""


@dataclass(frozen=True)
class PathAllocation:
    path: PathMeta
    bandwidth_bps: float
    bytes_assigned: int


@dataclass(frozen=True)
class TransferReport:
    size_bytes: int
    paths_used: int
    datapath_mode: str
    goodput_bps: float
    duration_s: float
    allocations: Tuple[PathAllocation, ...]
    endhost_limited: bool   # True when the end-host stack was the bottleneck

    @property
    def goodput_gbps(self) -> float:
        return self.goodput_bps / 1e9


class HerculesTransfer:
    """Plan and evaluate one multipath bulk transfer."""

    def __init__(
        self,
        network: ScionNetwork,
        src: IA,
        dst: IA,
        datapath: Optional[EndHostDataPathModel] = None,
        per_path_bandwidth_bps: float = 10e9,
    ):
        self.network = network
        self.src = src
        self.dst = dst
        self.datapath = datapath or EndHostDataPathModel("xdp-bypass", cores=8)
        self.per_path_bandwidth_bps = per_path_bandwidth_bps

    def select_paths(self, max_paths: int = 4) -> List[PathMeta]:
        """Most-disjoint-first selection: disjoint paths do not share a
        bottleneck, so their bandwidth aggregates."""
        active = self.network.active_paths(self.src, self.dst)
        if not active:
            raise HerculesError(f"no active paths {self.src} -> {self.dst}")
        chosen: List[PathMeta] = [active[0]]
        remaining = active[1:]
        while remaining and len(chosen) < max_paths:
            best = max(
                remaining,
                key=lambda m: (
                    min(m.disjointness(c) for c in chosen),
                    -m.latency_estimate_s,
                ),
            )
            remaining.remove(best)
            chosen.append(best)
        return chosen

    def run(self, size_bytes: int, max_paths: int = 4) -> TransferReport:
        if size_bytes <= 0:
            raise HerculesError("transfer size must be positive")
        paths = self.select_paths(max_paths)

        # Network ceiling: disjoint paths aggregate; paths sharing links
        # split the shared capacity (approximated pairwise).
        path_bw: List[float] = []
        for index, meta in enumerate(paths):
            sharing = 1
            for other_index, other in enumerate(paths):
                if other_index == index:
                    continue
                if meta.disjointness(other) < 0.5:
                    sharing += 1
            path_bw.append(self.per_path_bandwidth_bps / sharing)
        network_bps = sum(path_bw)

        # End-host ceiling: the data path caps aggregate packet rate.
        endhost_bps = self.datapath.capacity_pps() * PACKET_BYTES * 8
        goodput = min(network_bps, endhost_bps)
        endhost_limited = endhost_bps < network_bps

        allocations = []
        for meta, bw in zip(paths, path_bw):
            share = bw / network_bps
            allocations.append(
                PathAllocation(
                    path=meta,
                    bandwidth_bps=goodput * share,
                    bytes_assigned=int(size_bytes * share),
                )
            )
        slowest_rtt = max(meta.latency_estimate_s * 2 for meta in paths)
        duration = size_bytes * 8 / goodput + slowest_rtt
        return TransferReport(
            size_bytes=size_bytes,
            paths_used=len(paths),
            datapath_mode=self.datapath.mode,
            goodput_bps=goodput,
            duration_s=duration,
            allocations=tuple(allocations),
            endhost_limited=endhost_limited,
        )


def datapath_ablation(
    network: ScionNetwork,
    src: IA,
    dst: IA,
    size_bytes: int = 10 * 1024**3,
    cores: int = 8,
    per_path_bandwidth_bps: float = 20e9,
) -> Dict[str, TransferReport]:
    """The Section 4.8 story in one call: dispatcher vs XDP vs per-app
    sockets for the same multipath transfer.

    The default per-path capacity matches the SCIONabled 20 Gbps KREONET
    ring of the Science-DMZ deployment (Section 4.7.1) — ample network
    headroom, so the dispatcher's shared process is what hits the wall.
    """
    out: Dict[str, TransferReport] = {}
    for mode in ("dispatcher", "dispatcherless", "xdp-bypass"):
        transfer = HerculesTransfer(
            network, src, dst,
            datapath=EndHostDataPathModel(mode, cores=cores),
            per_path_bandwidth_bps=per_path_bandwidth_bps,
        )
        out[mode] = transfer.run(size_bytes)
    return out
