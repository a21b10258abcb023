"""SCION packets and the IP-UDP "Layer 2.5" encapsulation.

The wire format here is a compact, struct-based rendition of the SCION
header: address header (src/dst ISD-AS + host IP + port), path header
(segments of info + hop fields with a current-hop pointer), and payload.
``encode``/``decode`` round-trip exactly, which the property-based tests
exercise; the simulated border routers and dispatcher operate on the
decoded form.

Within an AS, SCION packets travel inside UDP/IP ("Layer 2.5",
Section 4.3.1 of the paper); :class:`UnderlayFrame` models that
encapsulation so that end hosts in arbitrary IP segments can reach their
border router.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.scion.addr import IA, HostAddr
from repro.scion.crypto.mac import MAC_LEN
from repro.scion.path import (
    DataplanePath,
    HopField,
    InfoField,
    PathError,
    PathSegmentHops,
)


class PacketError(Exception):
    """Raised when encoding or decoding a packet fails."""


_FIXED = struct.Struct("!BBHH")      # version, flags, curr_hop, payload kind
_ADDR = struct.Struct("!QH")         # IA int, port (host ip as length-prefixed)
_INFO = struct.Struct("!IHBH")       # timestamp, seg_id, cons_dir, num hops
_HOP = struct.Struct("!QHHIH")       # IA int, ingress, egress, expiry, beta

VERSION = 1

#: payload kinds
KIND_UDP = 0
KIND_SCMP = 1


@dataclass
class ScionPacket:
    """A SCION packet in flight."""

    src: HostAddr
    dst: HostAddr
    path: DataplanePath
    payload: bytes = b""
    kind: int = KIND_UDP
    curr_hop: int = 0

    def current(self) -> Tuple[HopField, InfoField]:
        hops = self.path.hops()
        if not (0 <= self.curr_hop < len(hops)):
            raise PacketError(
                f"hop pointer {self.curr_hop} out of range [0, {len(hops)})"
            )
        return hops[self.curr_hop]

    def advance(self) -> None:
        self.curr_hop += 1

    def size_bytes(self) -> int:
        return len(self.encode())

    def reversed(self) -> "ScionPacket":
        """The reply packet: src/dst swapped, path reversed.

        Path reversal flips each segment's direction flag and reverses the
        segment order — hop fields are reused unchanged, exactly as SCION
        replies reuse the received path.
        """
        rev_segments = tuple(
            PathSegmentHops(
                info=InfoField(
                    timestamp=seg.info.timestamp,
                    seg_id=seg.info.seg_id,
                    cons_dir=not seg.info.cons_dir,
                ),
                hops=seg.hops,
            )
            for seg in reversed(self.path.segments)
        )
        return ScionPacket(
            src=self.dst,
            dst=self.src,
            path=DataplanePath(rev_segments),
            payload=self.payload,
            kind=self.kind,
            curr_hop=0,
        )

    # -- wire format -----------------------------------------------------------

    def encode(self) -> bytes:
        out = bytearray()
        out += _FIXED.pack(VERSION, 0, self.curr_hop, self.kind)
        for addr in (self.src, self.dst):
            out += _ADDR.pack(addr.ia.to_int(), addr.port)
            host = addr.host.encode()
            out += struct.pack("!B", len(host)) + host
        out += struct.pack("!B", len(self.path.segments))
        for seg in self.path.segments:
            out += _INFO.pack(
                seg.info.timestamp, seg.info.seg_id,
                1 if seg.info.cons_dir else 0, len(seg.hops),
            )
            for hop in seg.hops:
                if len(hop.mac) != MAC_LEN:
                    raise PacketError(f"hop MAC must be {MAC_LEN} bytes")
                out += _HOP.pack(
                    hop.ia.to_int(), hop.cons_ingress, hop.cons_egress,
                    hop.expiry, hop.beta,
                )
                out += hop.mac
        out += struct.pack("!I", len(self.payload)) + self.payload
        return bytes(out)

    @classmethod
    def decode(cls, raw: bytes) -> "ScionPacket":
        try:
            return cls._decode(raw)
        except (struct.error, IndexError, ValueError) as exc:
            raise PacketError(f"malformed packet: {exc}") from exc

    @classmethod
    def _decode(cls, raw: bytes) -> "ScionPacket":
        offset = 0
        version, _flags, curr_hop, kind = _FIXED.unpack_from(raw, offset)
        offset += _FIXED.size
        if version != VERSION:
            raise PacketError(f"unsupported version {version}")

        addrs: List[HostAddr] = []
        for _ in range(2):
            ia_int, port = _ADDR.unpack_from(raw, offset)
            offset += _ADDR.size
            (host_len,) = struct.unpack_from("!B", raw, offset)
            offset += 1
            host = raw[offset:offset + host_len].decode()
            offset += host_len
            addrs.append(HostAddr(IA.from_int(ia_int), host, port))

        (num_segments,) = struct.unpack_from("!B", raw, offset)
        offset += 1
        segments: List[PathSegmentHops] = []
        for _ in range(num_segments):
            timestamp, seg_id, cons_dir, num_hops = _INFO.unpack_from(raw, offset)
            offset += _INFO.size
            hops: List[HopField] = []
            for _ in range(num_hops):
                ia_int, ingress, egress, expiry, beta = _HOP.unpack_from(raw, offset)
                offset += _HOP.size
                mac = raw[offset:offset + MAC_LEN]
                if len(mac) != MAC_LEN:
                    raise PacketError("truncated hop MAC")
                offset += MAC_LEN
                hops.append(
                    HopField(IA.from_int(ia_int), ingress, egress, expiry, beta, mac)
                )
            segments.append(
                PathSegmentHops(
                    InfoField(timestamp, seg_id, bool(cons_dir)), tuple(hops)
                )
            )

        (payload_len,) = struct.unpack_from("!I", raw, offset)
        offset += 4
        payload = raw[offset:offset + payload_len]
        if len(payload) != payload_len:
            raise PacketError("truncated payload")

        try:
            path = DataplanePath(tuple(segments))
        except PathError as exc:
            raise PacketError(str(exc)) from exc
        return cls(
            src=addrs[0], dst=addrs[1], path=path,
            payload=payload, kind=kind, curr_hop=curr_hop,
        )


@dataclass(frozen=True)
class UnderlayFrame:
    """An IP-UDP frame carrying a SCION packet across one intra-AS segment.

    ``src_ip``/``dst_ip`` are intra-AS IP endpoints (end host, border
    router, or bootstrapping server); ``dst_port`` is the fixed dispatcher
    port in dispatcher deployments, or the application's own port in
    dispatcherless mode (Section 4.8).
    """

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    scion_payload: bytes

    #: The historic fixed dispatcher port (scionproto used 30041).
    DISPATCHER_PORT = 30041

    def size_bytes(self) -> int:
        # 20 (IP) + 8 (UDP) + SCION payload.
        return 28 + len(self.scion_payload)
