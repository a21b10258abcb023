"""SCION packets and their size on the wire.

The wire format is a compact, struct-based rendition of the SCION header:
address header (src/dst ISD-AS + host IP + port), path header (segments of
info + hop fields with a current-hop pointer), and payload.  The simulated
border routers and hosts operate on the decoded form and never encode or
parse a packet; the full codec is kept test-side as a reference
(``tests/scion/reference_codec.py``).  A :class:`DataplanePath` is frozen,
so its encoded path header is built once and kept on the path:
``size_bytes`` (asked at every link crossing of an event-driven packet) is
then arithmetic, not an encoding.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import ReproError
from repro.scion.addr import HostAddr
from repro.scion.crypto.mac import MAC_LEN
from repro.scion.path import DataplanePath


class PacketError(ReproError):
    """Raised when a packet's path header cannot be encoded."""


_FIXED = struct.Struct("!BBHH")      # version, flags, curr_hop, payload kind
_ADDR = struct.Struct("!QH")         # IA int, port (host ip as length-prefixed)
_INFO = struct.Struct("!IHBH")       # timestamp, seg_id, cons_dir, num hops
_HOP = struct.Struct("!QHHIH")       # IA int, ingress, egress, expiry, beta

#: payload kinds
KIND_UDP = 0
KIND_SCMP = 1


def _path_header(path: DataplanePath) -> bytes:
    """The encoded path header: segment count, then each segment's info
    field followed by its hop fields and MACs.

    Memoised in the frozen path's ``__dict__`` (a pure function of its
    segments, so it cannot go stale); a path with a wrong-length MAC raises
    on every call and is never memoised.
    """
    header = path.__dict__.get("_header")
    if header is None:
        out = bytearray(struct.pack("!B", len(path.segments)))
        for seg in path.segments:
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
        header = path.__dict__["_header"] = bytes(out)
    return header


@dataclass
class ScionPacket:
    """A SCION packet in flight."""

    src: HostAddr
    dst: HostAddr
    path: DataplanePath
    payload: bytes = b""
    kind: int = KIND_UDP
    curr_hop: int = 0

    def size_bytes(self) -> int:
        """The packet's encoded length, without encoding it."""
        return (
            _FIXED.size + 2 * (_ADDR.size + 1)
            + len(self.src.host.encode()) + len(self.dst.host.encode())
            + len(_path_header(self.path)) + 4 + len(self.payload)
        )
