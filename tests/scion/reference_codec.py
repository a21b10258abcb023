"""The SCION and SCMP wire codec, kept test-side as a reference.

``src/`` never encodes or parses a packet: a packet's wire size is
arithmetic (``ScionPacket.size_bytes`` over the memoised
``repro.scion.packet._path_header``), and routers and hosts read the decoded
form.  This module is the full wire format that size stands for:
``encode_packet``/``decode_packet`` and ``encode_scmp``/``decode_scmp``
round-trip exactly, and the tests require ``size_bytes()`` to equal
``len(encode_packet(packet))``.  ``reverse_packet`` builds the reply a
destination sends back over the received path; ``echo_request``,
``echo_reply`` and ``queue_full`` build the SCMP messages no router in
``src/`` emits.

Kept test-side on purpose (like ``reference_rsa``): ``src/`` has one path,
and the tests hold it to this one.
"""

from __future__ import annotations

import struct
from typing import List

from repro.errors import ReproError
from repro.scion.addr import IA, HostAddr
from repro.scion.crypto.mac import MAC_LEN
from repro.scion.packet import (
    _ADDR,
    _FIXED,
    _HOP,
    _INFO,
    PacketError,
    ScionPacket,
    _path_header,
)
from repro.scion.path import (
    DataplanePath,
    HopField,
    InfoField,
    PathError,
    PathSegmentHops,
)
from repro.scion.scmp import CODE_QUEUE_FULL, ScmpMessage, ScmpType

VERSION = 1

_SCMP_HEADER = struct.Struct("!BBHHQ")  # type, code, identifier, sequence, info


# -- SCION packets --------------------------------------------------------------


def encode_packet(packet: ScionPacket) -> bytes:
    out = bytearray()
    out += _FIXED.pack(VERSION, 0, packet.curr_hop, packet.kind)
    for addr in (packet.src, packet.dst):
        out += _ADDR.pack(addr.ia.to_int(), addr.port)
        host = addr.host.encode()
        out += struct.pack("!B", len(host)) + host
    out += _path_header(packet.path)
    out += struct.pack("!I", len(packet.payload)) + packet.payload
    return bytes(out)


def decode_packet(raw: bytes) -> ScionPacket:
    try:
        return _decode_packet(raw)
    except (struct.error, IndexError, ValueError) as exc:
        raise PacketError(f"malformed packet: {exc}") from exc


def _decode_packet(raw: bytes) -> ScionPacket:
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
    return ScionPacket(
        src=addrs[0], dst=addrs[1], path=path,
        payload=payload, kind=kind, curr_hop=curr_hop,
    )


def reverse_packet(packet: ScionPacket) -> ScionPacket:
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
        for seg in reversed(packet.path.segments)
    )
    return ScionPacket(
        src=packet.dst,
        dst=packet.src,
        path=DataplanePath(rev_segments),
        payload=packet.payload,
        kind=packet.kind,
        curr_hop=0,
    )


# -- SCMP messages --------------------------------------------------------------


class ScmpDecodeError(ReproError, ValueError):
    """Raised for truncated or garbage SCMP wire data.

    A decoder can be handed arbitrary bytes; silently truncating
    ``origin_ia`` would turn a corrupted error message into a
    *valid-looking* one for the wrong AS.
    """


def encode_scmp(message: ScmpMessage) -> bytes:
    origin = message.origin_ia.encode()
    return (
        _SCMP_HEADER.pack(
            message.scmp_type.value, message.code, message.identifier,
            message.sequence, message.info,
        )
        + struct.pack("!B", len(origin))
        + origin
    )


def decode_scmp(raw: bytes) -> ScmpMessage:
    if len(raw) < _SCMP_HEADER.size + 1:
        raise ScmpDecodeError(
            f"SCMP message truncated: {len(raw)} bytes, "
            f"need at least {_SCMP_HEADER.size + 1}"
        )
    type_value, code, identifier, sequence, info = _SCMP_HEADER.unpack_from(raw, 0)
    offset = _SCMP_HEADER.size
    (origin_len,) = struct.unpack_from("!B", raw, offset)
    offset += 1
    if len(raw) != offset + origin_len:
        raise ScmpDecodeError(
            f"SCMP origin truncated or padded: header says {origin_len} "
            f"bytes, {len(raw) - offset} present"
        )
    try:
        origin = raw[offset:offset + origin_len].decode()
    except UnicodeDecodeError as exc:
        raise ScmpDecodeError(f"SCMP origin is not valid UTF-8: {exc}") from exc
    try:
        scmp_type = ScmpType(type_value)
    except ValueError as exc:
        raise ScmpDecodeError(f"unknown SCMP type {type_value}") from exc
    return ScmpMessage(scmp_type, code, identifier, sequence, info, origin)


def echo_request(identifier: int, sequence: int) -> ScmpMessage:
    return ScmpMessage(ScmpType.ECHO_REQUEST, identifier=identifier, sequence=sequence)


def echo_reply(request: ScmpMessage) -> ScmpMessage:
    if request.scmp_type is not ScmpType.ECHO_REQUEST:
        raise ValueError("echo_reply needs an echo request")
    return ScmpMessage(
        ScmpType.ECHO_REPLY,
        identifier=request.identifier,
        sequence=request.sequence,
    )


def queue_full(origin_ia: str, ifid: int) -> ScmpMessage:
    """The congestion signal for a bounded egress queue overflow.

    ``info`` carries the congested egress interface so senders can back
    off (or pick another path) — but unlike ``interface_down`` this must
    *not* mark the interface dead: the link is healthy, just busy.
    """
    return ScmpMessage(
        ScmpType.DESTINATION_UNREACHABLE, code=CODE_QUEUE_FULL,
        info=ifid, origin_ia=origin_ia,
    )
