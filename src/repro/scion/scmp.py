"""SCION Control Message Protocol (SCMP).

SCMP is SCION's ICMP analogue. The multiping measurement campaign
(Section 5.4 of the paper) sends SCMP echo requests over three SCION paths
in parallel; routers emit SCMP errors (e.g. "external interface down") that
end hosts use to switch paths quickly.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Optional

from repro.errors import ReproError


class ScmpType(enum.Enum):
    ECHO_REQUEST = 128
    ECHO_REPLY = 129
    DESTINATION_UNREACHABLE = 1
    PARAMETER_PROBLEM = 4
    EXTERNAL_INTERFACE_DOWN = 5
    INTERNAL_CONNECTIVITY_DOWN = 6


#: PARAMETER_PROBLEM codes (subset of the SCION SCMP specification).
CODE_PATH_EXPIRED = 1
CODE_UNKNOWN_PATH_INTERFACE = 2

#: DESTINATION_UNREACHABLE code for a bounded egress queue overflowing.
#: Congestion, not failure: receivers back off, they do not mark the
#: interface down.
CODE_QUEUE_FULL = 7


_HEADER = struct.Struct("!BBHHQ")  # type, code, identifier, sequence, info


class ScmpDecodeError(ReproError, ValueError):
    """Raised for truncated or garbage SCMP wire data.

    Corruption faults (chaos layer) can hand the decoder arbitrary bytes;
    silently truncating ``origin_ia`` would turn a corrupted error message
    into a *valid-looking* one for the wrong AS.
    """


@dataclass(frozen=True)
class ScmpMessage:
    """An SCMP message; ``info`` carries type-specific data.

    For EXTERNAL_INTERFACE_DOWN, ``info`` is the failed interface id and
    ``origin_ia`` identifies the AS that generated the error.
    """

    scmp_type: ScmpType
    code: int = 0
    identifier: int = 0
    sequence: int = 0
    info: int = 0
    origin_ia: str = ""

    def encode(self) -> bytes:
        origin = self.origin_ia.encode()
        return (
            _HEADER.pack(
                self.scmp_type.value, self.code, self.identifier,
                self.sequence, self.info,
            )
            + struct.pack("!B", len(origin))
            + origin
        )

    @classmethod
    def decode(cls, raw: bytes) -> "ScmpMessage":
        if len(raw) < _HEADER.size + 1:
            raise ScmpDecodeError(
                f"SCMP message truncated: {len(raw)} bytes, "
                f"need at least {_HEADER.size + 1}"
            )
        type_value, code, identifier, sequence, info = _HEADER.unpack_from(raw, 0)
        offset = _HEADER.size
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
        return cls(scmp_type, code, identifier, sequence, info, origin)


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


def interface_down(origin_ia: str, ifid: int) -> ScmpMessage:
    return ScmpMessage(
        ScmpType.EXTERNAL_INTERFACE_DOWN, info=ifid, origin_ia=origin_ia
    )


def path_expired(origin_ia: str) -> ScmpMessage:
    """The error a router emits when a hop field is past its expiry."""
    return ScmpMessage(
        ScmpType.PARAMETER_PROBLEM, code=CODE_PATH_EXPIRED, origin_ia=origin_ia
    )


def queue_full(origin_ia: str, ifid: int) -> ScmpMessage:
    """The congestion signal for a bounded egress queue overflow.

    ``info`` carries the congested egress interface so senders can back
    off (or pick another path) — but unlike :func:`interface_down` this
    must *not* mark the interface dead: the link is healthy, just busy.
    """
    return ScmpMessage(
        ScmpType.DESTINATION_UNREACHABLE, code=CODE_QUEUE_FULL,
        info=ifid, origin_ia=origin_ia,
    )


def unknown_path_interface(origin_ia: str, ifid: int) -> ScmpMessage:
    """The error for a hop field naming an interface the AS does not have.

    ``info`` carries the offending interface id so end hosts can treat it
    like an interface-down report (the path is unusable either way).
    """
    return ScmpMessage(
        ScmpType.PARAMETER_PROBLEM, code=CODE_UNKNOWN_PATH_INTERFACE,
        info=ifid, origin_ia=origin_ia,
    )
