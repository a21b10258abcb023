"""SCION Control Message Protocol (SCMP).

SCMP is SCION's ICMP analogue. The multiping measurement campaign
(Section 5.4 of the paper) sends SCMP echo requests over three SCION paths
in parallel; routers emit SCMP errors (e.g. "external interface down") that
end hosts use to switch paths quickly.  Messages travel in decoded form;
the wire codec is kept test-side (``tests/scion/reference_codec.py``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


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


def interface_down(origin_ia: str, ifid: int) -> ScmpMessage:
    return ScmpMessage(
        ScmpType.EXTERNAL_INTERFACE_DOWN, info=ifid, origin_ia=origin_ia
    )


def path_expired(origin_ia: str) -> ScmpMessage:
    """The error a router emits when a hop field is past its expiry."""
    return ScmpMessage(
        ScmpType.PARAMETER_PROBLEM, code=CODE_PATH_EXPIRED, origin_ia=origin_ia
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
