"""SCION addressing: ISD, AS, and ISD-AS (IA) identifiers.

SCION addresses an autonomous system by the pair <ISD, AS>, written
``ISD-AS`` — e.g. ``71-2:0:3b`` (an AS from the SCIERA ISD 71) or
``64-559`` (SWITCH in the Swiss ISD, using a BGP-style AS number).

AS number formatting follows the scionproto convention:

* values < 2**32 ("BGP-compatible") render as plain decimal: ``559``;
* larger values render as three colon-separated 16-bit hex groups:
  ``2:0:3b`` (i.e. 0x0002_0000_003b).

Host addresses within an AS are plain IP addresses (SCION reuses IP for
intra-AS addressing as its "Layer 2.5" underlay).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, total_ordering
from typing import Union

MAX_ISD = (1 << 16) - 1
MAX_AS = (1 << 48) - 1
MAX_BGP_AS = (1 << 32) - 1

_AS_HEX_GROUP = r"[0-9A-Fa-f]{1,4}"
_AS_HEX_RE = re.compile(rf"^({_AS_HEX_GROUP}):({_AS_HEX_GROUP}):({_AS_HEX_GROUP})$")
_IA_RE = re.compile(r"^(\d+)-(.+)$")


class AddrError(ValueError):
    """Raised for malformed ISD/AS/IA strings or out-of-range values."""


def parse_isd(raw: Union[str, int]) -> int:
    """Parse an ISD number, validating the 16-bit range."""
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise AddrError(f"invalid ISD {raw!r}") from None
    if not (0 <= value <= MAX_ISD):
        raise AddrError(f"ISD {value} out of range [0, {MAX_ISD}]")
    return value


def parse_as(raw: Union[str, int]) -> int:
    """Parse an AS number in decimal ("559") or hex-group ("2:0:3b") form."""
    if isinstance(raw, int):
        value = raw
    else:
        text = raw.strip()
        match = _AS_HEX_RE.match(text)
        if match:
            hi, mid, lo = (int(g, 16) for g in match.groups())
            value = (hi << 32) | (mid << 16) | lo
        else:
            try:
                value = int(text)
            except ValueError:
                raise AddrError(f"invalid AS number {raw!r}") from None
            if value > MAX_BGP_AS:
                raise AddrError(
                    f"decimal AS {value} exceeds BGP range; use X:Y:Z hex form"
                )
    if not (0 <= value <= MAX_AS):
        raise AddrError(f"AS {value} out of range [0, {MAX_AS}]")
    return value


def format_as(value: int) -> str:
    """Format an AS number the way scionproto renders it."""
    if not (0 <= value <= MAX_AS):
        raise AddrError(f"AS {value} out of range [0, {MAX_AS}]")
    if value <= MAX_BGP_AS:
        return str(value)
    hi = (value >> 32) & 0xFFFF
    mid = (value >> 16) & 0xFFFF
    lo = value & 0xFFFF
    return f"{hi:x}:{mid:x}:{lo:x}"


@total_ordering
@dataclass(frozen=True, eq=False)
class IA:
    """An <ISD, AS> pair — the inter-domain address of one SCION AS.

    IAs key every hot dictionary of the dataplane (routers, topologies,
    forwarding keys), so equality and hashing are hand-written: the hash is
    precomputed once at construction — as ``hash((isd, asn))``, the exact
    value the dataclass-generated ``__hash__`` produced, so set iteration
    order (and with it every seeded digest) is unchanged — and ``__eq__``
    compares the two ints directly instead of building field tuples, after
    an identity check: :meth:`parse` and the topology hand out shared
    instances, so most comparisons end there.
    """

    isd: int
    asn: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "isd", parse_isd(self.isd))
        object.__setattr__(self, "asn", parse_as(self.asn))
        object.__setattr__(self, "_hash", hash((self.isd, self.asn)))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, IA):
            return self.isd == other.isd and self.asn == other.asn
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    @lru_cache(maxsize=4096)
    def parse(cls, text: str) -> "IA":
        match = _IA_RE.match(text.strip())
        if not match:
            raise AddrError(f"invalid ISD-AS string {text!r} (want 'ISD-AS')")
        return cls(parse_isd(match.group(1)), parse_as(match.group(2)))

    def __str__(self) -> str:
        cached = self.__dict__.get("_str")
        if cached is None:
            cached = f"{self.isd}-{format_as(self.asn)}"
            self.__dict__["_str"] = cached
        return cached

    def __repr__(self) -> str:
        return f"IA({str(self)!r})"

    def __lt__(self, other: "IA") -> bool:
        if not isinstance(other, IA):
            return NotImplemented
        return (self.isd, self.asn) < (other.isd, other.asn)

    def to_int(self) -> int:
        """Pack as the 64-bit wire value (16-bit ISD || 48-bit AS)."""
        return (self.isd << 48) | self.asn

    @classmethod
    def from_int(cls, value: int) -> "IA":
        if not (0 <= value < 1 << 64):
            raise AddrError(f"IA int {value} out of 64-bit range")
        return cls(value >> 48, value & MAX_AS)


@dataclass(frozen=True)
class HostAddr:
    """A SCION end-host address: IA plus an intra-AS IP and UDP port."""

    ia: IA
    host: str
    port: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.port <= 65535):
            raise AddrError(f"port {self.port} out of range")
        if not self.host:
            raise AddrError("host must be non-empty")

    def __str__(self) -> str:
        return f"{self.ia},{self.host}:{self.port}"

    @classmethod
    def parse(cls, text: str) -> "HostAddr":
        try:
            ia_part, host_part = text.split(",", 1)
            host, port_part = host_part.rsplit(":", 1)
            port = int(port_part)
        except ValueError:
            raise AddrError(
                f"invalid host address {text!r} (want 'ISD-AS,host:port')"
            ) from None
        return cls(IA.parse(ia_part), host, port)
