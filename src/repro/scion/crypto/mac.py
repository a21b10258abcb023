"""Hop-field MACs.

Every hop field in a SCION path carries a MAC computed by the AS that the
hop belongs to, keyed with that AS's secret forwarding key. A border router
verifies the MAC with one symmetric operation before forwarding — this is
the "efficient symmetric cryptographic operation" of Section 2 of the paper.

The MAC binds the segment timestamp, the hop's expiry, its ingress/egress
interface ids, and a chaining accumulator (``beta``) that ties the hop to
its position in the segment, preventing hop splicing across segments.

Memoization: hop fields are immutable once minted, and the same hop fields
are verified on every packet of a flow, so the expected MAC for a given
``(key, timestamp, expiry, ingress, egress, beta)`` tuple is computed once
and cached (:func:`cached_hop_mac`).  The cache is a pure memo — it never
changes any output, only skips recomputing the HMAC — so seeded experiment
digests do not depend on it.  :func:`hop_mac` is the always-uncached
reference the property tests compare against.
"""

from __future__ import annotations

import struct
from functools import lru_cache

from repro.scion.crypto.keys import SymmetricKey

#: MAC length in bytes (SCION uses 6-byte hop field MACs).
MAC_LEN = 6

#: Bound on distinct (key, hop-input) tuples memoized; at ~90 bytes of key
#: material per entry this caps the cache at a few MB while covering every
#: hop field of a beaconing epoch even on large topologies.
MAC_CACHE_SIZE = 1 << 16

_INPUT = struct.Struct("!IIHHH")  # timestamp, expiry, ingress, egress, beta


def mac_input(timestamp: int, expiry: int, ingress: int, egress: int, beta: int) -> bytes:
    """The canonical byte string a hop MAC is computed over."""
    for name, value, limit in (
        ("timestamp", timestamp, 1 << 32),
        ("expiry", expiry, 1 << 32),
        ("ingress", ingress, 1 << 16),
        ("egress", egress, 1 << 16),
        ("beta", beta, 1 << 16),
    ):
        if not (0 <= value < limit):
            raise ValueError(f"{name}={value} out of range for hop MAC input")
    return _INPUT.pack(timestamp, expiry, ingress, egress, beta)


def hop_mac(
    key: SymmetricKey,
    timestamp: int,
    expiry: int,
    ingress: int,
    egress: int,
    beta: int,
) -> bytes:
    """Compute the truncated hop-field MAC (always uncached)."""
    return key.mac(mac_input(timestamp, expiry, ingress, egress, beta))[:MAC_LEN]


#: Memoized :func:`hop_mac`; bitwise-identical to the uncached result.
cached_hop_mac = lru_cache(maxsize=MAC_CACHE_SIZE)(hop_mac)


def clear_mac_cache() -> None:
    cached_hop_mac.cache_clear()


def mac_cache_info():
    """``functools.lru_cache`` statistics for the hop-MAC memo."""
    return cached_hop_mac.cache_info()


def verify_hop_mac(
    key: SymmetricKey,
    timestamp: int,
    expiry: int,
    ingress: int,
    egress: int,
    beta: int,
    mac: bytes,
) -> bool:
    """Constant-pattern verification of a hop-field MAC.

    The length check short-circuits *before* the MAC computation: a
    wrong-length ``mac`` can never match and computing (or caching) the
    expected value for it would be wasted work.
    """
    if len(mac) != MAC_LEN:
        return False
    try:
        expected = cached_hop_mac(key, timestamp, expiry, ingress, egress, beta)
    except ValueError:
        return False
    # hmac.compare_digest semantics without importing hmac for 6 bytes:
    # timing is irrelevant in simulation, correctness is not.
    return expected == mac


def chain_beta(beta: int, mac: bytes) -> int:
    """Advance the chaining accumulator with a hop's MAC.

    beta' = beta XOR first-16-bits(mac). Each subsequent hop's MAC therefore
    depends on all preceding hops of the segment.
    """
    if len(mac) < 2:
        raise ValueError(
            f"mac too short to chain: need at least 2 of the {MAC_LEN} "
            f"MAC_LEN bytes, got {len(mac)}"
        )
    return (beta ^ int.from_bytes(mac[:2], "big")) & 0xFFFF
