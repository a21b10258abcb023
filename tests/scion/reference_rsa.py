"""The slow, obviously-right references for the control plane's signing path.

``sign`` / ``verify`` are ``repro.scion.crypto.rsa`` as it stood before CRT
signing and the public-exponentiation memo: one ``pow(m, d, n)`` per
signature, one ``pow(s, e, n)`` per verification, nothing remembered.
``signing_message`` is ``Beacon._signing_message`` as it stood before it
assembled the canonical JSON from per-entry pieces: the whole prefix rebuilt
as dicts and serialised for every index.

Kept test-side on purpose (like ``reference_combinator``): ``src/`` has one
path, and the differential tests require the fast path to agree with this
one bit for bit.
"""

from __future__ import annotations

import hashlib

from repro.scion.control.segments import Beacon
from repro.scion.crypto.encoding import canonical_bytes
from repro.scion.crypto.rsa import RsaKeyPair, RsaPublicKey


def _encode_digest(message: bytes, n: int) -> int:
    digest = hashlib.sha256(message).digest()
    size = (n.bit_length() - 1) // 8
    if size < len(digest) + 3:
        raise ValueError("modulus too small for SHA-256 signatures")
    padded = b"\x01" + b"\xff" * (size - len(digest) - 2) + b"\x00" + digest
    return int.from_bytes(padded, "big")


def sign(key: RsaKeyPair, message: bytes) -> int:
    return pow(_encode_digest(message, key.n), key.d, key.n)


def verify(key: RsaPublicKey, message: bytes, signature: int) -> bool:
    if not isinstance(signature, int) or not (0 < signature < key.n):
        return False
    try:
        expected = _encode_digest(message, key.n)
    except ValueError:
        return False
    return pow(signature, key.e, key.n) == expected


def signing_message(beacon: Beacon, upto: int) -> bytes:
    prefix = [
        {**entry.payload(), "signature": entry.signature}
        for entry in beacon.entries[:upto]
    ]
    own = beacon.entries[upto].payload()
    return canonical_bytes(
        {
            "timestamp": beacon.timestamp,
            "seg_id": beacon.seg_id,
            "prefix": prefix,
            "entry": own,
        }
    )
