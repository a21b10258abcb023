"""A compact RSA implementation for the simulated control-plane PKI.

This is real RSA — probabilistic-prime keygen (Miller-Rabin), textbook
hash-then-sign with a fixed-pattern padding (CRT), public verification — sized
for simulation speed rather than production security. Default modulus is 512
bits (two 256-bit primes); tests that exercise the PKI structure do not need
128-bit security, they need genuine asymmetric verification so that forged
beacons, certificates and TRC updates are actually rejected.

Keygen is deterministic given a seed, which keeps network builds
reproducible.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass
from typing import Optional, Tuple

DEFAULT_MODULUS_BITS = 512
PUBLIC_EXPONENT = 65537

# First few hundred primes for cheap trial division before Miller-Rabin.
_SMALL_PRIMES: Tuple[int, ...] = tuple(
    p for p in range(2, 1000)
    if all(p % q for q in range(2, int(p ** 0.5) + 1))
)


def _is_probable_prime(n: int, rng: random.Random, rounds: int = 24) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: random.Random) -> int:
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


@dataclass(frozen=True)
class RsaPublicKey:
    """The public half: modulus and exponent."""

    n: int
    e: int

    def fingerprint(self) -> str:
        """A short stable identifier for this key."""
        digest = hashlib.sha256(f"{self.n}:{self.e}".encode()).hexdigest()
        return digest[:16]


@dataclass(frozen=True)
class RsaKeyPair:
    """An RSA key pair; ``d`` and its CRT form ``p, q, dp, dq, qinv`` are private."""

    n: int
    e: int
    d: int
    p: int
    q: int
    dp: int
    dq: int
    qinv: int

    @classmethod
    def generate(
        cls, bits: int = DEFAULT_MODULUS_BITS, seed: Optional[int] = None
    ) -> "RsaKeyPair":
        if bits < 128:
            raise ValueError(f"modulus of {bits} bits is too small even for tests")
        rng = random.Random(seed)
        half = bits // 2
        while True:
            p = _random_prime(half, rng)
            q = _random_prime(bits - half, rng)
            if p == q:
                continue
            n = p * q
            phi = (p - 1) * (q - 1)
            if phi % PUBLIC_EXPONENT == 0:
                continue
            d = pow(PUBLIC_EXPONENT, -1, phi)
            return cls(
                n=n, e=PUBLIC_EXPONENT, d=d, p=p, q=q,
                dp=d % (p - 1), dq=d % (q - 1), qinv=pow(q, -1, p),
            )

    @property
    def public(self) -> RsaPublicKey:
        return RsaPublicKey(self.n, self.e)


def _encode_digest(message: bytes, n: int) -> int:
    """Hash the message and pad it to just under the modulus size.

    Padding is a fixed 0x01 0xFF.. prefix (PKCS#1 v1.5 style) so that the
    encoded value is large and structured, making naive forgeries fail.
    """
    digest = hashlib.sha256(message).digest()
    size = (n.bit_length() - 1) // 8
    if size < len(digest) + 3:
        raise ValueError("modulus too small for SHA-256 signatures")
    padded = b"\x01" + b"\xff" * (size - len(digest) - 2) + b"\x00" + digest
    return int.from_bytes(padded, "big")


def sign(key: RsaKeyPair, message: bytes) -> int:
    """Sign a message with the private exponent: CRT, two half-size
    exponentiations whose recombination equals ``pow(m, d, n)`` bit for bit."""
    m = _encode_digest(message, key.n)
    m_p = pow(m, key.dp, key.p)
    m_q = pow(m, key.dq, key.q)
    return m_q + key.q * ((key.qinv * (m_p - m_q)) % key.p)


@functools.lru_cache(maxsize=4096)
def _public_op(signature: int, e: int, n: int) -> int:
    """``signature ** e mod n``. Every AS on a beacon's way re-verifies the
    entries its upstreams verified, so most calls repeat. Only this pure
    function is memoised, never a verdict: :func:`verify` compares against
    the digest of the message it was handed on every call."""
    return pow(signature, e, n)


def verify(key: RsaPublicKey, message: bytes, signature: int) -> bool:
    """Verify a signature with the public key. Never raises on bad input."""
    if (
        not isinstance(signature, int)
        or isinstance(signature, bool)
        or not (0 < signature < key.n)
    ):
        return False
    try:
        expected = _encode_digest(message, key.n)
    except ValueError:
        return False
    return _public_op(signature, key.e, key.n) == expected
