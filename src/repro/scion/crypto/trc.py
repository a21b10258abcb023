"""Trust Root Configurations (TRCs).

A TRC is the trust anchor of one ISD: it names the ISD's core ASes, carries
the root public keys, and defines the update policy (voting quorum). The
*base* TRC of an ISD is distributed out-of-band (or pinned via TLS at
bootstrap, Section 4.1.2 of the paper); every later TRC is verified through
*TRC chaining*: a successor is valid iff a quorum of the predecessor's
voters signed it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro.errors import ReproError
from repro.scion.crypto.encoding import canonical_bytes
from repro.scion.crypto.rsa import RsaKeyPair, RsaPublicKey, sign, verify


class TrcError(ReproError):
    """Raised when a TRC or a TRC update fails validation."""


@dataclass(frozen=True)
class Vote:
    """One voter's signature over a TRC payload."""

    voter: str
    signature: int


@dataclass(frozen=True)
class Trc:
    """A Trust Root Configuration for one ISD."""

    isd: int
    serial: int
    base_serial: int
    not_before: float
    not_after: float
    core_ases: Tuple[str, ...]
    authoritative_ases: Tuple[str, ...]
    #: voter name -> root public key (n, e)
    root_keys: Dict[str, RsaPublicKey]
    voting_quorum: int
    description: str = ""
    votes: Tuple[Vote, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.serial < self.base_serial:
            raise TrcError("serial must be >= base_serial")
        if self.not_after <= self.not_before:
            raise TrcError("TRC validity window is empty")
        if self.voting_quorum < 1 or self.voting_quorum > len(self.root_keys):
            raise TrcError(
                f"quorum {self.voting_quorum} impossible with "
                f"{len(self.root_keys)} voters"
            )
        if not self.core_ases:
            raise TrcError("a TRC must name at least one core AS")

    @property
    def is_base(self) -> bool:
        return self.serial == self.base_serial

    def payload(self) -> dict:
        """The signed portion of the TRC (everything except the votes)."""
        return {
            "isd": self.isd,
            "serial": self.serial,
            "base_serial": self.base_serial,
            "not_before": self.not_before,
            "not_after": self.not_after,
            "core_ases": list(self.core_ases),
            "authoritative_ases": list(self.authoritative_ases),
            "root_keys": {
                name: [key.n, key.e] for name, key in sorted(self.root_keys.items())
            },
            "voting_quorum": self.voting_quorum,
            "description": self.description,
        }

    def payload_bytes(self) -> bytes:
        return canonical_bytes(self.payload())

    def with_votes(self, signers: Dict[str, RsaKeyPair]) -> "Trc":
        """Return a copy of this TRC carrying votes from ``signers``."""
        message = self.payload_bytes()
        votes = tuple(
            Vote(name, sign(key, message)) for name, key in sorted(signers.items())
        )
        return Trc(**{**self.__dict__, "votes": votes})

    def valid_at(self, now: float) -> bool:
        return self.not_before <= now < self.not_after

    # -- verification ----------------------------------------------------------

    def verify_base(self) -> None:
        """A base TRC must be self-signed by a quorum of its own voters."""
        if not self.is_base:
            raise TrcError("verify_base called on a non-base TRC")
        self._check_votes(self.root_keys, self.voting_quorum)

    def verify_update(self, predecessor: "Trc") -> None:
        """Verify this TRC as the successor of ``predecessor`` (chaining)."""
        if self.isd != predecessor.isd:
            raise TrcError(
                f"ISD mismatch in TRC update: {predecessor.isd} -> {self.isd}"
            )
        if self.serial != predecessor.serial + 1:
            raise TrcError(
                f"non-consecutive TRC serial: {predecessor.serial} -> {self.serial}"
            )
        if self.base_serial != predecessor.base_serial:
            raise TrcError("TRC update may not change the base serial")
        # Votes must come from the *predecessor's* voters — that is the chain.
        self._check_votes(predecessor.root_keys, predecessor.voting_quorum)

    def _check_votes(self, keys: Dict[str, RsaPublicKey], quorum: int) -> None:
        message = self.payload_bytes()
        valid_voters = set()
        for vote in self.votes:
            key = keys.get(vote.voter)
            if key is None:
                raise TrcError(f"vote from unknown voter {vote.voter!r}")
            if not verify(key, message, vote.signature):
                raise TrcError(f"invalid signature from voter {vote.voter!r}")
            valid_voters.add(vote.voter)
        if len(valid_voters) < quorum:
            raise TrcError(
                f"only {len(valid_voters)} valid votes, quorum is {quorum}"
            )


def verify_trc_chain(chain: Sequence[Trc]) -> None:
    """Verify a base TRC followed by consecutive updates."""
    if not chain:
        raise TrcError("empty TRC chain")
    chain[0].verify_base()
    for prev, cur in zip(chain, chain[1:]):
        cur.verify_update(prev)
