"""Interface revocations: signed, TTL-bounded "this link is dead" tokens.

The paper's resilience story (Sections 5.4-5.5) needs more than per-host
SCMP reactions: when a border router loses an external interface, the
*network* should stop handing out paths across it.  SCION does this with
revocations — control-plane messages, signed by the AS that observed the
failure, that path servers use to quarantine affected segments and end
hosts use to drop affected paths in one step.

A :class:`Revocation` here is keyed by ``(IA, ifid)`` — the same globally
unique interface identifier the paper builds from ISD-AS numbers plus
AS-local interface ids (Section 5.4) and that :meth:`PathMeta.interfaces`
exposes — so one token matches *every* path crossing the dead interface.
Tokens are TTL-bounded: a revocation that is never refreshed expires on
its own, so a transient failure (or a stray token) cannot suppress a link
forever; a fresh beacon crossing the interface re-validates it earlier.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.scion.addr import IA, AddrError
from repro.scion.crypto.encoding import canonical_bytes
from repro.scion.crypto.rsa import RsaKeyPair, RsaPublicKey, sign, verify
from repro.scion.scmp import CODE_UNKNOWN_PATH_INTERFACE, ScmpMessage, ScmpType

#: Default revocation lifetime.  Long enough to outlive end-host retry
#: cadences, short enough that a healed link is re-tried quickly even if
#: no fresh beacon crosses it (SCION deployments use ~10 s).
DEFAULT_REVOCATION_TTL_S = 10.0


class RevocationError(ValueError):
    """Raised for malformed revocation tokens."""


@dataclass(frozen=True)
class Revocation:
    """One revoked interface: who failed, where, when, and for how long.

    ``signature`` is an RSA signature by the revoking AS over the
    canonical payload; verifiers resolve the AS's public signing key the
    same way beacon verification does.  An unsigned token (signature 0)
    never verifies.
    """

    ia: IA
    ifid: int
    issued_at: float
    ttl_s: float = DEFAULT_REVOCATION_TTL_S
    reason: str = "interface-down"
    signature: int = 0

    def __post_init__(self) -> None:
        if self.ifid <= 0:
            raise RevocationError(f"revocation needs a real ifid, got {self.ifid}")
        if self.ttl_s <= 0:
            raise RevocationError(f"revocation TTL must be positive, got {self.ttl_s}")

    @property
    def key(self) -> str:
        """Globally unique interface id, matching ``PathMeta.interfaces``."""
        return f"{self.ia}#{self.ifid}"

    def expires_at(self) -> float:
        return self.issued_at + self.ttl_s

    def active(self, now: float) -> bool:
        return now < self.expires_at()

    # -- signing ---------------------------------------------------------------

    def payload(self) -> bytes:
        return canonical_bytes(
            {
                "ia": str(self.ia),
                "ifid": self.ifid,
                "issued_at": self.issued_at,
                "ttl_s": self.ttl_s,
                "reason": self.reason,
            }
        )

    def signed_by(self, key: RsaKeyPair) -> "Revocation":
        return replace(self, signature=sign(key, self.payload()))

    def verify(self, public_key: RsaPublicKey) -> bool:
        if not self.signature:
            return False
        return verify(public_key, self.payload(), self.signature)


def revocation_from_scmp(
    message: ScmpMessage,
    now: float,
    ttl_s: float = DEFAULT_REVOCATION_TTL_S,
) -> Optional[Revocation]:
    """An (unsigned) revocation matching an interface-scoped SCMP error.

    Returns None for SCMP messages that are not interface-scoped (echo
    traffic, path-expired parameter problems, errors without an ifid) —
    only a router-attributed dead interface justifies a revocation.
    """
    interface_scoped = message.scmp_type is ScmpType.EXTERNAL_INTERFACE_DOWN or (
        message.scmp_type is ScmpType.PARAMETER_PROBLEM
        and message.code == CODE_UNKNOWN_PATH_INTERFACE
    )
    if not interface_scoped:
        return None
    if not message.origin_ia or not message.info:
        return None
    try:
        origin = IA.parse(message.origin_ia)
    except AddrError as exc:  # malformed origin: no revocation
        raise RevocationError(
            f"SCMP origin {message.origin_ia!r} is not an ISD-AS"
        ) from exc
    return Revocation(ia=origin, ifid=message.info, issued_at=now, ttl_s=ttl_s)


def segment_crosses(segment, ia: IA, ifid: int) -> bool:
    """Does a beacon/segment traverse interface ``ifid`` of ``ia``?

    Checks every AS entry's construction ingress/egress plus advertised
    peering interfaces, so peering-shortcut paths are quarantined too.
    """
    for entry in segment.entries:
        if entry.ia == ia:
            if ifid in (entry.hop.cons_ingress, entry.hop.cons_egress):
                return True
            if any(peer.local_ifid == ifid for peer in entry.peers):
                return True
        # The far end of the link: the peer's ifid on peering entries.
        for peer in entry.peers:
            if peer.peer_ia == ia and peer.peer_ifid == ifid:
                return True
    return False
