"""Control-plane PKI: certificates and chain verification.

The hierarchy mirrors SCION's CP-PKI: the TRC anchors *root* keys; roots
sign *CA* certificates; CAs sign short-lived *AS* certificates. AS
certificates sign beacons and topology documents. Section 4.5 of the paper
describes why the short validity (days) forces fully automated renewal —
which :mod:`repro.scion.crypto.ca` provides.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ReproError
from repro.scion.crypto.encoding import canonical_bytes
from repro.scion.crypto.rsa import RsaKeyPair, RsaPublicKey, sign, verify
from repro.scion.crypto.trc import Trc


class CertificateError(ReproError):
    """Raised when a certificate or a chain fails validation."""


class CertType(enum.Enum):
    ROOT = "root"
    CA = "ca"
    AS = "as"


#: Which certificate type may issue which.
_ALLOWED_ISSUANCE = {
    CertType.ROOT: {CertType.CA, CertType.ROOT},
    CertType.CA: {CertType.AS},
    CertType.AS: set(),
}


@dataclass(frozen=True)
class Certificate:
    """A signed binding of a subject to a public key."""

    subject: str
    cert_type: CertType
    public_key: RsaPublicKey
    issuer: str
    not_before: float
    not_after: float
    serial: int
    signature: int = 0

    def payload(self) -> dict:
        return {
            "subject": self.subject,
            "cert_type": self.cert_type.value,
            "public_key": [self.public_key.n, self.public_key.e],
            "issuer": self.issuer,
            "not_before": self.not_before,
            "not_after": self.not_after,
            "serial": self.serial,
        }

    def payload_bytes(self) -> bytes:
        return canonical_bytes(self.payload())

    def valid_at(self, now: float) -> bool:
        return self.not_before <= now < self.not_after

    def signed_by(self, issuer_key: RsaKeyPair) -> "Certificate":
        """Return a copy carrying the issuer's signature."""
        return Certificate(
            **{**self.__dict__, "signature": sign(issuer_key, self.payload_bytes())}
        )

    def verify_signature(self, issuer_public: RsaPublicKey) -> bool:
        return verify(issuer_public, self.payload_bytes(), self.signature)


def make_self_signed_root(
    subject: str, key: RsaKeyPair, not_before: float, not_after: float, serial: int = 1
) -> Certificate:
    """Create a self-signed root certificate."""
    cert = Certificate(
        subject=subject,
        cert_type=CertType.ROOT,
        public_key=key.public,
        issuer=subject,
        not_before=not_before,
        not_after=not_after,
        serial=serial,
    )
    return cert.signed_by(key)


def verify_chain(
    chain: Sequence[Certificate],
    trc: Trc,
    now: float,
) -> None:
    """Verify an AS certificate chain up to a TRC root key.

    ``chain`` is ordered leaf-first: [AS cert, CA cert, root cert]. The root
    certificate's public key must appear among the TRC's root keys.
    """
    if len(chain) < 2:
        raise CertificateError("chain must contain at least leaf and root")
    if not trc.valid_at(now):
        raise CertificateError(f"TRC not valid at t={now}")

    root = chain[-1]
    if root.cert_type is not CertType.ROOT:
        raise CertificateError("chain must terminate in a root certificate")
    trc_keys = {(k.n, k.e) for k in trc.root_keys.values()}
    if (root.public_key.n, root.public_key.e) not in trc_keys:
        raise CertificateError("root certificate key is not anchored in the TRC")
    if not root.verify_signature(root.public_key):
        raise CertificateError("root certificate self-signature invalid")

    for cert, issuer_cert in zip(chain, chain[1:]):
        if not cert.valid_at(now):
            raise CertificateError(
                f"certificate for {cert.subject!r} expired or not yet valid at {now}"
            )
        if cert.cert_type not in _ALLOWED_ISSUANCE[issuer_cert.cert_type]:
            raise CertificateError(
                f"{issuer_cert.cert_type.value} certificate may not issue "
                f"{cert.cert_type.value} certificates"
            )
        if cert.issuer != issuer_cert.subject:
            raise CertificateError(
                f"issuer mismatch: cert says {cert.issuer!r}, "
                f"chain provides {issuer_cert.subject!r}"
            )
        if not cert.verify_signature(issuer_cert.public_key):
            raise CertificateError(
                f"signature on certificate for {cert.subject!r} invalid"
            )
    if not root.valid_at(now):
        raise CertificateError("root certificate expired")
