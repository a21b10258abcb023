"""An automated certificate authority for SCIERA.

Section 4.5 of the paper: the open-source SCION stack lacked a CA that
interoperated with both Anapaya's CORE and the open-source control plane,
so the authors built one on the smallstep framework. This module models
that CA: it issues short-lived AS certificates (days), supports renewal
ahead of expiry, and records issuance history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from typing import TYPE_CHECKING

from repro.scion.crypto.cppki import Certificate, CertificateError, CertType
from repro.scion.crypto.rsa import RsaKeyPair, RsaPublicKey

if TYPE_CHECKING:  # imported lazily: repro.core pulls in scion modules
    from repro.core.overload import OverloadGuard

#: Default AS certificate lifetime: 3 days, per the paper's "typically just
#: a few days".
DEFAULT_AS_CERT_LIFETIME_S = 3 * 24 * 3600.0

#: Renew when less than this fraction of the lifetime remains.
DEFAULT_RENEWAL_FRACTION = 1.0 / 3.0


@dataclass(frozen=True)
class IssuedCertificate:
    """A certificate plus the chain needed to verify it."""

    certificate: Certificate
    ca_certificate: Certificate
    root_certificate: Certificate

    def chain(self) -> Tuple[Certificate, Certificate, Certificate]:
        return (self.certificate, self.ca_certificate, self.root_certificate)


class CaService:
    """A CA for one ISD, issuing AS certificates with automatic renewal."""

    def __init__(
        self,
        name: str,
        ca_key: RsaKeyPair,
        ca_certificate: Certificate,
        root_certificate: Certificate,
    ):
        if ca_certificate.cert_type is not CertType.CA:
            raise CertificateError("CaService needs a CA certificate")
        if root_certificate.cert_type is not CertType.ROOT:
            raise CertificateError("CaService needs the issuing root certificate")
        self.name = name
        self._key = ca_key
        self.ca_certificate = ca_certificate
        self.root_certificate = root_certificate
        self.as_cert_lifetime_s = DEFAULT_AS_CERT_LIFETIME_S
        #: Optional overload guard for the issuance/renewal endpoint,
        #: attached by assigning this attribute.
        #: Renewals are scheduled well ahead of expiry, so they ride
        #: through admission as critical work (priority 0: a shed renewal
        #: would eventually take the AS's beacons down with it).  A refusal
        #: raises :exc:`~repro.core.overload.OverloadRejected`, which the
        #: supervisor's retry loop treats as transient.
        self.guard: Optional[OverloadGuard] = None
        self._serial = 0
        self.issued: List[Certificate] = []
        #: subject -> latest certificate, the one :meth:`renew` re-issues
        self.latest: Dict[str, IssuedCertificate] = {}

    def issue_as_certificate(
        self,
        subject_ia: str,
        subject_public_key: RsaPublicKey,
        now: float,
        lifetime_s: Optional[float] = None,
    ) -> IssuedCertificate:
        """Issue (or re-issue) a short-lived AS certificate."""
        lifetime = lifetime_s if lifetime_s is not None else self.as_cert_lifetime_s
        if lifetime <= 0:
            raise ValueError("certificate lifetime must be positive")
        if self.guard is not None:
            self.guard.admit(now, priority=0)
        self._serial += 1
        cert = Certificate(
            subject=subject_ia,
            cert_type=CertType.AS,
            public_key=subject_public_key,
            issuer=self.ca_certificate.subject,
            not_before=now,
            not_after=now + lifetime,
            serial=self._serial,
        ).signed_by(self._key)
        issued = IssuedCertificate(cert, self.ca_certificate, self.root_certificate)
        self.issued.append(cert)
        self.latest[subject_ia] = issued
        return issued

    def needs_renewal(self, cert: Certificate, now: float) -> bool:
        """Whether a certificate is within its renewal window (or expired)."""
        lifetime = cert.not_after - cert.not_before
        return now >= cert.not_after - lifetime * DEFAULT_RENEWAL_FRACTION

    def renew(
        self,
        subject_ia: str,
        now: float,
    ) -> IssuedCertificate:
        """Renew the latest certificate for a subject, keeping its key."""
        previous = self.latest.get(subject_ia)
        if previous is None:
            raise CertificateError(
                f"no certificate on record for {subject_ia!r}; issue one first"
            )
        return self.issue_as_certificate(
            subject_ia, previous.certificate.public_key, now
        )

    def issuance_count(self, subject_ia: Optional[str] = None) -> int:
        if subject_ia is None:
            return len(self.issued)
        return sum(1 for c in self.issued if c.subject == subject_ia)
