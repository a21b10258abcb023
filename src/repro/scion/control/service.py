"""The per-AS control service.

"Deploying a SCION AS requires only a single server running a control
service and a border router" (Section 4.3.2 of the paper). The control
service bundles the AS's identities and control-plane state: its signing
key and certificate chain, the secret forwarding key, a trust store of
TRCs, and the local path server.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.scion.addr import IA
from repro.scion.control.path_server import LocalPathServer
from repro.scion.crypto.ca import CaService, IssuedCertificate
from repro.scion.crypto.keys import SymmetricKey
from repro.scion.crypto.rsa import RsaKeyPair
from repro.scion.crypto.trc import Trc, TrcError
from repro.scion.topology import AsTopology


#: How long a superseded TRC keeps verifying segments after its successor
#: lands.  SCION production deployments use grace periods of hours so that
#: in-flight segments signed under the predecessor stay usable while every
#: AS re-issues its chain under the new roots.
DEFAULT_TRC_GRACE_S = 6 * 3600.0


class TrustStore:
    """Per-AS store of TRCs, validated through TRC chaining.

    A rollover (adding a successor TRC) opens a *grace window*: for
    :data:`DEFAULT_TRC_GRACE_S` after the successor arrives, the superseded TRC is
    still offered to verifiers via :meth:`verifying_trcs`, so segments
    whose certificate chains anchor in the predecessor's roots remain
    verifiable while the ISD re-issues its chains.
    """

    def __init__(self) -> None:
        self._chains: Dict[int, List[Trc]] = {}
        #: (isd, serial) -> time the successor of that TRC was added
        self._superseded_at: Dict[tuple, float] = {}

    def add_trc(self, trc: Trc, now: Optional[float] = None) -> None:
        """Add a TRC; base TRCs start a chain, updates must chain validly.

        ``now`` stamps the rollover time, which anchors the predecessor's
        grace window; without it the predecessor gets no grace.
        """
        chain = self._chains.get(trc.isd)
        if chain is None:
            trc.verify_base()
            self._chains[trc.isd] = [trc]
            return
        predecessor = chain[-1]
        if trc.serial <= predecessor.serial:
            raise TrcError(
                f"TRC serial {trc.serial} does not extend the chain for "
                f"ISD {trc.isd} (latest serial {predecessor.serial})"
            )
        trc.verify_update(predecessor)
        chain.append(trc)
        if now is not None:
            self._superseded_at[(trc.isd, predecessor.serial)] = now

    def latest(self, isd: int) -> Trc:
        chain = self._chains.get(isd)
        if not chain:
            raise TrcError(f"no TRC for ISD {isd}")
        return chain[-1]

    def chain(self, isd: int) -> List[Trc]:
        chain = self._chains.get(isd)
        if not chain:
            raise TrcError(f"no TRC for ISD {isd}")
        return list(chain)

    def verifying_trcs(self, isd: int, now: Optional[float] = None) -> List[Trc]:
        """TRCs acceptable for verification at ``now``, latest first.

        Always contains the latest TRC; additionally contains the directly
        superseded TRC while the rollover grace window is open.
        """
        chain = self._chains.get(isd)
        if not chain:
            raise TrcError(f"no TRC for ISD {isd}")
        out = [chain[-1]]
        if now is not None and len(chain) >= 2:
            predecessor = chain[-2]
            superseded_at = self._superseded_at.get((isd, predecessor.serial))
            if (
                superseded_at is not None
                and now < superseded_at + DEFAULT_TRC_GRACE_S
            ):
                out.append(predecessor)
        return out

    def grace_open(self, isd: int, now: float) -> bool:
        """Whether a rollover grace window is currently open for ``isd``."""
        return len(self.verifying_trcs(isd, now)) > 1


@dataclass
class ControlService:
    """Control-plane state of one AS."""

    topology: AsTopology
    signing_key: RsaKeyPair
    forwarding_key: SymmetricKey
    certificate: IssuedCertificate
    path_server: LocalPathServer
    trust_store: TrustStore = field(default_factory=TrustStore)

    @property
    def ia(self) -> IA:
        return self.topology.ia

    def renew_certificate(self, ca: CaService, now: float) -> IssuedCertificate:
        """Renew this AS's certificate through the ISD CA (Section 4.5)."""
        issued = ca.issue_as_certificate(
            str(self.ia), self.signing_key.public, now
        )
        self.certificate = issued
        return issued

    def certificate_healthy(self, now: float) -> bool:
        cert = self.certificate.certificate
        return cert.not_before <= now < cert.not_after
