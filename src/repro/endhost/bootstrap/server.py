"""The bootstrapping server (paper Section 4.1.2).

An HTTP server inside the AS serving two things:

* ``GET /topology`` — the local AS topology (border router and control
  service addresses), **signed with the AS certificate** so clients can
  authenticate it;
* ``GET /trcs`` — the TRCs of the ISDs the AS participates in. The initial
  TRC must be obtained securely (TLS or out-of-band validation); later
  TRCs chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.scion.addr import IA
from repro.scion.crypto.ca import IssuedCertificate
from repro.scion.crypto.cppki import Certificate
from repro.scion.crypto.encoding import canonical_bytes
from repro.scion.crypto.rsa import RsaKeyPair, sign, verify
from repro.scion.crypto.trc import Trc
from repro.scion.topology import AsTopology


@dataclass(frozen=True)
class TopologyDocument:
    """The payload of ``GET /topology``: what a fresh host must know."""

    ia: IA
    border_router_addresses: Tuple[str, ...]
    control_service_address: str
    mtu: int
    dispatcherless: bool
    signature: int = 0
    #: leaf-first certificate chain the signature verifies against
    certificate_chain: Tuple[Certificate, ...] = ()

    def payload(self) -> dict:
        return {
            "ia": str(self.ia),
            "border_routers": list(self.border_router_addresses),
            "control_service": self.control_service_address,
            "mtu": self.mtu,
            "dispatcherless": self.dispatcherless,
        }

    def payload_bytes(self) -> bytes:
        return canonical_bytes(self.payload())

    def verify_signature(self) -> bool:
        if not self.certificate_chain:
            return False
        leaf = self.certificate_chain[0]
        return verify(leaf.public_key, self.payload_bytes(), self.signature)


class BootstrapServer:
    """Serves the signed topology and the TRCs for one AS."""

    #: default HTTP port for the discovery service
    DEFAULT_PORT = 8041

    def __init__(
        self,
        topology: AsTopology,
        signing_key: RsaKeyPair,
        certificate: IssuedCertificate,
        trcs: Sequence[Trc],
        ip: str = "",
        port: int = DEFAULT_PORT,
        dispatcherless: bool = True,
    ):
        self.ip = ip or topology.control_address
        self.port = port
        #: Time to serve one discovery request.
        self.processing_s = 0.002
        self._trcs = list(trcs)
        self.requests_served = 0
        unsigned = TopologyDocument(
            ia=topology.ia,
            border_router_addresses=tuple(topology.border_routers),
            control_service_address=topology.control_address,
            mtu=topology.mtu,
            dispatcherless=dispatcherless,
        )
        signature = sign(signing_key, unsigned.payload_bytes())
        self._document = TopologyDocument(
            **{
                **unsigned.__dict__,
                "signature": signature,
                "certificate_chain": certificate.chain(),
            }
        )

    def get_topology(self) -> TopologyDocument:
        """Handle ``GET /topology``."""
        self.requests_served += 1
        return self._document

    def get_trcs(self) -> List[Trc]:
        """Handle ``GET /trcs``."""
        self.requests_served += 1
        return list(self._trcs)
