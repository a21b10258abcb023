"""Path-construction beacons (PCBs) and path segments.

A beacon is a chain of AS entries. Each entry carries the hop field the AS
minted for the data plane (MAC'd with its secret forwarding key) and a
signature over the whole beacon prefix with the AS's certificate key, so a
receiver can verify both who extended the beacon and that no entry was
altered — this is what "path segments are cryptographically protected"
(Section 2 of the paper) means operationally.

The same object serves as beacon (in flight, still being extended) and as
path segment (terminated and registered); ``SegmentType`` records the role
a registered copy plays.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.scion.addr import IA
from repro.scion.crypto.cppki import Certificate, CertificateError, verify_chain
from repro.scion.crypto.encoding import canonical_bytes
from repro.scion.crypto.keys import SymmetricKey
from repro.scion.crypto.mac import chain_beta
from repro.scion.crypto.rsa import RsaKeyPair, RsaPublicKey, sign, verify
from repro.scion.crypto.trc import Trc
from repro.scion.path import (
    DataplanePath,
    HopField,
    InfoField,
    PathSegmentHops,
)


class BeaconError(Exception):
    """Raised when a beacon fails verification or is malformed."""


class SegmentType(enum.Enum):
    UP = "up"
    DOWN = "down"
    CORE = "core"


@dataclass(frozen=True)
class PeerEntry:
    """A peering link advertised alongside an AS entry.

    ``hop`` has cons_ingress = the peering interface and cons_egress = the
    same egress as the main hop field, enabling peering-shortcut paths.
    """

    peer_ia: IA
    peer_ifid: int     # interface id on the *peer's* side
    local_ifid: int    # our peering interface
    hop: HopField

    def payload(self) -> dict:
        return {
            "peer_ia": str(self.peer_ia),
            "peer_ifid": self.peer_ifid,
            "local_ifid": self.local_ifid,
            "hop": _hop_payload(self.hop),
        }


def _hop_payload(hop: HopField) -> dict:
    return {
        "ia": str(hop.ia),
        "in": hop.cons_ingress,
        "out": hop.cons_egress,
        "exp": hop.expiry,
        "beta": hop.beta,
        "mac": hop.mac.hex(),
    }


@dataclass(frozen=True)
class ASEntry:
    """One AS's contribution to a beacon."""

    ia: IA
    hop: HopField
    peers: Tuple[PeerEntry, ...] = ()
    mtu: int = 1472
    signature: int = 0

    def payload(self) -> dict:
        return {
            "ia": str(self.ia),
            "hop": _hop_payload(self.hop),
            "peers": [p.payload() for p in self.peers],
            "mtu": self.mtu,
        }


@dataclass(frozen=True)
class Beacon:
    """A PCB: segment metadata plus the chain of signed AS entries."""

    timestamp: int
    seg_id: int                      # initial beta of the segment
    entries: Tuple[ASEntry, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise BeaconError("a beacon needs at least one entry")
        if not (0 <= self.seg_id < 1 << 16):
            raise BeaconError(f"seg_id {self.seg_id} out of 16-bit range")

    # -- identity ----------------------------------------------------------------

    @property
    def origin_ia(self) -> IA:
        return self.entries[0].ia

    @property
    def terminal_ia(self) -> IA:
        return self.entries[-1].ia

    def as_sequence(self) -> List[IA]:
        return [entry.ia for entry in self.entries]

    def interface_fingerprint(self) -> str:
        """Identity of the segment by the interfaces it traverses.

        Computed lazily and cached on the instance: beacon stores key and
        sort on the fingerprint, propagation dedups on it, and path-server
        registries bucket by it, so each beacon used to pay the O(hops)
        sha256 on every store/select/propagate.  The cache can never go
        stale — the dataclass is frozen and ``with_entry`` extends by
        returning a *new* beacon (with a cold cache of its own).
        """
        cached = self.__dict__.get("_fp")
        if cached is None:
            cached = self._build_interface_fingerprint()
            self.__dict__["_fp"] = cached
        return cached

    def _build_interface_fingerprint(self) -> str:
        """Uncached fingerprint computation (the memoization baseline)."""
        parts = [
            f"{e.ia}#{e.hop.cons_ingress}>{e.hop.cons_egress}" for e in self.entries
        ]
        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]

    def __len__(self) -> int:
        return len(self.entries)

    def expires_at(self) -> float:
        """Absolute expiry of the segment: the earliest hop-field expiry.

        A segment is unusable on the data plane once any hop field in it
        has expired, so stores treat this as the whole segment's deadline.
        """
        return float(min(entry.hop.expiry for entry in self.entries))

    # -- signing and verification --------------------------------------------------

    def _signing_messages(self) -> Iterator[bytes]:
        """The message signed by the AS at each index, in order: all prior
        entries (including their signatures) plus its own unsigned payload —
        ``canonical_bytes({"timestamp", "seg_id", "prefix": [...], "entry"})``.

        Assembled from pieces so each entry is serialised once per call: keys
        sort entry < prefix < seg_id < timestamp, and a signed entry is the
        unsigned one plus a ``"signature"`` key, which sorts last.
        """
        tail = b"]," + canonical_bytes(
            {"seg_id": self.seg_id, "timestamp": self.timestamp}
        )[1:]
        prefix = b""
        for entry in self.entries:
            own = canonical_bytes(entry.payload())
            yield b'{"entry":%b,"prefix":[%b%b' % (own, prefix, tail)
            signed = b'%b,"signature":%b}' % (
                own[:-1], canonical_bytes(entry.signature)
            )
            prefix = prefix + b"," + signed if prefix else signed

    def _signing_message(self, upto: int) -> bytes:
        """Message signed by the AS at index ``upto``."""
        return next(islice(self._signing_messages(), upto, None))

    def with_entry(
        self,
        entry: ASEntry,
        signing_key: RsaKeyPair,
    ) -> "Beacon":
        """Append and sign an AS entry, returning the extended beacon."""
        unsigned = Beacon(self.timestamp, self.seg_id, self.entries + (entry,))
        message = unsigned._signing_message(len(unsigned.entries) - 1)
        signed_entry = replace(entry, signature=sign(signing_key, message))
        return Beacon(self.timestamp, self.seg_id, self.entries + (signed_entry,))

    def verify(self, key_resolver: Callable[[IA], "RsaPublicKey"]) -> None:
        """Verify every entry's signature and the hop-field beta chain.

        ``key_resolver`` returns the *already chain-validated* public key of
        an AS (see :func:`make_validating_key_resolver`, which binds the
        validation time) or raises :class:`BeaconError`. Keeping chain
        validation in the resolver lets callers cache it — a beacon store
        re-verifies many beacons signed by the same handful of ASes.
        """
        beta = self.seg_id
        messages = self._signing_messages()
        for index, entry in enumerate(self.entries):
            public_key = key_resolver(entry.ia)
            if not verify(public_key, next(messages), entry.signature):
                raise BeaconError(f"bad signature from {entry.ia} at index {index}")
            if entry.hop.beta != beta:
                raise BeaconError(
                    f"beta chain broken at {entry.ia}: "
                    f"expected {beta}, got {entry.hop.beta}"
                )
            beta = entry.hop.next_beta()

    # -- helpers for construction ---------------------------------------------------

    @staticmethod
    def make_validating_key_resolver(
        cert_resolver: Callable[[IA], Sequence[Certificate]],
        trc_resolver: Callable[[int], object],
        now: float,
    ) -> Callable[[IA], "RsaPublicKey"]:
        """Build a memoizing key resolver that validates certificate chains.

        The returned callable validates the AS's chain against its ISD's TRC
        once, caches the result, and returns the leaf public key; it raises
        :class:`BeaconError` for missing or invalid chains.

        ``trc_resolver`` may return a single :class:`Trc` or a sequence of
        acceptable TRCs ordered latest-first (e.g. the active TRC plus its
        predecessor inside a rollover grace window); the chain is accepted
        if it anchors in *any* of them.
        """
        cache: Dict[IA, "RsaPublicKey"] = {}

        def resolve(ia: IA) -> "RsaPublicKey":
            cached = cache.get(ia)
            if cached is not None:
                return cached
            chain = cert_resolver(ia)
            if not chain:
                raise BeaconError(f"no certificate chain for {ia}")
            resolved = trc_resolver(ia.isd)
            trcs: Sequence[Trc]
            if isinstance(resolved, Trc):
                trcs = (resolved,)
            else:
                trcs = tuple(resolved)
            if not trcs:
                raise BeaconError(f"no TRC for ISD {ia.isd}")
            last_error: Optional[CertificateError] = None
            for trc in trcs:
                try:
                    verify_chain(chain, trc, now)
                except CertificateError as exc:
                    last_error = exc
                    continue
                cache[ia] = chain[0].public_key
                return chain[0].public_key
            raise BeaconError(
                f"certificate chain for {ia} invalid: {last_error}"
            ) from last_error

        return resolve

    @classmethod
    def originate(
        cls,
        ia: IA,
        forwarding_key: SymmetricKey,
        signing_key: RsaKeyPair,
        timestamp: int,
        egress_ifid: int,
        peers: Tuple[PeerEntry, ...] = (),
        mtu: int = 1472,
    ) -> "Beacon":
        """Create the initial beacon an origin core AS sends over one link."""
        seg_id = int.from_bytes(
            hashlib.sha256(f"{ia}:{egress_ifid}:{timestamp}".encode()).digest()[:2],
            "big",
        )
        hop = HopField.create(
            ia, forwarding_key, timestamp,
            cons_ingress=0, cons_egress=egress_ifid, beta=seg_id,
        )
        entry = ASEntry(ia=ia, hop=hop, peers=peers, mtu=mtu)
        stub = cls.__new__(cls)  # bypass the >=1-entry check for the seed
        object.__setattr__(stub, "timestamp", timestamp)
        object.__setattr__(stub, "seg_id", seg_id)
        object.__setattr__(stub, "entries", ())
        return stub.with_entry(entry, signing_key)

    def next_beta(self) -> int:
        """Beta value the next appended entry must carry."""
        return self.entries[-1].hop.next_beta()

    # -- conversion to dataplane segments -----------------------------------------

    def to_hops(
        self, cons_dir: bool, from_index: int = 0,
        replace_first: Optional[HopField] = None,
    ) -> PathSegmentHops:
        """Dataplane view of this segment, optionally truncated at an entry
        and entered over a peer hop field.

        Memoised per argument triple on the (frozen) beacon, so every path
        crossing this segment shares one view — and with it the per-segment
        fragments :class:`PathSegmentHops` caches.
        """
        views = self.__dict__.setdefault("_views", {})
        key = (cons_dir, from_index, replace_first)
        view = views.get(key)
        if view is None:
            hops = tuple(entry.hop for entry in self.entries[from_index:])
            if replace_first is not None:
                hops = (replace_first,) + hops[1:]
            view = views[key] = PathSegmentHops(
                InfoField(self.timestamp, self.seg_id, cons_dir), hops
            )
        return view
