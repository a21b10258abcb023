"""Dataplane paths: info fields, hop fields, and end-to-end paths.

A SCION packet carries its forwarding path in the header: up to three
segments (up, core, down), each an info field plus a list of hop fields.
Hop fields are created during beaconing in *construction direction* and
carry a MAC keyed by the owning AS's forwarding key.

Simulation simplification (documented in DESIGN.md): the chaining
accumulator ``beta`` is stored explicitly in each hop field rather than
being recovered by the router via the segID XOR trick; routers still
recompute and verify the MAC with their own secret key, so hop fields
remain unforgeable and unsplicable by anyone else.

Performance: segments and paths are immutable, so their derived views are
computed once and cached on the instance (frozen dataclasses keep a
``__dict__``, so the memo bypasses the frozen ``__setattr__`` without
affecting equality or hashing, which remain field-based).  The per-hop work
(forwarding order, oriented :class:`HopRecord`s, interface ids, AS sequence)
is memoised on the :class:`PathSegmentHops`; the combinator hands the *same*
segment object to every path crossing it, so a :class:`DataplanePath`'s
plan, interface ids and AS sequence are concatenations of shared fragments,
and its hop count and fingerprint (:func:`path_key`) are assembled from
them — before the path is built, when the combinator ranks candidates.
Interface-id strings are ``sys.intern``-ed: measurement campaigns compare
millions of them for disjointness and set membership, and interning turns
those comparisons into pointer checks.
"""

from __future__ import annotations

import functools
import hashlib
import sys
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.scion.addr import IA
from repro.scion.crypto.keys import SymmetricKey
from repro.scion.crypto.mac import chain_beta, hop_mac, verify_hop_mac

#: Default hop-field lifetime (SCION's coarse-grained 6h units; we use 24h).
DEFAULT_HOP_EXPIRY_S = 24 * 3600


class PathError(Exception):
    """Raised for malformed or inconsistent paths."""


def _memoised(build):
    """Method decorator: compute once per frozen instance, keep the value
    in its ``__dict__`` (never ``None``), hand the same object out after."""
    key = "_" + build.__name__

    @functools.wraps(build)
    def cached(self):
        value = self.__dict__.get(key)
        if value is None:
            value = self.__dict__[key] = build(self)
        return value

    return cached


def _dedup_adjacent(ias: Iterable[IA]) -> Tuple[IA, ...]:
    seq: List[IA] = []
    for ia in ias:
        if not seq or seq[-1] != ia:
            seq.append(ia)
    return tuple(seq)


@dataclass(frozen=True)
class HopField:
    """One AS's hop in a segment, in construction direction."""

    ia: IA
    cons_ingress: int     # interface the beacon entered on (0 at origin)
    cons_egress: int      # interface the beacon left on (0 at the last AS)
    expiry: int           # absolute expiry timestamp (coarse seconds)
    beta: int             # chaining accumulator at this hop
    mac: bytes

    @classmethod
    def create(
        cls,
        ia: IA,
        key: SymmetricKey,
        timestamp: int,
        cons_ingress: int,
        cons_egress: int,
        beta: int,
        expiry: Optional[int] = None,
    ) -> "HopField":
        exp = expiry if expiry is not None else timestamp + DEFAULT_HOP_EXPIRY_S
        mac = hop_mac(key, timestamp, exp, cons_ingress, cons_egress, beta)
        return cls(ia, cons_ingress, cons_egress, exp, beta, mac)

    def verify(self, key: SymmetricKey, timestamp: int) -> bool:
        """Check the MAC, memoizing the verdict per ``(key, timestamp)``.

        A hop field is verified with the same key and segment timestamp on
        every packet that carries it, so the last verdict is cached on the
        instance (immutable inputs → the verdict can never change).
        """
        memo = self.__dict__.get("_verify_memo")
        if memo is not None and memo[0] is key and memo[1] == timestamp:
            return memo[2]
        ok = verify_hop_mac(
            key, timestamp, self.expiry, self.cons_ingress, self.cons_egress,
            self.beta, self.mac,
        )
        self.__dict__["_verify_memo"] = (key, timestamp, ok)
        return ok

    def next_beta(self) -> int:
        return chain_beta(self.beta, self.mac)


@dataclass(frozen=True)
class InfoField:
    """Per-segment metadata in the path header."""

    timestamp: int       # segment creation time; MACs bind to it
    seg_id: int          # initial beta of the segment
    cons_dir: bool       # True if the packet travels in construction direction


#: Memo slot of a segment's hop records, per position in the path.
_PLAN_KEYS = ("_plan0", "_plan1", "_plan2")


@dataclass(frozen=True)
class PathSegmentHops:
    """One segment of a dataplane path: info field + ordered hop fields.

    Hop fields are stored in construction direction; ``cons_dir`` in the
    info field says whether the packet traverses them in that order (down/
    core segments) or reversed (up segments).
    """

    info: InfoField
    hops: Tuple[HopField, ...]

    @_memoised
    def forwarding_hops(self) -> Tuple[HopField, ...]:
        """Hops in the order the packet actually visits them."""
        return self.hops if self.info.cons_dir else self.hops[::-1]

    def records(self, seg_index: int) -> Tuple["HopRecord", ...]:
        """This segment's hops as the ``seg_index``-th segment of a plan."""
        records = self.__dict__.get(_PLAN_KEYS[seg_index])
        if records is None:
            info = self.info
            fwd = self.forwarding_hops()
            last = len(fwd) - 1
            records = self.__dict__[_PLAN_KEYS[seg_index]] = tuple(
                HopRecord(hop, info, seg_index, pos == 0, pos == last,
                          *oriented_interfaces(hop, info))
                for pos, hop in enumerate(fwd)
            )
        return records

    @_memoised
    def interface_ids(self) -> Tuple[str, ...]:
        ids: List[str] = []
        for record in self.records(0):
            hop = record.hop
            if record.ingress:
                ids.append(sys.intern(f"{hop.ia}#{record.ingress}"))
            if record.egress:
                ids.append(sys.intern(f"{hop.ia}#{record.egress}"))
        return tuple(ids)

    @_memoised
    def as_sequence(self) -> Tuple[IA, ...]:
        return _dedup_adjacent(hop.ia for hop in self.forwarding_hops())

    @_memoised
    def key_part(self) -> Tuple[int, Optional[IA], Optional[IA], bytes]:
        """This segment's share of :func:`path_key`: AS count, first and
        last AS, and ``interface_ids()`` joined by ``|``."""
        seq = self.as_sequence()
        return (
            len(seq), seq[0] if seq else None, seq[-1] if seq else None,
            "|".join(self.interface_ids()).encode(),
        )


#: What :func:`path_key` knows after some leading segments: AS hops so far,
#: the last AS, and the interface-id bytes so far.
KeyHead = Tuple[int, Optional[IA], bytes]
EMPTY_HEAD: KeyHead = (0, None, b"")


def key_head(
    segments: Sequence[PathSegmentHops], head: KeyHead = EMPTY_HEAD
) -> KeyHead:
    """``head`` extended by ``segments``.  Each segment's AS sequence is
    already de-duplicated, so only a joint whose two sides name the same AS
    drops one; the fingerprint bytes are the interface ids of all segments
    joined by ``|``, which is the non-empty fragments joined by ``|``."""
    hops, last, joined = head
    for seg in segments:
        count, first, final, part = seg.key_part()
        if count:
            hops += count - (first == last)
            last = final
        if part:
            joined = joined + b"|" + part if joined else part
    return hops, last, joined


def path_key(
    segments: Sequence[PathSegmentHops], head: KeyHead = EMPTY_HEAD
) -> Tuple[int, str]:
    """``(num_as_hops(), fingerprint())`` of the path ``segments`` form
    after the segments ``head`` summarises.

    Assembled from per-segment fragments, so the combinator can rank and
    de-duplicate candidates without building them, and can summarise a
    shared front part once.
    """
    hops, _, joined = key_head(segments, head)
    return hops, hashlib.sha256(joined).hexdigest()[:16]


@dataclass(frozen=True)
class DataplanePath:
    """A complete end-to-end path: 1-3 segments.

    Derived views are memoized per instance (the path is immutable); all
    cached values are pure functions of the segments, so caching cannot
    change any observable result — only skip rebuilding it.
    """

    segments: Tuple[PathSegmentHops, ...]

    def __post_init__(self) -> None:
        if not (1 <= len(self.segments) <= 3):
            raise PathError(f"a path has 1..3 segments, got {len(self.segments)}")

    @_memoised
    def hops(self) -> Tuple[Tuple[HopField, InfoField], ...]:
        """All hops in forwarding order, paired with their info field."""
        return tuple(
            (hop, seg.info)
            for seg in self.segments for hop in seg.forwarding_hops()
        )

    def as_sequence(self) -> List[IA]:
        """The sequence of ASes visited, de-duplicating segment joints."""
        return list(self._as_sequence())

    @_memoised
    def _as_sequence(self) -> Tuple[IA, ...]:
        return _dedup_adjacent(
            chain.from_iterable(seg.as_sequence() for seg in self.segments)
        )

    @_memoised
    def forwarding_plan(self) -> Tuple["HopRecord", ...]:
        """All hops in forwarding order with segment-boundary annotations.

        Built once and cached: every packet walk and every event-driven hop
        used to rebuild this list, which made per-hop cost O(path length).
        """
        return tuple(chain.from_iterable(
            seg.records(index) for index, seg in enumerate(self.segments)
        ))

    @property
    def src_ia(self) -> IA:
        return self.segments[0].forwarding_hops()[0].ia

    @property
    def dst_ia(self) -> IA:
        return self.segments[-1].forwarding_hops()[-1].ia

    @_memoised
    def interface_ids(self) -> Tuple[str, ...]:
        """Globally unique interface ids traversed (paper, Section 5.4).

        The strings are interned and the tuple cached — disjointness and
        set-membership checks over millions of probes then compare by
        identity in the common case.
        """
        return tuple(chain.from_iterable(
            seg.interface_ids() for seg in self.segments
        ))

    @classmethod
    def keyed(
        cls, segments: Tuple[PathSegmentHops, ...], key: Tuple[int, str]
    ) -> "DataplanePath":
        """The path of ``segments`` with :meth:`sort_key` already known — the
        combinator ranks candidates by ``path_key`` before building any, and
        ``key`` must be ``path_key(segments)``."""
        path = cls(segments)
        path.__dict__["_sort_key"] = key
        return path

    @_memoised
    def sort_key(self) -> Tuple[int, str]:
        """``(num_as_hops(), fingerprint())``, from the segment fragments."""
        return path_key(self.segments)

    @_memoised
    def fingerprint(self) -> str:
        """Stable short identifier for this path (by interfaces traversed)."""
        return self.sort_key()[1]

    def num_as_hops(self) -> int:
        return self.sort_key()[0]

    def min_expiry(self) -> int:
        return min(hop.expiry for hop, _ in self.hops())


@dataclass(frozen=True)
class HopRecord:
    """One hop in forwarding order, with its segment position.

    ``ingress``/``egress`` are the *oriented* interfaces (travel direction
    applied), precomputed at plan build so routers do not re-derive them per
    packet; ``-1`` means "not precomputed" and :meth:`oriented` falls back
    to deriving them from the hop and info fields.
    """

    hop: HopField
    info: InfoField
    seg_index: int
    is_seg_first: bool
    is_seg_last: bool
    ingress: int = -1
    egress: int = -1

    def oriented(self) -> Tuple[int, int]:
        """(actual ingress, actual egress) given the travel direction."""
        if self.ingress >= 0:
            return self.ingress, self.egress
        return oriented_interfaces(self.hop, self.info)


def oriented_interfaces(hop: HopField, info: InfoField) -> Tuple[int, int]:
    """(actual ingress, actual egress) given the travel direction."""
    if info.cons_dir:
        return hop.cons_ingress, hop.cons_egress
    return hop.cons_egress, hop.cons_ingress


@dataclass(frozen=True)
class PathMeta:
    """What an application sees about one usable path (snet-style).

    Carries the dataplane path plus metadata the end host uses for policy
    decisions: AS sequence, interface ids, a static latency estimate, and
    optional per-link attributes (carbon intensity for "green" routing,
    Section 4.7 of the paper).
    """

    path: DataplanePath
    latency_estimate_s: float
    carbon_gco2_per_gb: float = 0.0
    measured_rtt_s: Optional[float] = None
    #: True when the daemon served this past its cache TTL because the
    #: refresh failed — usable, but the application should expect churn.
    stale: bool = False

    @property
    def fingerprint(self) -> str:
        return self.path.fingerprint()

    @property
    def interfaces(self) -> Sequence[str]:
        return self.path.interface_ids()

    @property
    def as_sequence(self) -> List[IA]:
        return self.path.as_sequence()

    def disjointness(self, other: "PathMeta") -> float:
        """Fraction of distinct interfaces across the two paths.

        The paper (Section 5.5): number of distinct interfaces divided by
        the total number of interfaces of both paths. 1.0 = fully disjoint.
        """
        mine, theirs = self.interfaces, other.interfaces
        total = len(mine) + len(theirs)
        if total == 0:
            return 1.0
        shared = 0
        other_counts: dict = {}
        for ifid in theirs:
            other_counts[ifid] = other_counts.get(ifid, 0) + 1
        for ifid in mine:
            if other_counts.get(ifid, 0) > 0:
                other_counts[ifid] -= 1
                shared += 2  # the interface appears in both paths
        return (total - shared) / total

    def shared_interfaces(self, others: Iterable["PathMeta"]) -> int:
        """Number of my interface ids shared with any of ``others``."""
        other_ids = set()
        for other in others:
            other_ids.update(other.interfaces)
        return sum(1 for ifid in self.interfaces if ifid in other_ids)
