"""Reference combinator: the pre-memoisation ``combine_paths``, verbatim.

Test-only.  This is the combinator as it stood before paths were composed
from per-segment memoised views: it materialises a fresh
:class:`PathSegmentHops` for every core segment in both directions and
builds every :class:`DataplanePath` from scratch.  Slow and obviously
right — ``test_combinator_differential.py`` checks the shipped combinator
against it, fingerprint for fingerprint and in the same order.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.scion.addr import IA
from repro.scion.control.combinator import CombinatorError
from repro.scion.control.segments import ASEntry, Beacon
from repro.scion.path import (
    DataplanePath,
    HopField,
    InfoField,
    PathSegmentHops,
)


def fingerprint(path: DataplanePath) -> str:
    """A path's fingerprint from its whole interface-id list, the way
    ``DataplanePath.fingerprint`` computed it before ``path_key``."""
    raw = "|".join(path.interface_ids()).encode()
    return hashlib.sha256(raw).hexdigest()[:16]


def _seg_hops(beacon: Beacon, cons_dir: bool,
              from_index: int = 0,
              replace_first: Optional[HopField] = None) -> PathSegmentHops:
    """Dataplane segment from a beacon, optionally truncated at an entry."""
    hops = [entry.hop for entry in beacon.entries[from_index:]]
    if replace_first is not None:
        hops[0] = replace_first
    return PathSegmentHops(
        info=InfoField(beacon.timestamp, beacon.seg_id, cons_dir),
        hops=tuple(hops),
    )


def _up(beacon: Beacon, from_index: int = 0,
        replace_first: Optional[HopField] = None) -> PathSegmentHops:
    """An up segment: constructed core->leaf, traversed leaf->core."""
    return _seg_hops(beacon, cons_dir=False, from_index=from_index,
                     replace_first=replace_first)


def _down(beacon: Beacon, from_index: int = 0,
          replace_first: Optional[HopField] = None) -> PathSegmentHops:
    return _seg_hops(beacon, cons_dir=True, from_index=from_index,
                     replace_first=replace_first)


def _core_forward(beacon: Beacon) -> PathSegmentHops:
    return _seg_hops(beacon, cons_dir=True)


def _core_reversed(beacon: Beacon) -> PathSegmentHops:
    return _seg_hops(beacon, cons_dir=False)


def _shortcut_index(up_seg: Beacon, down_seg: Beacon) -> Optional[Tuple[int, int]]:
    """Indices of the best common non-core crossover AS, if any.

    The best shortcut crosses as close to the leaves as possible (largest
    combined index), producing the shortest spliced path. Index 0 (the
    origin core) is excluded — that case is the plain up+down combination.
    """
    positions: Dict[IA, int] = {
        entry.ia: idx for idx, entry in enumerate(up_seg.entries) if idx > 0
    }
    best: Optional[Tuple[int, int]] = None
    for d_idx, entry in enumerate(down_seg.entries):
        if d_idx == 0:
            continue
        u_idx = positions.get(entry.ia)
        if u_idx is None:
            continue
        if best is None or u_idx + d_idx > best[0] + best[1]:
            best = (u_idx, d_idx)
    return best


def _peering_splices(
    up_seg: Beacon, down_seg: Beacon
) -> List[Tuple[int, HopField, int, HopField]]:
    """All peering crossovers between an up and a down segment.

    Returns (up index, up peer hop, down index, down peer hop) tuples where
    the peer entries on both sides describe the same physical link.
    """
    out: List[Tuple[int, HopField, int, HopField]] = []
    for u_idx, u_entry in enumerate(up_seg.entries):
        for peer in u_entry.peers:
            for d_idx, d_entry in enumerate(down_seg.entries):
                if d_entry.ia != peer.peer_ia:
                    continue
                for d_peer in d_entry.peers:
                    if (
                        d_peer.peer_ia == u_entry.ia
                        and d_peer.local_ifid == peer.peer_ifid
                        and d_peer.peer_ifid == peer.local_ifid
                    ):
                        out.append((u_idx, peer.hop, d_idx, d_peer.hop))
    return out


def combine_paths(
    src: IA,
    dst: IA,
    up_segments: Sequence[Beacon],
    core_segments: Sequence[Beacon],
    down_segments: Sequence[Beacon],
    src_is_core: bool = False,
    dst_is_core: bool = False,
    max_paths: Optional[int] = None,
    include_peering: bool = True,
) -> List[DataplanePath]:
    """Enumerate end-to-end paths from registered segments.

    ``up_segments`` must terminate at ``src``; ``down_segments`` at ``dst``.
    Results are de-duplicated by fingerprint and sorted shortest-first with
    the fingerprint as a stable tie-break ("lowest path identifier").
    """
    if src == dst:
        return []
    for seg in up_segments:
        if seg.terminal_ia != src:
            raise CombinatorError(f"up segment does not terminate at {src}")
    for seg in down_segments:
        if seg.terminal_ia != dst:
            raise CombinatorError(f"down segment does not terminate at {dst}")

    paths: Dict[str, DataplanePath] = {}

    def add(segments: Tuple[PathSegmentHops, ...]) -> None:
        if not segments:
            return
        path = DataplanePath(segments)
        paths.setdefault(fingerprint(path), path)

    # Pseudo-segments for core endpoints: a core src acts as its own C_up.
    up_options: List[Tuple[IA, Optional[Beacon]]] = (
        [(src, None)] if src_is_core
        else [(seg.origin_ia, seg) for seg in up_segments]
    )
    down_options: List[Tuple[IA, Optional[Beacon]]] = (
        [(dst, None)] if dst_is_core
        else [(seg.origin_ia, seg) for seg in down_segments]
    )

    core_by_dir: Dict[Tuple[IA, IA], List[PathSegmentHops]] = {}
    for seg in core_segments:
        core_by_dir.setdefault(
            (seg.origin_ia, seg.terminal_ia), []
        ).append(_core_forward(seg))
        core_by_dir.setdefault(
            (seg.terminal_ia, seg.origin_ia), []
        ).append(_core_reversed(seg))

    for c_up, up_seg in up_options:
        up_part: Tuple[PathSegmentHops, ...] = (
            (_up(up_seg),) if up_seg is not None else ()
        )
        for c_down, down_seg in down_options:
            down_part: Tuple[PathSegmentHops, ...] = (
                (_down(down_seg),) if down_seg is not None else ()
            )
            if c_up == c_down:
                add(up_part + down_part)
                continue
            for core_part in core_by_dir.get((c_up, c_down), []):
                add(up_part + (core_part,) + down_part)

    # Shortcuts and peering need real up and down segments on both sides.
    if not src_is_core and not dst_is_core:
        for up_seg in up_segments:
            for down_seg in down_segments:
                crossover = _shortcut_index(up_seg, down_seg)
                if crossover is not None:
                    u_idx, d_idx = crossover
                    add((
                        _up(up_seg, from_index=u_idx),
                        _down(down_seg, from_index=d_idx),
                    ))
                if include_peering:
                    for u_idx, u_hop, d_idx, d_hop in _peering_splices(
                        up_seg, down_seg
                    ):
                        add((
                            _up(up_seg, from_index=u_idx, replace_first=u_hop),
                            _down(down_seg, from_index=d_idx, replace_first=d_hop),
                        ))

    ordered = sorted(
        paths.values(), key=lambda p: (len(p.as_sequence()), fingerprint(p))
    )
    if max_paths is not None:
        ordered = ordered[:max_paths]
    return ordered
