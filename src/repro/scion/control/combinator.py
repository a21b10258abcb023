"""Segment combination: turning registered segments into end-to-end paths.

A collection of up, core, and down segments "typically allows for a variety
of combinations, including shortcuts and utilization of peering links, to
create a multitude of end-to-end paths" (Section 2 of the paper). This
module enumerates those combinations:

* **up + core + down** — the standard three-segment path;
* **up + down** — when both segments hang off the same core AS;
* **shortcut** — when the up and down segments share a non-core AS, both
  are truncated there and spliced;
* **peering** — when an AS on the up segment advertises a peering link to
  an AS on the down segment, the path crosses over the peering link using
  the peer hop fields minted during beaconing;
* degenerate forms when the source and/or destination are core ASes.

Hop fields are reused exactly as registered (their MACs bind them to the
segment), so combination is a pure data-plane-header operation — no new
cryptography happens at path construction time, which is what makes SCION
path choice an end-host operation.

Combination is split at the core.  A :class:`CoreHalf` holds what depends
on the source's up segments and the core segments alone; a path server
hands out the same ones for every destination until its state changes, so
one half serves every destination of that state.  :func:`combine_paths`
completes a half with one destination's down segments.  Candidates are
ranked and de-duplicated by :func:`~repro.scion.path.path_key`, which is
assembled from per-segment fragments, and only the survivors are built.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.scion.addr import IA
from repro.scion.control.segments import Beacon
from repro.scion.path import (
    EMPTY_HEAD,
    DataplanePath,
    HopField,
    KeyHead,
    PathSegmentHops,
    key_head,
    path_key,
)

#: Segment views in forwarding order: a path, or the front part of one.
Segments = Tuple[PathSegmentHops, ...]
#: A front part of paths and its ``key_head``.
Run = Tuple[Segments, KeyHead]


class CombinatorError(Exception):
    """Raised for invalid combination requests."""


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


class CoreHalf:
    """The destination-independent half of combination from one source.

    Holds the up views (a core source acts as its own pseudo up option),
    the core segments indexed by the joint they serve, and — built on first
    request, then kept — the up(+core) runs from each up option to each
    core AS.  Its inputs are frozen beacons, so nothing it holds can go
    stale; a caller keeps it exactly as long as the path server keeps
    answering with the same up and core segments.
    """

    def __init__(
        self,
        src: IA,
        up_segments: Sequence[Beacon],
        core_segments: Sequence[Beacon],
        src_is_core: bool = False,
    ) -> None:
        for seg in up_segments:
            if seg.terminal_ia != src:
                raise CombinatorError(f"up segment does not terminate at {src}")
        self.src = src
        self.src_is_core = src_is_core
        self.up_segments = tuple(up_segments)
        #: (core AS the option reaches, its up view or nothing) per option.
        self.up_options: List[Tuple[IA, Segments]] = (
            [(src, ())] if src_is_core
            else [(seg.origin_ia, (seg.to_hops(False),)) for seg in up_segments]
        )
        # Index, don't build: a core segment serves the (origin, terminal)
        # joint forward and the (terminal, origin) joint reversed; its view
        # is only materialised for joints some destination asks for.  Path
        # servers answer bucket by bucket, so consecutive segments mostly
        # share their joint and the two lists are looked up once per run.
        by_joint: Dict[Tuple[IA, IA], List[Tuple[Beacon, bool]]] = {}
        origin = terminal = None
        for seg in core_segments:
            entries = seg.entries
            if entries[0].ia is not origin or entries[-1].ia is not terminal:
                origin, terminal = entries[0].ia, entries[-1].ia
                forward = by_joint.setdefault((origin, terminal), [])
                backward = by_joint.setdefault((terminal, origin), [])
            forward.append((seg, True))
            backward.append((seg, False))
        self._core_by_joint = by_joint
        self._runs: Dict[Tuple[int, IA], Tuple[Run, ...]] = {}

    def runs(self, up_index: int, c_down: IA) -> Tuple[Run, ...]:
        """The up(+core) runs from up option ``up_index`` to core AS
        ``c_down``, in combination order — the up view alone when the option
        already ends there, else one run per core segment over the joint —
        each with its :func:`~repro.scion.path.key_head`."""
        key = (up_index, c_down)
        runs = self._runs.get(key)
        if runs is None:
            c_up, up_part = self.up_options[up_index]
            if c_up == c_down:
                parts = [up_part]
            else:
                parts = [
                    up_part + (seg.to_hops(cons_dir),)
                    for seg, cons_dir in self._core_by_joint.get((c_up, c_down), ())
                ]
            runs = self._runs[key] = tuple((run, key_head(run)) for run in parts)
        return runs


def combine_paths(
    half: CoreHalf,
    dst: IA,
    down_segments: Sequence[Beacon],
    dst_is_core: bool = False,
    max_paths: Optional[int] = None,
    include_peering: bool = True,
) -> List[DataplanePath]:
    """Enumerate end-to-end paths from ``half.src`` to ``dst``.

    ``down_segments`` must terminate at ``dst``.  Results are de-duplicated
    by fingerprint and sorted shortest-first with the fingerprint as a
    stable tie-break ("lowest path identifier"); a candidate whose
    fingerprint was already seen is dropped before it is built.
    """
    if half.src == dst:
        return []
    for seg in down_segments:
        if seg.terminal_ia != dst:
            raise CombinatorError(f"down segment does not terminate at {dst}")

    ranked: Dict[str, Tuple[int, str, Segments]] = {}

    def add(tail: Segments, run: Segments = (),
            head: KeyHead = EMPTY_HEAD) -> None:
        """Rank the path ``run`` + ``tail``, where ``head`` is
        ``key_head(run)``."""
        if run or tail:
            hops, fingerprint = path_key(tail, head)
            if fingerprint not in ranked:
                ranked[fingerprint] = (hops, fingerprint, run + tail)

    # Pseudo-segments for core endpoints: a core dst acts as its own C_down.
    down_options: List[Tuple[IA, Segments]] = (
        [(dst, ())] if dst_is_core
        else [(seg.origin_ia, (seg.to_hops(True),)) for seg in down_segments]
    )
    for up_index in range(len(half.up_options)):
        for c_down, down_part in down_options:
            for run, head in half.runs(up_index, c_down):
                add(down_part, run, head)

    # Shortcuts and peering need real up and down segments on both sides.
    if not half.src_is_core and not dst_is_core:
        for up_seg in half.up_segments:
            for down_seg in down_segments:
                crossover = _shortcut_index(up_seg, down_seg)
                if crossover is not None:
                    u_idx, d_idx = crossover
                    add((up_seg.to_hops(False, u_idx),
                         down_seg.to_hops(True, d_idx)))
                if include_peering:
                    for u_idx, u_hop, d_idx, d_hop in _peering_splices(
                        up_seg, down_seg
                    ):
                        add((up_seg.to_hops(False, u_idx, u_hop),
                             down_seg.to_hops(True, d_idx, d_hop)))

    # Fingerprints are unique here, so the sort never compares segments.
    ordered = sorted(ranked.values())
    if max_paths is not None:
        ordered = ordered[:max_paths]
    return [
        DataplanePath.keyed(segments, (hops, fingerprint))
        for hops, fingerprint, segments in ordered
    ]
