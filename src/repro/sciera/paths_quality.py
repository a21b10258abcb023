"""Path diversity and quality metrics: Figures 10a and 10b of the paper.

* **latency inflation** — d2/d1, the RTT of the second-fastest active path
  over the fastest, per AS pair (Fig 10a: 40% of pairs near 1.0, 80% below
  1.2 — "there exist alternatives for the fastest paths with similar RTTs");
* **path disjointness** — per pair of paths, distinct interfaces divided by
  total interfaces (Fig 10b: ~30% of combinations fully disjoint, ~80%
  at least 0.7 disjoint).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.scion.addr import IA
from repro.sciera.build import ScieraWorld


def _ordered_pairs(
    sources: Sequence[str], destinations: Sequence[str]
) -> List[Tuple[str, str]]:
    return [
        (src, dst) for src in sources for dst in destinations if src != dst
    ]


@dataclass
class Fig10aResult:
    pair_inflation: Dict[Tuple[str, str], float]
    frac_near_1: float        # inflation <= 1.02
    frac_below_1_2: float


def fig10a_latency_inflation(
    world: ScieraWorld,
    sources: Sequence[str],
    destinations: Optional[Sequence[str]] = None,
) -> Fig10aResult:
    """d2/d1 per AS pair over the active paths."""
    network = world.network
    destinations = destinations or sources
    inflation: Dict[Tuple[str, str], float] = {}
    for src, dst in _ordered_pairs(sources, destinations):
        rtts = sorted(
            network.probe(meta).rtt_s
            for meta in network.active_paths(IA.parse(src), IA.parse(dst))
        )
        if len(rtts) >= 2 and rtts[0] > 0:
            inflation[(src, dst)] = rtts[1] / rtts[0]
    if not inflation:
        raise ValueError("no pair had two active paths")
    values = list(inflation.values())
    return Fig10aResult(
        pair_inflation=inflation,
        frac_near_1=sum(v <= 1.02 for v in values) / len(values),
        frac_below_1_2=sum(v < 1.2 for v in values) / len(values),
    )


def _diverse_subset(metas, k: int):
    """Greedy farthest-first subset of up to ``k`` paths by disjointness."""
    if len(metas) <= k:
        return list(metas)
    chosen = [metas[0]]  # the shortest path anchors the subset
    remaining = list(metas[1:])
    while remaining and len(chosen) < k:
        best = max(
            remaining,
            key=lambda m: (min(m.disjointness(c) for c in chosen), m.fingerprint),
        )
        remaining.remove(best)
        chosen.append(best)
    return chosen


@dataclass
class Fig10bResult:
    disjointness: List[float]  # one value per path combination
    frac_fully_disjoint: float
    frac_at_least_0_7: float
    combinations: int


def fig10b_path_disjointness(
    world: ScieraWorld,
    sources: Sequence[str],
) -> Fig10bResult:
    """Disjointness over all path combinations of every pair of ``sources``.

    At most eight paths per pair are combined, which caps the quadratic
    blow-up for pairs with >100 paths. The cap picks *diverse representatives* (greedy farthest-first
    on disjointness) rather than the shortest prefix: shortest-first would
    select dozens of near-identical variants of the same route and
    understate the diversity end hosts actually choose from.
    """
    network = world.network
    values: List[float] = []
    for src, dst in _ordered_pairs(sources, sources):
        metas = network.active_paths(IA.parse(src), IA.parse(dst))
        metas = _diverse_subset(metas, 8)
        values.extend(
            a.disjointness(b) for a, b in itertools.combinations(metas, 2)
        )
    if not values:
        raise ValueError("no path combinations found")
    return Fig10bResult(
        disjointness=values,
        frac_fully_disjoint=sum(v >= 0.999 for v in values) / len(values),
        frac_at_least_0_7=sum(v >= 0.7 for v in values) / len(values),
        combinations=len(values),
    )
