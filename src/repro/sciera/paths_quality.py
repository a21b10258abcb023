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

import numpy as np

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
    frac_near_1: float        # inflation <= near_threshold
    frac_below_1_2: float

    def cdf(self) -> Tuple[np.ndarray, np.ndarray]:
        xs = np.sort(np.asarray(list(self.pair_inflation.values())))
        return xs, np.arange(1, len(xs) + 1) / len(xs)


def fig10a_latency_inflation(
    world: ScieraWorld,
    sources: Sequence[str],
    destinations: Optional[Sequence[str]] = None,
    near_threshold: float = 1.02,
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
    values = np.asarray(list(inflation.values()))
    return Fig10aResult(
        pair_inflation=inflation,
        frac_near_1=float((values <= near_threshold).mean()),
        frac_below_1_2=float((values < 1.2).mean()),
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
    disjointness: np.ndarray  # one value per path combination
    frac_fully_disjoint: float
    frac_at_least_0_7: float
    combinations: int

    def cdf(self) -> Tuple[np.ndarray, np.ndarray]:
        xs = np.sort(self.disjointness)
        return xs, np.arange(1, len(xs) + 1) / len(xs)


def fig10b_path_disjointness(
    world: ScieraWorld,
    sources: Sequence[str],
    destinations: Optional[Sequence[str]] = None,
    max_paths_per_pair: int = 8,
) -> Fig10bResult:
    """Disjointness over all path combinations of every AS pair.

    ``max_paths_per_pair`` caps the quadratic blow-up for pairs with >100
    paths. The cap picks *diverse representatives* (greedy farthest-first
    on disjointness) rather than the shortest prefix: shortest-first would
    select dozens of near-identical variants of the same route and
    understate the diversity end hosts actually choose from.
    """
    network = world.network
    destinations = destinations or sources
    values: List[float] = []
    for src, dst in _ordered_pairs(sources, destinations):
        metas = network.active_paths(IA.parse(src), IA.parse(dst))
        metas = _diverse_subset(metas, max_paths_per_pair)
        values.extend(
            a.disjointness(b) for a, b in itertools.combinations(metas, 2)
        )
    if not values:
        raise ValueError("no path combinations found")
    array = np.asarray(values)
    return Fig10bResult(
        disjointness=array,
        frac_fully_disjoint=float((array >= 0.999).mean()),
        frac_at_least_0_7=float((array >= 0.7).mean()),
        combinations=len(values),
    )
