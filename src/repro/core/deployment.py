"""Deployment timeline and effort model (paper Figure 3, Appendix C).

Figure 3 plots every SCIERA enrollment from June 2022 to June 2025 with a
relative estimate of the work hours it required. The paper's estimates are
"based on a subjective assessment of efforts, cross-checked with the volume
of email exchanges and the approximate time between the first interaction
and successful SCIERA integration."

We encode (a) the timeline with the paper's observed effort levels, and
(b) a generative effort model with the drivers Appendix C narrates —
hardware procurement, L2 circuit parties, operator experience, and the
accumulated experience of the SCIERA team — so the learning-curve claim
("subsequent deployments of the same type were simplified") is testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class DeploymentRecord:
    """One AS enrollment (Figure 3 data point)."""

    ia: str
    name: str
    month: str              # "YYYY-MM"
    observed_effort: float  # relative work-hour units, ~1 (trivial) .. 10
    #: effort drivers (Appendix C)
    new_hardware: bool      # procurement, shipping, installation
    vlan_parties: int       # parties needed to approve/implement circuits
    reused_circuits: bool   # existing VLANs / multipoint VLANs reused
    deployment_kind: str    # "core" | "nren" | "institution"

    @property
    def month_index(self) -> int:
        year, month = self.month.split("-")
        return int(year) * 12 + int(month) - 1


#: Figure 3 / Appendix C, enrollment by enrollment.
DEPLOYMENT_TIMELINE: Tuple[DeploymentRecord, ...] = (
    DeploymentRecord("71-20965", "GEANT", "2022-06", 9.5,
                     new_hardware=True, vlan_parties=3, reused_circuits=False,
                     deployment_kind="core"),
    DeploymentRecord("71-559", "SWITCH", "2022-09", 2.0,
                     new_hardware=False, vlan_parties=2, reused_circuits=True,
                     deployment_kind="nren"),
    DeploymentRecord("71-1140", "SIDN Labs", "2023-03", 2.0,
                     new_hardware=False, vlan_parties=2, reused_circuits=True,
                     deployment_kind="institution"),
    DeploymentRecord("71-2:0:35", "BRIDGES", "2023-03", 8.0,
                     new_hardware=True, vlan_parties=3, reused_circuits=False,
                     deployment_kind="core"),
    DeploymentRecord("71-225", "UVa", "2023-03", 6.5,
                     new_hardware=True, vlan_parties=4, reused_circuits=False,
                     deployment_kind="institution"),
    DeploymentRecord("71-2:0:48", "Equinix", "2023-05", 5.0,
                     new_hardware=False, vlan_parties=3, reused_circuits=False,
                     deployment_kind="institution"),
    DeploymentRecord("71-2:0:49", "CybExer", "2023-07", 1.8,
                     new_hardware=False, vlan_parties=2, reused_circuits=False,
                     deployment_kind="institution"),
    DeploymentRecord("71-88", "Princeton", "2023-08", 5.5,
                     new_hardware=True, vlan_parties=4, reused_circuits=False,
                     deployment_kind="institution"),
    DeploymentRecord("71-2:0:42", "OVGU", "2023-08", 1.8,
                     new_hardware=False, vlan_parties=2, reused_circuits=False,
                     deployment_kind="institution"),
    DeploymentRecord("71-2546", "Demokritos", "2023-09", 1.5,
                     new_hardware=False, vlan_parties=2, reused_circuits=False,
                     deployment_kind="institution"),
    DeploymentRecord("71-2:0:18", "SEC", "2023-10", 4.0,
                     new_hardware=False, vlan_parties=3, reused_circuits=False,
                     deployment_kind="institution"),
    DeploymentRecord("71-2:0:3f", "KISTI CHG", "2023-10", 4.5,
                     new_hardware=False, vlan_parties=3, reused_circuits=False,
                     deployment_kind="core"),
    DeploymentRecord("71-2:0:3b", "KISTI DJ", "2024-05", 5.0,
                     new_hardware=True, vlan_parties=4, reused_circuits=False,
                     deployment_kind="core"),
    DeploymentRecord("71-2:0:3e", "KISTI AMS", "2024-05", 3.5,
                     new_hardware=False, vlan_parties=3, reused_circuits=True,
                     deployment_kind="core"),
    DeploymentRecord("71-2:0:3d", "KISTI SG", "2024-05", 3.5,
                     new_hardware=False, vlan_parties=3, reused_circuits=True,
                     deployment_kind="core"),
    DeploymentRecord("71-2:0:5c", "UFMS", "2024-08", 1.5,
                     new_hardware=False, vlan_parties=3, reused_circuits=True,
                     deployment_kind="institution"),
    DeploymentRecord("71-203311", "CCDCoE", "2024-09", 1.0,
                     new_hardware=False, vlan_parties=1, reused_circuits=True,
                     deployment_kind="institution"),
    DeploymentRecord("71-50999", "KAUST", "2025-03", 3.5,
                     new_hardware=True, vlan_parties=2, reused_circuits=True,
                     deployment_kind="institution"),
    DeploymentRecord("71-1916", "RNP", "2025-04", 2.0,
                     new_hardware=False, vlan_parties=3, reused_circuits=True,
                     deployment_kind="nren"),
    DeploymentRecord("71-2:0:3c", "KISTI HK", "2025-05", 1.5,
                     new_hardware=False, vlan_parties=2, reused_circuits=True,
                     deployment_kind="core"),
    DeploymentRecord("71-2:0:40", "KISTI STL", "2025-05", 1.5,
                     new_hardware=False, vlan_parties=2, reused_circuits=True,
                     deployment_kind="core"),
    DeploymentRecord("71-2:0:61", "NUS", "2025-06", 1.0,
                     new_hardware=False, vlan_parties=2, reused_circuits=True,
                     deployment_kind="institution"),
)


class EffortModel:
    """Generative model of enrollment effort.

    effort = hardware + circuits * parties * (discount if reused)
             + configuration, all scaled by the team's experience with
    deployments of the same kind (the Section 5.3 learning curve).
    """

    HARDWARE_COST = 3.0
    CIRCUIT_COST_PER_PARTY = 0.9
    REUSE_DISCOUNT = 0.35
    CONFIGURATION_COST = 1.0
    EXPERIENCE_FACTOR = 0.82
    FLOOR = 0.8

    def predict(
        self, record: DeploymentRecord, prior_same_kind: int
    ) -> float:
        effort = self.CONFIGURATION_COST
        if record.new_hardware:
            effort += self.HARDWARE_COST
        circuits = self.CIRCUIT_COST_PER_PARTY * record.vlan_parties
        if record.reused_circuits:
            circuits *= self.REUSE_DISCOUNT
        effort += circuits
        effort *= self.EXPERIENCE_FACTOR ** prior_same_kind
        return max(self.FLOOR, effort)

    def predict_timeline(self) -> List[Tuple[DeploymentRecord, float]]:
        ordered = sorted(
            DEPLOYMENT_TIMELINE, key=lambda r: (r.month_index, r.name)
        )
        seen: Dict[str, int] = {}
        out: List[Tuple[DeploymentRecord, float]] = []
        for record in ordered:
            prior = seen.get(record.deployment_kind, 0)
            out.append((record, self.predict(record, prior)))
            seen[record.deployment_kind] = prior + 1
        return out

    def correlation_with_observed(self) -> float:
        """Pearson correlation of predicted vs observed effort."""
        predictions = self.predict_timeline()
        xs = [pred for _, pred in predictions]
        ys = [record.observed_effort for record, _ in predictions]
        return _pearson(xs, ys)


def _pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points")
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = math.sqrt(sum((x - mx) ** 2 for x in xs))
    vy = math.sqrt(sum((y - my) ** 2 for y in ys))
    if vx == 0 or vy == 0:
        return 0.0
    return cov / (vx * vy)


def learning_curve() -> Dict[str, object]:
    """The Figure 3 claim quantified: effort declines as SCIERA matures.

    Returns the observed-effort-vs-time correlation (negative = learning),
    and mean efforts for the first and second half of the timeline.
    """
    ordered = sorted(
        DEPLOYMENT_TIMELINE, key=lambda r: (r.month_index, r.name)
    )
    xs = [float(r.month_index) for r in ordered]
    ys = [r.observed_effort for r in ordered]
    half = len(ordered) // 2
    first = sum(ys[:half]) / half
    second = sum(ys[half:]) / (len(ys) - half)
    return {
        "time_effort_correlation": _pearson(xs, ys),
        "first_half_mean_effort": first,
        "second_half_mean_effort": second,
        "reduction_pct": 100.0 * (1 - second / first),
    }
