"""The operator survey (paper Section 5.6).

Eight anonymous respondents, 20 questions over three areas: deployment
experience, CAPEX, OPEX. The respondent table below is constructed so that
every percentage quoted in the paper falls out of the analysis exactly
(with n=8, each respondent is 12.5%):

* 50% have over a decade of networking/security experience;
* half are network engineers, half researchers;
* 37.5% completed the native SCION setup within one month, another 50%
  within six months, the rest longer (L2 circuit provisioning dominated);
* 62.5% deployed the SCION software without vendor support;
* 75% spent less than 20,000 USD on hardware;
* 62.5% incurred no software licensing cost (open source + L2 circuits);
* 75% needed no additional hiring or training (else ~20k USD personnel);
* 75% rate OPEX comparable to or lower than existing infrastructure;
* cost drivers: hardware maintenance 62.5%, staff workload 50%,
  monitoring/troubleshooting 25%, power 12.5%;
* 87.5% spend <10% of their operational workload on SCIERA;
* 62.5% required vendor support fewer than three times per year.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple


@dataclass(frozen=True)
class SurveyRespondent:
    """One anonymous response."""

    respondent_id: int
    role: str                       # "engineer" | "researcher"
    experience_over_decade: bool
    setup_time: str                 # "<1 month" | "<=6 months" | ">6 months"
    vendor_support_for_deploy: bool
    hardware_cost_usd: int
    license_cost_usd: int
    extra_hiring: bool
    personnel_cost_usd: int
    opex_vs_existing: str           # "comparable-or-lower" | "slightly-higher"
    cost_drivers: FrozenSet[str]
    workload_share_pct: float
    vendor_contacts_per_year: int


OPERATOR_SURVEY: Tuple[SurveyRespondent, ...] = (
    SurveyRespondent(1, "engineer", True, "<1 month", False, 6_000, 0, False,
                     0, "comparable-or-lower",
                     frozenset({"hardware-maintenance", "staff-workload"}),
                     4.0, 1),
    SurveyRespondent(2, "engineer", True, "<1 month", False, 12_000, 0, False,
                     0, "comparable-or-lower",
                     frozenset({"hardware-maintenance"}), 6.0, 0),
    SurveyRespondent(3, "engineer", False, "<1 month", True, 18_000, 15_000,
                     False, 0, "comparable-or-lower",
                     frozenset({"staff-workload", "monitoring-troubleshooting"}),
                     8.0, 2),
    SurveyRespondent(4, "engineer", True, "<=6 months", False, 9_000, 0, False,
                     0, "comparable-or-lower",
                     frozenset({"hardware-maintenance"}), 5.0, 1),
    SurveyRespondent(5, "researcher", False, "<=6 months", False, 15_000, 0,
                     True, 20_000, "slightly-higher",
                     frozenset({"staff-workload", "power"}), 9.0, 2),
    SurveyRespondent(6, "researcher", True, "<=6 months", True, 35_000, 25_000,
                     False, 0, "comparable-or-lower",
                     frozenset({"hardware-maintenance",
                                "monitoring-troubleshooting"}), 7.0, 4),
    SurveyRespondent(7, "researcher", False, "<=6 months", False, 7_000, 0,
                     False, 0, "comparable-or-lower",
                     frozenset({"hardware-maintenance"}), 3.0, 3),
    SurveyRespondent(8, "researcher", False, ">6 months", True, 28_000, 18_000,
                     True, 20_000, "slightly-higher",
                     frozenset({"staff-workload"}), 15.0, 5),
)


class SurveyAnalysis:
    """Summary statistics over the operator survey."""

    respondents = OPERATOR_SURVEY
    n = len(OPERATOR_SURVEY)

    def _pct(self, predicate) -> float:
        return 100.0 * sum(1 for r in self.respondents if predicate(r)) / self.n

    # -- deployment experience -----------------------------------------------------

    def pct_over_decade_experience(self) -> float:
        return self._pct(lambda r: r.experience_over_decade)

    def role_split(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for role in sorted({r.role for r in self.respondents}):
            out[role] = self._pct(lambda r, role=role: r.role == role)
        return out

    def pct_setup_within_one_month(self) -> float:
        return self._pct(lambda r: r.setup_time == "<1 month")

    def pct_setup_up_to_six_months(self) -> float:
        return self._pct(lambda r: r.setup_time == "<=6 months")

    def pct_deployed_without_vendor_support(self) -> float:
        return self._pct(lambda r: not r.vendor_support_for_deploy)

    # -- CAPEX ------------------------------------------------------------------------

    def pct_hardware_below_20k(self) -> float:
        return self._pct(lambda r: r.hardware_cost_usd < 20_000)

    def pct_no_license_cost(self) -> float:
        return self._pct(lambda r: r.license_cost_usd == 0)

    def pct_no_extra_hiring(self) -> float:
        return self._pct(lambda r: not r.extra_hiring)

    def typical_personnel_cost_usd(self) -> float:
        costs = [
            r.personnel_cost_usd for r in self.respondents if r.extra_hiring
        ]
        return sum(costs) / len(costs) if costs else 0.0

    # -- OPEX -------------------------------------------------------------------------

    def pct_opex_comparable_or_lower(self) -> float:
        return self._pct(lambda r: r.opex_vs_existing == "comparable-or-lower")

    def cost_driver_shares(self) -> Dict[str, float]:
        drivers = sorted({d for r in self.respondents for d in r.cost_drivers})
        return {
            driver: self._pct(lambda r, d=driver: d in r.cost_drivers)
            for driver in drivers
        }

    def pct_workload_below_10(self) -> float:
        return self._pct(lambda r: r.workload_share_pct < 10.0)

    def pct_vendor_contacts_below_3(self) -> float:
        return self._pct(lambda r: r.vendor_contacts_per_year < 3)

    # -- headline ----------------------------------------------------------------------

    def headline(self) -> Dict[str, float]:
        """Every percentage the paper quotes, in one dict."""
        return {
            "over_decade_experience": self.pct_over_decade_experience(),
            "setup_within_one_month": self.pct_setup_within_one_month(),
            "setup_up_to_six_months": self.pct_setup_up_to_six_months(),
            "deployed_without_vendor_support":
                self.pct_deployed_without_vendor_support(),
            "hardware_below_20k": self.pct_hardware_below_20k(),
            "no_license_cost": self.pct_no_license_cost(),
            "no_extra_hiring": self.pct_no_extra_hiring(),
            "opex_comparable_or_lower": self.pct_opex_comparable_or_lower(),
            "workload_below_10pct": self.pct_workload_below_10(),
            "vendor_contacts_below_3": self.pct_vendor_contacts_below_3(),
        }
