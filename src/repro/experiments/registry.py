"""Experiment registry: ids, result types, and lookup."""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Comparison:
    """One paper-vs-measured row."""

    metric: str
    paper: str
    measured: str
    note: str = ""


@dataclass
class ExperimentResult:
    exp_id: str
    title: str
    comparisons: List[Comparison] = field(default_factory=list)
    details: str = ""

    def report(self) -> str:
        lines = [f"== {self.exp_id}: {self.title} =="]
        width = max((len(c.metric) for c in self.comparisons), default=10)
        for c in self.comparisons:
            row = f"  {c.metric:<{width}}  paper: {c.paper:<28} measured: {c.measured}"
            if c.note:
                row += f"   ({c.note})"
            lines.append(row)
        if self.details:
            lines.append(self.details)
        return "\n".join(lines)


#: experiment id -> (module, title)
EXPERIMENTS: Dict[str, Tuple[str, str]] = {
    "table1": ("repro.experiments.table1_pops", "SCIERA PoPs and networks"),
    "table2": ("repro.experiments.table2_hinting", "Hinting mechanism matrix"),
    "fig3": ("repro.experiments.fig3_effort", "Deployment effort over time"),
    "fig4": ("repro.experiments.fig4_bootstrapping", "Bootstrapping latency"),
    "sec52": ("repro.experiments.sec52_enablement", "App enablement effort"),
    "fig5": ("repro.experiments.fig5_latency", "Ping latency CDF SCION vs IP"),
    "fig6": ("repro.experiments.fig6_ratio", "RTT ratio CDF"),
    "fig7": ("repro.experiments.fig7_time", "RTT ratio over time"),
    "fig8": ("repro.experiments.fig8_paths", "Max active paths matrix"),
    "fig9": ("repro.experiments.fig9_deviation", "Median path-count deviation"),
    "fig10a": ("repro.experiments.fig10a_inflation", "Path latency inflation"),
    "fig10b": ("repro.experiments.fig10b_disjointness", "Path disjointness"),
    "fig10c": ("repro.experiments.fig10c_resilience", "Link-failure resilience"),
    "sec56": ("repro.experiments.sec56_survey", "Operator survey"),
    "dispatcher": ("repro.experiments.ablation_dispatcher",
                   "Dispatcher vs dispatcherless ablation (Section 4.8)"),
    "chaos": ("repro.experiments.chaos_resilience",
              "Resilience under injected faults (Sections 4.7/5.4)"),
    "control_chaos": ("repro.experiments.control_chaos",
                      "Control-plane self-healing under chaos (Section 5.4)"),
    "revocation_storm": ("repro.experiments.revocation_storm",
                         "Revocation pipeline vs per-host rediscovery"),
    "overload": ("repro.experiments.overload",
                 "Overload control and graceful degradation"),
    "crucible": ("repro.experiments.crucible",
                 "Deterministic simulation testing (fuzzed fault schedules)"),
    "adversary": ("repro.experiments.adversary",
                  "Byzantine red-team campaign against the hardened stack"),
    "obs_slice": ("repro.experiments.obs_slice",
                  "Profiled chaos slice (flight recorder + profiler + SLOs)"),
}


def get_experiment(exp_id: str) -> Callable[..., ExperimentResult]:
    try:
        module_name, _ = EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    module = importlib.import_module(module_name)
    return module.run


def run_experiment(exp_id: str, fast: bool = True) -> ExperimentResult:
    return get_experiment(exp_id)(fast=fast)
