"""Crucible experiment: a seeded DST fuzz campaign over the whole stack.

The resilience experiments so far (``chaos``, ``control_chaos``,
``revocation_storm``, ``overload``) each exercise one hand-written
scenario.  This experiment turns the crank the other way: the
:mod:`repro.harness.crucible` harness generates *random composite* fault
schedules — link outages, probe loss/corruption, symmetric and asymmetric
network partitions, control-service crashes, CA outages, and load surges,
freely overlapping — and runs each against a fully assembled world on
both the paper's Figure-1 topology and a seeded random 64-AS topology,
while the :mod:`repro.harness.invariants` registry checks every global
safety property continuously and every recovery property after the
faults heal.

The campaign is expected to be **all-green**: the scoreboard counts
violations per invariant across every run, and the campaign digest
(sha256 over each run's schedule digest and fault-stream digest) is
byte-identical across repeated invocations — the determinism that makes
the harness CI-gateable.

The experiment then validates the harness itself: with the test-only
``bug="shed-critical"`` flag, overload guards are misconfigured to CoDel-
shed priority-0 work; the ``codel-spares-critical`` invariant must catch
it, and the ddmin shrinker must reduce the failing composite schedule to
a minimal reproducer (<= 5 fault events) that replays the violation from
its seed via a persisted JSON artifact.
"""

from __future__ import annotations

import hashlib
import os
import tempfile

from repro.experiments.registry import Comparison, ExperimentResult
from repro.harness.crucible import (
    generate_schedule,
    replay_artifact,
    run_schedule,
    save_artifact,
    shrink_schedule,
)

#: Schedules per topology in the fuzz campaign (fast mode).
FAST_RUNS_PER_TOPOLOGY = 10
FULL_RUNS_PER_TOPOLOGY = 25
CAMPAIGN_TOPOLOGIES = ("fig1", "rand64")
SHRINK_MAX_FAULTS = 5
#: First campaign schedule's seed; schedule i uses SEED + i.
SEED = 0xD57
#: The shrink demo's schedule seed.
SHRINK_SEED = 11


def run_campaign(fast: bool = True):
    """The fuzz campaign: N random schedules per topology, all checked."""
    per_topology = FAST_RUNS_PER_TOPOLOGY if fast else FULL_RUNS_PER_TOPOLOGY
    results = []
    for topology in CAMPAIGN_TOPOLOGIES:
        for index in range(per_topology):
            schedule = generate_schedule(
                seed=SEED + index, topology=topology, n_faults=4
            )
            results.append(run_schedule(schedule))
    return results


def campaign_digest(results) -> str:
    """sha256 over every run's (schedule digest, fault digest) — stable
    across repeated campaigns iff every fault stream replayed exactly."""
    payload = "\n".join(
        f"{r.schedule.digest()}|{r.fault_digest}|{','.join(r.violated_names())}"
        for r in results
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def run_shrink_demo():
    """Inject the shed-critical bug, catch it, shrink it, replay it."""
    schedule = generate_schedule(
        seed=SHRINK_SEED, topology="mesh5", n_faults=6,
        ensure_kind="load-surge",
    )
    caught = run_schedule(schedule, bug="shed-critical")
    shrink = None
    replay_exact = False
    minimal = None
    if not caught.ok:
        shrink = shrink_schedule(
            schedule, bug="shed-critical",
            target=tuple(caught.violated_names()),
        )
        minimal = run_schedule(shrink.schedule, bug="shed-critical")
        artifact_path = os.path.join(
            tempfile.gettempdir(), "crucible_shrunk_repro.json"
        )
        save_artifact(artifact_path, minimal, shrink)
        _, replay_exact = replay_artifact(artifact_path)
    return {
        "caught": caught,
        "shrink": shrink,
        "minimal": minimal,
        "replay_exact": replay_exact,
    }


def run(fast: bool = True) -> ExperimentResult:
    results = run_campaign(fast=fast)
    digest = campaign_digest(results)
    # Aggregate scoreboard across every run; all-green means all zeros.
    scoreboard = {}
    for result in results:
        for name, count in result.scoreboard.items():
            scoreboard[name] = scoreboard.get(name, 0) + count
    total_violations = sum(scoreboard.values())
    total_checks = sum(r.checks_run for r in results)
    total_faults = sum(len(r.schedule.faults) for r in results)

    demo = run_shrink_demo()
    shrink = demo["shrink"]
    shrunk_faults = shrink.shrunk_faults if shrink is not None else -1

    comparisons = [
        Comparison(
            "schedules all-green",
            "every invariant holds under composed faults",
            f"{sum(1 for r in results if r.ok)}/{len(results)} runs, "
            f"{total_violations} violations",
            note=f"{total_faults} faults composed, {total_checks} checks",
        ),
        Comparison(
            "invariants checked",
            "forwarding/control safety stated mechanically",
            f"{len(results[0].scoreboard)} invariants "
            f"({sum(1 for r in results)} runs x 2 topologies)",
        ),
        Comparison(
            "injected bug caught",
            "a checker that fires when it should",
            f"{'yes' if not demo['caught'].ok else 'NO'}: "
            f"{','.join(demo['caught'].violated_names()) or 'none'}",
            note="test-only shed-critical misconfiguration",
        ),
        Comparison(
            "shrunk reproducer",
            f"<= {SHRINK_MAX_FAULTS} fault events",
            (f"{shrink.original_faults} -> {shrunk_faults} faults "
             f"in {shrink.runs} runs" if shrink else "shrink did not run"),
            note=f"replays byte-identically: {demo['replay_exact']}",
        ),
    ]
    board = ", ".join(
        f"{name}={count}" for name, count in sorted(scoreboard.items())
    )
    details = (
        f"  campaign digest {digest} over {len(results)} schedules "
        f"({', '.join(CAMPAIGN_TOPOLOGIES)})\n"
        f"  scoreboard: {board}"
    )
    return ExperimentResult(
        exp_id="crucible",
        title="Deterministic simulation testing (fuzzed fault schedules)",
        comparisons=comparisons,
        details=details,
    )
