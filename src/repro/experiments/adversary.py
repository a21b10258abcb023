"""Adversary experiment: a seeded red-team campaign over the trust stack.

The resilience experiments so far compose *benign* faults — crashes,
outages, surges.  This experiment instead mounts deliberate Byzantine
attacks from :mod:`repro.harness.adversary` against the stack as shipped:
every ingestion point verifies what the paper's threat model says it must
— PCB signatures and freshness in the beaconing engine, revocation
signatures and freshness in path servers and end-host daemons, hop-field
MACs and lifetime bounds in the border routers, DRKey epoch binding in the
LightningFilter, and CoDel admission control with a protected critical
priority in front of the path servers.

The seeded attack stream must score **zero** successes (each attack both
fails and is *detected* — attributable in ``security_*`` counters and the
event timeline), and honest goodput under attack must stay >= 80% of its
no-attack baseline.  The contrast — the same stream compromising a stack
with those gates open — is reproduced by ``tests/reference_arms.py``,
which patches the checks out for the duration of a campaign; the shipped
classes have no switch that does.

The second half turns the crucible loose: adversarial composite schedules
(:func:`repro.harness.crucible.generate_adversarial_schedule`) run
all-green against the hardened world, and with the test-only
``bug="trust-revocations"`` regression the security invariants catch the
forged/replayed revocations and ddmin shrinks the composite schedule to a
minimal attack reproducer that replays byte-identically from JSON.

Everything is seeded; the experiment digest is stable across runs.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass
from typing import List, Tuple

from repro.endhost.daemon import Daemon
from repro.experiments.registry import Comparison, ExperimentResult
from repro.harness.adversary import AttackOutcome, ByzantineAdversary
from repro.harness.crucible import (
    TOPOLOGIES,
    generate_adversarial_schedule,
    measure_goodput,
    replay_artifact,
    run_schedule,
    save_artifact,
    shrink_schedule,
)
from repro.obs import Telemetry
from repro.resilience.overload import OverloadGuard
from repro.scion.crypto.keys import SymmetricKey
from repro.scion.network import ScionNetwork
from repro.sciera.lightningfilter import LightningFilter

#: Quarantine TTL in this experiment; long enough that a *successful*
#: forged revocation is still poisoning paths when goodput is re-measured.
REVOCATION_TTL_S = 5.0
GOODPUT_FLOOR = 0.8
ADVERSARIAL_SCHEDULES_FAST = 4
ADVERSARIAL_SCHEDULES_FULL = 10
SHRINK_MAX_FAULTS = 2
#: Seed of the attacked arm.
SEED = 0xA11
#: First adversarial schedule's seed; schedule i uses CRUCIBLE_SEED + i.
CRUCIBLE_SEED = 0xBAD5EED
#: The shrink demo's schedule seed.
SHRINK_SEED = 4


@dataclass
class Arm:
    """The stack under attack plus everything the campaign aims at."""

    name: str
    network: ScionNetwork
    telemetry: Telemetry
    adversary: ByzantineAdversary
    daemon: Daemon
    lightning_filter: LightningFilter
    guard: OverloadGuard
    pairs: List[Tuple]
    baseline_goodput: float = 0.0
    attacked_goodput: float = 0.0
    honest_admit_fraction: float = 0.0


def build_arm(seed: int = 0) -> Arm:
    """Assemble the arm: mesh5, a leaf daemon, a Science-DMZ filter, and
    an admission guard in front of the leaf's path server."""
    telemetry = Telemetry()
    topology = TOPOLOGIES["mesh5"](seed)
    network = ScionNetwork(topology, seed=seed, telemetry=telemetry)
    network.dataplane.revocation_ttl_s = REVOCATION_TTL_S
    leaves = sorted(
        ia for ia, topo in topology.ases.items() if not topo.is_core
    )
    pairs = [(leaves[i], leaves[j])
             for i in range(len(leaves)) for j in range(len(leaves))
             if i != j]
    src = leaves[0]
    daemon = Daemon(network, src, telemetry=telemetry)
    guard = OverloadGuard(
        service_time_s=0.002, name=f"ps:{src}", critical_priority=0,
        telemetry=telemetry,
    )
    network.services[src].path_server.guard = guard
    lightning_filter = LightningFilter(
        leaves[-1],
        SymmetricKey(hashlib.sha256(b"sciera-dmz-host-key").digest()),
        telemetry=telemetry,
    )
    adversary = ByzantineAdversary(
        network, seed=seed ^ 0x5EC0BAD, event_log=telemetry.events
    )
    return Arm(
        name="hardened",
        network=network,
        telemetry=telemetry,
        adversary=adversary,
        daemon=daemon,
        lightning_filter=lightning_filter,
        guard=guard,
        pairs=pairs,
    )


def run_attack_campaign(arm: Arm) -> List[AttackOutcome]:
    """The full Byzantine repertoire against one arm, seeded."""
    adversary = arm.adversary
    network = arm.network
    topology = network.topology
    now = float(network.timestamp)
    arm.baseline_goodput = measure_goodput(network, arm.pairs, now)
    t = now
    leaves = sorted(
        ia for ia, topo in topology.ases.items() if not topo.is_core
    )
    cores = topology.core_ases()
    # 1. Control plane: rogue-AS beacon forgery and PCB replay.
    for victim in leaves[:2]:
        t += 0.05
        adversary.forge_beacon(victim, t)
        t += 0.05
        adversary.replay_beacon(victim, t)
    # 2. Revocation pipeline: forged + replayed SCMP revocations against
    #    every core interface (the paths all cross the cores, so a single
    #    accepted forgery visibly poisons the quarantine).
    for core in cores:
        for ifid in sorted(topology.get(core).interfaces):
            t += 0.05
            adversary.forge_revocation(core, ifid, t, daemon=arm.daemon)
    t += 0.05
    adversary.replay_revocation(
        cores[0], sorted(topology.get(cores[0]).interfaces)[0], t,
        daemon=arm.daemon,
    )
    # 3. Data plane: on-path hop-field tampering, both flavours.
    src, dst = arm.pairs[0]
    t += 0.05
    adversary.tamper_packet(src, dst, t, mode="mac")
    t += 0.05
    adversary.tamper_packet(src, dst, t, mode="inflate")
    # 4. Science-DMZ: wrong-epoch DRKey stamping and a spoofed-source
    #    packet flood against the LightningFilter.
    t += 0.05
    adversary.wrong_epoch_stamp(arm.lightning_filter, str(src), t)
    t += 0.05
    adversary.flood_filter(arm.lightning_filter, t)
    # 5. Path server: spoofed low-priority request flood, with honest
    #    priority-0 lookups interleaved to measure collateral damage.
    t += 0.05
    adversary.flood_guard(arm.guard, t, target="path-server", requests=400,
                          duration_s=0.5)
    # Honest lookups are continuous background traffic: they span the
    # flood burst *and* its drain, like the real clients would.
    admitted = sum(
        1 for i in range(100)
        if arm.guard.offer(t + 1.5 * i / 100, priority=0).admitted
    )
    arm.honest_admit_fraction = admitted / 100
    # Goodput after the guard queue drains (the flood's ~1s of backlog is
    # transient by design) but while a *successful* forged revocation
    # would still be quarantining paths (TTL 5s).
    arm.attacked_goodput = measure_goodput(network, arm.pairs, t + 2.0)
    return list(adversary.outcomes)


def arm_digest(arm: Arm) -> str:
    payload = (
        f"{arm.name}|{arm.adversary.event_digest()}"
        f"|{arm.baseline_goodput:.6f}|{arm.attacked_goodput:.6f}"
        f"|{arm.honest_admit_fraction:.6f}"
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# -- crucible half -----------------------------------------------------------------


def run_adversarial_crucible(fast: bool = True):
    """Adversarial composite schedules against the hardened world."""
    count = ADVERSARIAL_SCHEDULES_FAST if fast else ADVERSARIAL_SCHEDULES_FULL
    results = []
    for index in range(count):
        schedule = generate_adversarial_schedule(CRUCIBLE_SEED + index)
        results.append(run_schedule(schedule))
    return results


def run_shrink_demo():
    """Regress revocation trust, catch it, shrink it, replay it."""
    schedule = generate_adversarial_schedule(
        SHRINK_SEED, ensure_kind="adv-forge-revocation"
    )
    caught = run_schedule(schedule, bug="trust-revocations")
    shrink = None
    minimal = None
    replay_exact = False
    if not caught.ok:
        shrink = shrink_schedule(
            schedule, bug="trust-revocations",
            target=tuple(caught.violated_names()),
        )
        minimal = run_schedule(shrink.schedule, bug="trust-revocations")
        artifact_path = os.path.join(
            tempfile.gettempdir(), "adversary_shrunk_repro.json"
        )
        save_artifact(artifact_path, minimal, shrink)
        _, replay_exact = replay_artifact(artifact_path)
    return {
        "caught": caught,
        "shrink": shrink,
        "minimal": minimal,
        "replay_exact": replay_exact,
    }


# -- the experiment ----------------------------------------------------------------


def run(fast: bool = True) -> ExperimentResult:
    arm = build_arm(seed=SEED)
    outcomes = run_attack_campaign(arm)
    succeeded = sum(1 for o in outcomes if o.succeeded)
    detected = sum(1 for o in outcomes if o.detected)
    retention = (
        arm.attacked_goodput / arm.baseline_goodput
        if arm.baseline_goodput else 0.0
    )

    crucible_runs = run_adversarial_crucible(fast=fast)
    green = sum(1 for r in crucible_runs if r.ok)
    demo = run_shrink_demo()
    shrink = demo["shrink"]

    digest_payload = "\n".join([
        arm_digest(arm),
        *(f"{r.schedule.digest()}|{r.fault_digest}|"
          f"{','.join(r.violated_names())}" for r in crucible_runs),
        ",".join(demo["caught"].violated_names()),
        str(shrink.shrunk_faults if shrink else -1),
        str(demo["replay_exact"]),
    ])
    digest = hashlib.sha256(digest_payload.encode()).hexdigest()[:16]

    comparisons = [
        Comparison(
            "hardened attack surface",
            "every Byzantine attack fails closed",
            f"{succeeded}/{len(outcomes)} succeeded, "
            f"{detected}/{len(outcomes)} detected",
            note="forge/replay PCBs+revocations, MAC tamper, "
                 "wrong-epoch DRKey, spoofed floods",
        ),
        Comparison(
            "honest goodput under attack",
            f">= {GOODPUT_FLOOR:.0%} of no-attack baseline",
            f"{retention:.0%} retained; "
            f"priority-0 admits {arm.honest_admit_fraction:.0%}",
        ),
        Comparison(
            "adversarial crucible",
            "composite attack schedules all-green",
            f"{green}/{len(crucible_runs)} hardened runs clean",
            note="benign chaos + Byzantine faults composed",
        ),
        Comparison(
            "minimal attack reproducer",
            f"bug caught, shrunk to <= {SHRINK_MAX_FAULTS} faults",
            (f"{shrink.original_faults} -> {shrink.shrunk_faults} faults "
             f"in {shrink.runs} runs" if shrink else "shrink did not run"),
            note=f"trust-revocations regression; "
                 f"exact replay: {demo['replay_exact']}",
        ),
    ]
    details = (
        f"  campaign digest {digest}\n"
        f"  hardened: {arm.adversary.event_digest()} "
        f"goodput {arm.baseline_goodput:.2f}->{arm.attacked_goodput:.2f}\n"
        "  naive reference arm (gates patched open, same attack stream): "
        "tests/experiments/test_adversary_experiment.py"
    )
    return ExperimentResult(
        exp_id="adversary",
        title="Byzantine red-team campaign against the hardened stack",
        comparisons=comparisons,
        details=details,
    )
