"""The adversary experiment: the hardened/naive contrast that is the
whole point of the red-team campaign, gated piecewise so CI pays one
campaign per arm rather than the experiment twice.

The experiment builds and digests the hardened arm only; the naive arm is
the reference arm in ``tests/reference_arms.py`` (same seed, same attack
stream, every gate patched open for the duration of the campaign).
"""

import pytest

from repro.experiments.adversary import (
    GOODPUT_FLOOR,
    SEED,
    arm_digest,
    build_arm,
    run_adversarial_crucible,
    run_attack_campaign,
    run_shrink_demo,
)
from tests.reference_arms import run_naive_campaign


@pytest.fixture(scope="module")
def hardened():
    arm = build_arm(seed=SEED)
    outcomes = run_attack_campaign(arm)
    return arm, outcomes


@pytest.fixture(scope="module")
def naive():
    return run_naive_campaign(seed=SEED)


class TestHardenedArm:
    def test_zero_successful_attacks(self, hardened):
        arm, outcomes = hardened
        assert outcomes
        assert not [o for o in outcomes if o.succeeded]

    def test_every_attack_detected(self, hardened):
        arm, outcomes = hardened
        assert all(o.detected for o in outcomes)

    def test_goodput_retained_under_attack(self, hardened):
        arm, _ = hardened
        assert arm.baseline_goodput > 0
        assert (
            arm.attacked_goodput
            >= GOODPUT_FLOOR * arm.baseline_goodput
        )

    def test_honest_critical_traffic_admitted(self, hardened):
        arm, _ = hardened
        assert arm.honest_admit_fraction >= GOODPUT_FLOOR

    def test_attacks_attributed(self, hardened):
        arm, _ = hardened
        adversarial = [
            e for e in arm.telemetry.events.events
            if e.source == "adversary"
        ]
        assert len(adversarial) == len(arm.adversary.outcomes)

    def test_arm_is_what_it_was_beside_the_naive_arm(self, hardened):
        """Literals recorded while the experiment still built both arms:
        dropping the naive one moved nothing in the hardened one."""
        arm, outcomes = hardened
        assert len(outcomes) == 19
        assert sum(1 for o in outcomes if o.detected) == 19
        assert arm.adversary.event_digest() == "1a51402e8908b501"
        assert arm_digest(arm) == "0d825c7488200317"


class TestNaiveArm:
    def test_same_stream_compromises_naive_stack(self, hardened, naive):
        _, hardened_outcomes = hardened
        arm, outcomes = naive
        assert len(outcomes) == len(hardened_outcomes)
        assert sum(1 for o in outcomes if o.succeeded) == 14
        assert not [o for o in outcomes if o.detected]

    def test_goodput_collapses(self, hardened, naive):
        arm, _ = naive
        # Accepted forged revocations quarantine the core interfaces the
        # honest paths cross.
        assert (arm.baseline_goodput, arm.attacked_goodput) == (1.0, 0.0)
        assert arm.honest_admit_fraction == 1.0  # nothing sheds

    def test_gates_close_again_after_the_campaign(self, naive):
        arm, _ = naive
        outcome = arm.adversary.flood_filter(
            arm.lightning_filter, float(arm.network.timestamp) + 10.0
        )
        assert not outcome.succeeded and outcome.detected


class TestDeterminism:
    def test_arm_digest_stable(self, hardened):
        arm, _ = hardened
        rebuilt = build_arm(seed=SEED)
        run_attack_campaign(rebuilt)
        assert arm_digest(rebuilt) == arm_digest(arm)


class TestAdversarialCrucibleSlice:
    def test_slice_is_all_green(self):
        results = run_adversarial_crucible(fast=True)
        for result in results:
            assert result.ok, (
                result.schedule.seed, result.violated_names()
            )
        # The crucible half of the experiment digest, as it was.
        assert [(r.schedule.digest(), r.fault_digest) for r in results] == [
            ("171f5431aa359aec", "5f4421854091c0e4"),
            ("e38946e8538649ff", "fc98924279a38134"),
            ("13edd70fddc6b349", "2c1d0cf083423f41"),
            ("77249393863903db", "40bef84cdc6e9693"),
        ]

    def test_shrink_demo_is_what_it_was(self):
        demo = run_shrink_demo()
        assert demo["caught"].violated_names() == [
            "security-forged-revocation-rejected",
            "security-replayed-revocation-ignored",
        ]
        shrink = demo["shrink"]
        assert (shrink.original_faults, shrink.shrunk_faults) == (5, 1)
        assert demo["replay_exact"] is True
