"""Adversarial faults inside the crucible: composite schedules that mix
benign chaos with Byzantine attacks, the trust-revocations regression the
security invariants must catch, and ddmin shrinking down to a minimal
attack reproducer that replays exactly.
"""

import os

import pytest

from repro.harness.crucible import (
    ADVERSARY_KINDS,
    FAULT_KINDS,
    CrucibleError,
    FaultSpec,
    generate_adversarial_schedule,
    generate_schedule,
    replay_artifact,
    run_schedule,
    save_artifact,
    shrink_schedule,
)


class TestAdversarialSchedules:
    def test_generator_is_deterministic(self):
        assert (
            generate_adversarial_schedule(5).digest()
            == generate_adversarial_schedule(5).digest()
        )

    def test_always_contains_an_adversarial_fault(self):
        for seed in range(10):
            schedule = generate_adversarial_schedule(seed)
            assert any(
                spec.kind in ADVERSARY_KINDS for spec in schedule.faults
            ), f"seed {seed} drew no adversarial fault"

    def test_adversarial_kinds_validate(self):
        for kind in ADVERSARY_KINDS:
            FaultSpec(kind=kind, start_s=1.0, end_s=2.0)
        with pytest.raises(CrucibleError):
            FaultSpec(kind="adv-nonsense", start_s=1.0, end_s=2.0)

    def test_legacy_generator_untouched(self):
        # The adversary must not shift any legacy seeded schedule: the
        # default kind pool excludes adversarial kinds, and this pinned
        # digest is from before the adversary existed.
        assert not set(ADVERSARY_KINDS) & set(FAULT_KINDS)
        assert generate_schedule(7).digest() == "aaaeb943026c9d65"


class TestHardenedWorldUnderAttack:
    def test_composite_attack_schedule_is_all_green(self):
        schedule = generate_adversarial_schedule(0)
        result = run_schedule(schedule)
        assert result.ok, result.violated_names()
        # Security invariants actually ran (they are in the scoreboard).
        assert "security-forged-revocation-rejected" in result.scoreboard

    def test_revocation_attacks_compose_with_chaos(self):
        # Seed 4 draws revocation replays alongside surges and outages;
        # the hardened world must stay green through the composition.
        schedule = generate_adversarial_schedule(4)
        assert any(
            spec.kind in ADVERSARY_KINDS for spec in schedule.faults
        )
        result = run_schedule(schedule)
        assert result.ok, result.violated_names()


class TestTrustRevocationsRegression:
    def test_bug_is_caught_shrunk_and_replayed(self, tmp_path):
        schedule = generate_adversarial_schedule(
            4, ensure_kind="adv-forge-revocation"
        )
        caught = run_schedule(schedule, bug="trust-revocations")
        assert not caught.ok
        violated = set(caught.violated_names())
        assert violated & {
            "security-forged-revocation-rejected",
            "security-replayed-revocation-ignored",
        }
        shrink = shrink_schedule(
            schedule, bug="trust-revocations",
            target=tuple(caught.violated_names()),
        )
        assert shrink.shrunk_faults <= 2
        assert all(
            spec.kind in ADVERSARY_KINDS
            for spec in shrink.schedule.faults
        ), "minimal reproducer should be pure attack"
        minimal = run_schedule(shrink.schedule, bug="trust-revocations")
        artifact = os.path.join(str(tmp_path), "attack_repro.json")
        save_artifact(artifact, minimal, shrink)
        _, exact = replay_artifact(artifact)
        assert exact

    def test_hardened_world_shrugs_off_same_schedule(self):
        schedule = generate_adversarial_schedule(
            4, ensure_kind="adv-forge-revocation"
        )
        assert run_schedule(schedule).ok
