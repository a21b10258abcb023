"""The crucible DST harness: schedules, invariants, runs, artifacts."""

import json
from types import SimpleNamespace

import pytest

from repro.harness.crucible import (
    FAULT_KINDS,
    CrucibleError,
    FaultSpec,
    Schedule,
    generate_schedule,
    load_artifact,
    replay_artifact,
    run_schedule,
    save_artifact,
    shrink_schedule,
)
from repro.harness.invariants import (
    InvariantChecker,
    check_no_forwarding_loops,
    standard_invariants,
)


class TestSchedules:
    def test_generation_is_deterministic_per_seed(self):
        a = generate_schedule(seed=5, topology="mesh5")
        b = generate_schedule(seed=5, topology="mesh5")
        c = generate_schedule(seed=6, topology="mesh5")
        assert a == b
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_topology_changes_the_stream(self):
        a = generate_schedule(seed=5, topology="mesh5")
        b = generate_schedule(seed=5, topology="rand64")
        assert a.faults != b.faults

    def test_faults_heal_before_settle_window(self):
        for seed in range(20):
            schedule = generate_schedule(seed=seed, n_faults=6)
            for spec in schedule.faults:
                assert spec.end_s <= 0.85 * schedule.duration_s + 1e-9

    def test_roundtrip_through_dict(self):
        schedule = generate_schedule(seed=9, n_faults=5)
        clone = Schedule.from_dict(
            json.loads(json.dumps(schedule.to_dict()))
        )
        assert clone == schedule
        assert clone.digest() == schedule.digest()

    def test_ensure_kind_forces_presence(self):
        schedule = generate_schedule(
            seed=1, n_faults=3, ensure_kind="partition"
        )
        assert any(s.kind == "partition" for s in schedule.faults)

    def test_invalid_specs_rejected(self):
        with pytest.raises(CrucibleError):
            FaultSpec(kind="meteor-strike", start_s=0.0, end_s=1.0)
        with pytest.raises(CrucibleError):
            FaultSpec(kind="link-outage", start_s=2.0, end_s=1.0)
        with pytest.raises(CrucibleError):
            generate_schedule(seed=0, n_faults=0)


class TestInvariantChecker:
    def test_duplicate_names_rejected(self):
        invariants = standard_invariants()
        with pytest.raises(ValueError):
            InvariantChecker(list(invariants) + [invariants[0]])

    def test_scoreboard_includes_zeros(self):
        checker = InvariantChecker(standard_invariants())
        board = checker.scoreboard()
        assert board
        assert all(count == 0 for count in board.values())


def _fake_path(records):
    plan = tuple(
        SimpleNamespace(hop=SimpleNamespace(ia=ia), ingress=ing, egress=eg)
        for ia, ing, eg in records
    )
    return SimpleNamespace(forwarding_plan=lambda: plan)


def _fake_world(records):
    meta = SimpleNamespace(path=_fake_path(records), stale=False)
    return SimpleNamespace(
        served=[SimpleNamespace(src="a", dst="b", meta=meta)]
    )


class TestForwardingLoopInvariant:
    """The loop check must accept legal SCION shapes (shortcut joins,
    one up-then-down hairpin through the source AS) and still catch
    genuine repeated traversals."""

    def test_shortcut_join_with_repeated_interface_is_legal(self):
        world = _fake_world([
            ("71-101", 0, 1),   # up-segment record at the cut AS
            ("71-101", 1, 3),   # down-segment record, same oriented iface
            ("71-105", 1, 0),
        ])
        assert check_no_forwarding_loops(world, 0.0) is None

    def test_hairpin_through_core_is_legal(self):
        world = _fake_world([
            ("71-101", 0, 1),
            ("71-4", 4, 0), ("71-4", 0, 4),
            ("71-101", 1, 3),   # re-enters the source AS once: allowed
            ("71-105", 1, 0),
        ])
        assert check_no_forwarding_loops(world, 0.0) is None

    def test_repeated_crossing_is_a_loop(self):
        world = _fake_world([
            ("71-1", 0, 1), ("71-2", 1, 2),
            ("71-1", 2, 1), ("71-2", 1, 0),  # same 71-1#1 -> 71-2#1 again
        ])
        detail = check_no_forwarding_loops(world, 0.0)
        assert detail is not None and "twice" in detail

    def test_third_reentry_is_a_loop(self):
        world = _fake_world([
            ("71-1", 0, 1), ("71-2", 1, 2), ("71-1", 2, 3),
            ("71-3", 1, 2), ("71-1", 4, 5), ("71-9", 1, 0),
        ])
        detail = check_no_forwarding_loops(world, 0.0)
        assert detail is not None and "enters 71-1" in detail


class TestRunAndShrink:
    def test_healthy_run_is_green_and_deterministic(self):
        schedule = generate_schedule(seed=3, topology="mesh5", n_faults=4)
        first = run_schedule(schedule)
        second = run_schedule(schedule)
        assert first.ok, [str(v) for v in first.violations]
        assert first.fault_digest == second.fault_digest
        assert first.checks_run == second.checks_run

    def test_injected_bug_caught_shrunk_and_replayed(self, tmp_path):
        schedule = generate_schedule(
            seed=11, topology="mesh5", n_faults=6,
            ensure_kind="load-surge",
        )
        caught = run_schedule(schedule, bug="shed-critical")
        assert not caught.ok
        assert "codel-spares-critical" in caught.violated_names()

        shrink = shrink_schedule(
            schedule, bug="shed-critical",
            target=tuple(caught.violated_names()),
        )
        assert shrink.shrunk_faults <= 5
        assert shrink.shrunk_faults <= shrink.original_faults
        minimal = run_schedule(shrink.schedule, bug="shed-critical")
        assert set(minimal.violated_names()) & set(shrink.target)

        artifact = str(tmp_path / "repro.json")
        save_artifact(artifact, minimal, shrink)
        payload = load_artifact(artifact)
        assert payload["schedule_digest"] == shrink.schedule.digest()
        replayed, exact = replay_artifact(artifact)
        assert exact
        assert replayed.fault_digest == minimal.fault_digest

    def test_shrink_requires_a_violation(self):
        schedule = generate_schedule(seed=3, topology="mesh5", n_faults=2)
        with pytest.raises(CrucibleError):
            shrink_schedule(schedule)  # healthy: nothing to shrink

    def test_every_fault_kind_applies_cleanly(self):
        """One schedule per kind: the apply/heal plumbing for each fault
        type works in isolation (regression net for target resolution)."""
        for kind in FAULT_KINDS:
            schedule = generate_schedule(
                seed=17, topology="mesh5", n_faults=1, kinds=(kind,)
            )
            result = run_schedule(schedule)
            assert result.ok, (
                kind, [str(v) for v in result.violations]
            )
