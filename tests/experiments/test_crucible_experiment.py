"""The crucible experiment: all-green campaign slice + seeded determinism.

The full fast campaign (20 schedules) runs in the `crucible` experiment
itself; this test gates a 4-schedule slice of the same seed corpus on
both campaign topologies, so CI catches an invariant violation or a
determinism break without paying the full campaign twice.
"""

import pytest

from repro.experiments.crucible import SEED, campaign_digest, run_shrink_demo
from repro.harness.crucible import generate_schedule, run_schedule


@pytest.fixture(scope="module")
def slice_results():
    results = []
    for topology in ("fig1", "rand64"):
        for index in range(2):
            schedule = generate_schedule(
                seed=SEED + index, topology=topology, n_faults=4
            )
            results.append(run_schedule(schedule))
    return results


class TestCampaignSlice:
    def test_all_green(self, slice_results):
        for result in slice_results:
            assert result.ok, (
                result.schedule.topology,
                result.schedule.seed,
                [str(v) for v in result.violations],
            )

    def test_every_run_checked_and_faulted(self, slice_results):
        for result in slice_results:
            assert result.checks_run > 0
            assert result.fault_events > 0

    def test_digest_stable_across_replay(self, slice_results):
        # Replay the cheap topology's slice and fold both into the same
        # campaign digest machinery the experiment reports.
        rand64 = [
            r for r in slice_results if r.schedule.topology == "rand64"
        ]
        replayed = [run_schedule(r.schedule) for r in rand64]
        assert campaign_digest(rand64) == campaign_digest(replayed)


class TestShrinkDemo:
    def test_bug_caught_shrunk_and_replayed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
        demo = run_shrink_demo()
        assert not demo["caught"].ok
        assert "codel-spares-critical" in demo["caught"].violated_names()
        assert demo["shrink"].shrunk_faults <= 5
        assert demo["replay_exact"]
