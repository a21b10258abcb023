"""revocation_storm: seeded determinism and the strict-improvement bounds.

These are the assertions the revocation-smoke CI job relies on: the
fixed-seed run must be byte-identical across invocations, and the pipeline
must beat per-host rediscovery *strictly* on every reported metric.
"""

import pytest

from repro.experiments import revocation_storm
from repro.experiments.registry import EXPERIMENTS


@pytest.fixture(scope="module")
def result():
    return revocation_storm.run(fast=True)


def _pair(result, metric):
    """(baseline, pipeline) numbers out of a "X ... -> Y ..." comparison."""
    for comparison in result.comparisons:
        if comparison.metric == metric:
            before, after = comparison.measured.split(" -> ")
            return float(before.split()[0]), float(after.split()[0])
    raise AssertionError(f"metric {metric!r} missing")


class TestDeterminism:
    def test_registered(self):
        assert "revocation_storm" in EXPERIMENTS

    def test_two_runs_byte_identical(self, result):
        again = revocation_storm.run(fast=True)
        assert again.report() == result.report()

    def test_fault_stream_digest_in_details(self, result):
        assert "digest" in result.details
        assert "seed 23" in result.details

    def test_different_seed_different_stream(self, result, monkeypatch):
        monkeypatch.setattr(revocation_storm, "SEED", 24)
        other = revocation_storm.run(fast=True)
        own = result.details.split("digest ")[1].split()[0]
        theirs = other.details.split("digest ")[1].split()[0]
        assert own != theirs


class TestPipelineStrictlyBetter:
    def test_strictly_fewer_stale_paths_served(self, result):
        baseline, pipeline = _pair(result, "stale paths served")
        assert pipeline < baseline

    def test_strictly_lower_p99_failover(self, result):
        baseline, pipeline = _pair(result, "p99 time-to-failover")
        assert pipeline < baseline

    def test_strictly_faster_reconvergence(self, result):
        baseline, pipeline = _pair(result, "time-to-reconverge")
        assert pipeline < baseline

    def test_pipeline_quarantines_segments(self, result):
        assert "quarantine: pipeline held" in result.details
        held = float(
            result.details.split("pipeline held ")[1].split()[0]
        )
        assert held > 0
