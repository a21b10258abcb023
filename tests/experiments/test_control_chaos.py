"""The control-chaos experiment: seeded determinism and recovery bounds.

These are the assertions the control-chaos-smoke CI job relies on: the
fixed-seed run must be byte-identical across invocations, warm restart
must reconverge strictly faster than cold, and lookup availability must
be reported for both restart modes.
"""

import pytest

from repro.experiments import control_chaos


@pytest.fixture(scope="module")
def result():
    return control_chaos.run(fast=True)


def _measured(result, metric):
    for comparison in result.comparisons:
        if comparison.metric == metric:
            return comparison.measured
    raise AssertionError(f"metric {metric!r} missing")


class TestDeterminism:
    def test_two_runs_byte_identical(self, result):
        again = control_chaos.run(fast=True)
        assert again.report() == result.report()

    def test_fault_stream_digest_in_details(self, result):
        assert "digest" in result.details
        assert "seed 23" in result.details

    def test_different_seed_different_stream(self, result, monkeypatch):
        monkeypatch.setattr(control_chaos, "SEED", 24)
        other = control_chaos.run(fast=True)
        own_digest = result.details.split("digest ")[1].split()[0]
        other_digest = other.details.split("digest ")[1].split()[0]
        assert own_digest != other_digest

    def test_supervisor_events_reach_fault_stream(self, result):
        line = result.details.splitlines()[0]
        assert "service-crash=2" in line
        assert "service-restart=2" in line
        assert "ca-outage" in line


class TestRecoveryBounds:
    def test_warm_strictly_faster_than_cold(self, result):
        cold = float(_measured(result, "reconverge (cold restart)").split()[0])
        warm = float(_measured(result, "reconverge (warm restart)").split()[0])
        assert warm < cold
        # Detection + backoff bound both modes; recovery itself differs.
        assert warm >= control_chaos.CHECK_INTERVAL_S

    def test_availability_reported_for_both_modes(self, result):
        cold = float(_measured(result, "lookup availability (cold)").split("%")[0])
        warm = float(_measured(result, "lookup availability (warm)").split("%")[0])
        assert 0.0 < cold < 100.0   # the outage must be visible
        assert warm >= cold         # warm restores state, never worse
        assert warm <= 100.0

    def test_renewal_storm_ends_healthy(self, result):
        measured = _measured(result, "renewal storm")
        assert "healthy=yes" in measured
        assert measured.startswith("5 renewals for 5 ASes")
        amplification = float(
            measured.split("amplification ")[1].split("x")[0]
        )
        # Retries during the CA outage cost extra attempts, but the burst
        # must stay bounded by the renewal policy's attempt budget.
        assert 1.0 < amplification <= 30.0
