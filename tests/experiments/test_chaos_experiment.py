"""The chaos experiment: seeded determinism and the CI resilience bounds.

These are the assertions the chaos-smoke CI job relies on: the fixed-seed
run must be byte-identical across invocations, and the resilience numbers
must stay inside tight bounds (bootstrap always recovers via fallback,
recovery after a cut stays within the retry cadence).
"""

import pytest

from repro.experiments import chaos_resilience


@pytest.fixture(scope="module")
def result():
    return chaos_resilience.run(fast=True)


class TestDeterminism:
    def test_two_runs_byte_identical(self, result):
        again = chaos_resilience.run(fast=True)
        assert again.report() == result.report()

    def test_fault_stream_digest_in_details(self, result):
        assert "digest" in result.details
        assert "seed 11" in result.details

    def test_different_seed_different_stream(self, result, monkeypatch):
        monkeypatch.setattr(chaos_resilience, "SEED", 12)
        other = chaos_resilience.run(fast=True)
        own_digest = result.details.split("digest ")[1].split()[0]
        other_digest = other.details.split("digest ")[1].split()[0]
        assert own_digest != other_digest


def _measured(result, metric):
    for comparison in result.comparisons:
        if comparison.metric == metric:
            return comparison.measured
    raise AssertionError(f"metric {metric!r} missing")


class TestResilienceBounds:
    def test_bootstrap_survives_hard_outage(self, result):
        measured = _measured(result, "bootstrap w/ server outage")
        assert measured.startswith("100% success")
        amplification = float(measured.split("amplification ")[1].rstrip("x"))
        # Fallback costs exactly one wasted attempt on the dead primary.
        assert amplification <= 3.0

    def test_bootstrap_survives_heavy_refusals(self, result):
        measured = _measured(result, "bootstrap @ 50% refusals")
        success = float(measured.split("%")[0])
        assert success >= 95.0

    def test_recovery_bounded_by_retry_cadence(self, result):
        p50 = float(_measured(result, "p50 recovery after cut").split()[0])
        p99 = float(_measured(result, "p99 recovery after cut").split()[0])
        assert p50 <= 100.0   # ms; §4.7 failover is instant-to-one-retry
        assert p99 <= 500.0   # ms; a few lost 50ms retry windows at most
        assert p50 <= p99

    def test_sweep_amplification_monotone(self, result):
        line = result.details.splitlines()[0]
        amps = [float(part.split("amp=")[1].rstrip("x"))
                for part in line.split()[2:]]
        assert amps == sorted(amps)  # more refusals, more retries
        assert amps[0] == pytest.approx(1.0)  # no faults, no amplification
