"""End-to-end telemetry acceptance: the chaos scenario, fully observed.

One seeded chaos run (``chaos_telemetry_snapshot``) must export Prometheus text
with labelled router drop counters and lookup-latency quantiles, at least
one multi-layer trace with linked spans crossing the SCMP error and
revocation-ingest layers, and a health report naming the down link, the
down interface, and the quarantined segment.  Two runs with the same seed
must export byte-identical telemetry.
"""

import pytest

from repro.obs import validate_trace
from tests.telemetry_snapshots import chaos_telemetry_snapshot

SEED = 11


@pytest.fixture(scope="module")
def snapshot():
    return chaos_telemetry_snapshot(seed=SEED)


class TestTraceAcceptance:
    def test_failover_trace_crosses_layers(self, snapshot):
        spans = snapshot["trace_spans"]
        names = [s.name for s in spans]
        # The path lookup under link failure reaches the SCMP error path
        # and feeds the revocation back into the control plane.
        assert "scmp.error" in names
        assert "revocation.ingest" in names
        assert "daemon.lookup" in names
        assert len(spans) >= 3
        # All spans belong to one trace, linked into a single tree.
        assert len({s.trace_id for s in spans}) == 1
        assert sum(1 for s in spans if s.parent_id is None) == 1

    def test_trace_is_structurally_valid(self, snapshot):
        assert snapshot["trace_problems"] == []
        assert validate_trace(snapshot["trace_spans"]) == []

    def test_error_status_on_failed_probe(self, snapshot):
        statuses = {
            s.name: s.status for s in snapshot["trace_spans"]
        }
        assert statuses["scmp.error"] == "error"


class TestPrometheusAcceptance:
    def test_labelled_router_drop_counters(self, snapshot):
        text = snapshot["prometheus"]
        assert "# TYPE router_drops_total counter" in text
        drop_lines = [
            line for line in text.splitlines()
            if line.startswith("router_drops_total{")
        ]
        assert drop_lines
        assert all('as="' in line and 'reason="' in line
                   for line in drop_lines)

    def test_lookup_latency_quantiles(self, snapshot):
        text = snapshot["prometheus"]
        assert "# TYPE pathserver_lookup_latency_seconds summary" in text
        quantile_lines = [
            line for line in text.splitlines()
            if line.startswith("pathserver_lookup_latency_seconds{")
            and 'quantile="' in line
        ]
        assert quantile_lines
        # At least one AS observed real (non-zero) lookup latency.
        assert any(float(line.rsplit(" ", 1)[1]) > 0.0
                   for line in quantile_lines)


class TestHealthAcceptance:
    def test_report_names_the_failures(self, snapshot):
        health = snapshot["health"]
        assert not health.healthy
        assert "a-c2" in health.down_links
        assert any(health.down_interfaces.values())
        assert health.quarantined_segments >= 1
        assert health.active_revocations

    def test_rendered_report_reads_like_a_status_page(self, snapshot):
        text = snapshot["health_text"]
        assert "a-c2" in text
        assert "quarantined" in text


class TestTimelineAcceptance:
    def test_unified_timeline_spans_subsystems(self, snapshot):
        events = snapshot["events"]
        sources = {e.source for e in events}
        # Chaos faults, the revocation, supervisor lifecycle, and monitor
        # alerts land in one ordered log.
        assert {"chaos", "supervisor", "monitor", "revocation"} <= sources
        times = [e.time_s for e in events]
        assert times == sorted(times)

    def test_monitor_loss_alert_is_critical(self, snapshot):
        losses = [e for e in snapshot["events"]
                  if e.kind == "connectivity-lost"]
        assert losses
        assert all(e.severity == "critical" for e in losses)


class TestDeterminism:
    def test_same_seed_exports_are_byte_identical(self, snapshot):
        again = chaos_telemetry_snapshot(seed=SEED)
        assert again["prometheus"] == snapshot["prometheus"]
        assert again["metrics_json"] == snapshot["metrics_json"]
        assert again["event_digest"] == snapshot["event_digest"]
        assert again["health_text"] == snapshot["health_text"]
