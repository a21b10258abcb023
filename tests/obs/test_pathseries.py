"""Tests for the per-path time-series exporter (ScionPathML shape):
probe/churn/revocation rows, deterministic export, and the opt-in wiring
through pan and the daemon."""

import json

from repro.endhost.daemon import Daemon
from repro.endhost.pan import HostRegistry, PanContext, ScionHost
from repro.obs import PathSeriesRecorder, Telemetry
from repro.scion.addr import HostAddr, IA
from repro.scion.network import ScionNetwork
from repro.scion.revocation import Revocation
from repro.scion.scmp import interface_down
from tests.conftest import make_diamond_topology

A = IA.parse("71-100")
B = IA.parse("71-200")


class TestRecorder:
    def test_probe_rows(self):
        rec = PathSeriesRecorder()
        rec.record_probe(1.0, "71-100", "71-200", "fp1", 0.021, True)
        rec.record_probe(2.0, "71-100", "71-200", "fp1", 0.0, False,
                         failure="link-down")
        probes = rec.series_for("71-100", "71-200")
        assert len(probes) == 2
        assert probes[0].rtt_ms == 21.0
        assert probes[1].ok is False
        assert probes[1].detail == "link-down"

    def test_selection_diffs_become_churn(self):
        rec = PathSeriesRecorder()
        rec.record_selection(1.0, "a", "b", ["p1", "p2"])
        assert rec.samples == []            # first lookup: no baseline
        rec.record_selection(2.0, "a", "b", ["p2", "p3"])
        events = [(s.event, s.fingerprint) for s in rec.samples]
        assert events == [("path-appeared", "p3"),
                          ("path-disappeared", "p1")]
        assert rec.churn_counts() == {"a->b": 2}

    def test_selection_tracked_per_pair(self):
        rec = PathSeriesRecorder()
        rec.record_selection(1.0, "a", "b", ["p1"])
        rec.record_selection(1.0, "a", "c", ["p1"])
        rec.record_selection(2.0, "a", "b", ["p1"])    # unchanged
        rec.record_selection(2.0, "a", "c", [])        # all gone
        assert rec.churn_counts() == {"a->c": 1}

    def test_revocation_rows(self):
        rec = PathSeriesRecorder()
        rec.record_revocation(3.0, "71-1#9", src="71-100", detail="accepted")
        (sample,) = rec.samples
        assert sample.event == "revocation"
        assert sample.fingerprint == "71-1#9"
        assert sample.ok is False

    def test_bounded_keeps_head_and_counts_drops(self):
        rec = PathSeriesRecorder(max_samples=3)
        for i in range(5):
            rec.record_probe(float(i), "a", "b", f"fp{i}", 0.01, True)
        assert len(rec.samples) == 3
        assert [s.fingerprint for s in rec.samples] == ["fp0", "fp1", "fp2"]
        assert rec.dropped == 2

    def test_csv_export_deterministic(self):
        def build():
            rec = PathSeriesRecorder()
            rec.record_probe(1.0, "a", "b", "fp", 0.0123456, True)
            rec.record_selection(2.0, "a", "b", ["fp"])
            rec.record_selection(3.0, "a", "b", ["fp2"])
            rec.record_revocation(4.0, "x#1", src="a")
            return rec.to_csv()

        first, second = build(), build()
        assert first == second
        header, *rows = first.strip().split("\n")
        assert header == "time_s,src,dst,fingerprint,event,rtt_ms,ok,detail"
        assert rows[0] == "1.000000,a,b,fp,probe,12.346,1,"

    def test_json_export_schema(self):
        rec = PathSeriesRecorder()
        rec.record_probe(1.0, "a", "b", "fp", 0.01, True)
        doc = json.loads(rec.to_json())
        assert doc["schema"] == 1
        assert doc["dropped"] == 0
        assert doc["samples"][0]["event"] == "probe"


class TestEndhostWiring:
    def _world(self):
        tel = Telemetry()
        recorder = PathSeriesRecorder().attach(tel)
        net = ScionNetwork(make_diamond_topology(), seed=7)
        registry = HostRegistry()
        daemon = Daemon(net, A, telemetry=tel)
        host_a = ScionHost(net, A, "10.0.1.10", registry, daemon=daemon)
        host_b = ScionHost(net, B, "10.0.2.20", registry,
                           daemon=Daemon(net, B))
        return tel, recorder, net, host_a, host_b

    def test_sends_record_probe_samples(self):
        tel, recorder, net, host_a, host_b = self._world()
        ctx_a, ctx_b = PanContext(host_a), PanContext(host_b)
        ctx_b.open_socket(8080).on_message(lambda p, s, pa: b"ok")
        client = ctx_a.open_socket()
        result = client.send_to(HostAddr(B, host_b.ip, 8080), b"x")
        assert result.success
        probes = recorder.series_for(str(A), str(B))
        assert probes
        assert probes[0].ok is True
        assert probes[0].rtt_ms > 0
        assert probes[0].fingerprint == result.path.fingerprint

    def test_lookup_churn_after_interface_down(self):
        tel, recorder, net, host_a, _ = self._world()
        daemon = host_a.daemon
        paths = daemon.lookup(B, now=0.0)
        assert recorder.samples == []       # first selection: baseline
        victim = paths[0].interfaces[0]
        origin, ifid = victim.split("#")
        daemon.handle_scmp(interface_down(origin, int(ifid)), now=1.0)
        daemon.lookup(B, now=1.0)
        churn = [s for s in recorder.samples
                 if s.event == "path-disappeared"]
        assert churn
        assert all(s.src == str(A) and s.dst == str(B) for s in churn)

    def test_revocation_ingest_recorded(self):
        tel, recorder, net, host_a, _ = self._world()
        daemon = host_a.daemon
        daemon.lookup(B, now=0.0)
        origin = IA.parse("71-2")
        revocation = Revocation(
            ia=origin, ifid=1, issued_at=1.0, ttl_s=30.0
        ).signed_by(net.signing_keys[origin])
        daemon.handle_revocation(revocation, now=1.0)
        rows = [s for s in recorder.samples if s.event == "revocation"]
        assert len(rows) == 1
        assert rows[0].fingerprint == revocation.key
        assert rows[0].src == str(A)

    def test_no_recorder_means_no_samples_and_no_errors(self):
        net = ScionNetwork(make_diamond_topology(), seed=7)
        registry = HostRegistry()
        daemon = Daemon(net, A, telemetry=Telemetry())
        host_a = ScionHost(net, A, "10.0.1.10", registry, daemon=daemon)
        host_b = ScionHost(net, B, "10.0.2.20", registry,
                           daemon=Daemon(net, B))
        ctx_a, ctx_b = PanContext(host_a), PanContext(host_b)
        ctx_b.open_socket(8080).on_message(lambda p, s, pa: b"ok")
        result = ctx_a.open_socket().send_to(
            HostAddr(B, host_b.ip, 8080), b"x"
        )
        assert result.success
