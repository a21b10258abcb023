"""The profiled chaos slice: artifacts on disk and acceptance rows."""

import json

import pytest

from repro.experiments.obs_slice import run, run_slice
from repro.obs import flight_digest


@pytest.fixture(scope="module")
def slice_data(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("OBS_SLICE_DIR", str(tmp_path_factory.mktemp("obs-slice")))
        return run_slice()


class TestArtifacts:
    def test_flight_black_box_written_and_digest_valid(self, slice_data):
        artifact = json.loads(slice_data["paths"]["flight"].read_text())
        assert artifact["reason"] == "invariant-violation"
        assert flight_digest(artifact) == artifact["digest"]
        assert artifact["digest"] \
            == slice_data["instrumented"].flight_artifact["digest"]

    def test_folded_stacks_renderable(self, slice_data):
        for key in ("folded_calls", "folded_sim"):
            lines = slice_data["paths"][key].read_text().strip().split("\n")
            assert lines
            for line in lines:
                stack, count = line.rsplit(" ", 1)
                assert int(count) > 0
                assert ";" in stack

    def test_profile_table_names_dataplane_walk(self, slice_data):
        table = slice_data["paths"]["table"].read_text()
        assert "ScionDataplane.walk" in table

    def test_slo_alert_stream_written(self, slice_data):
        text = slice_data["paths"]["alerts"].read_text()
        assert "slo-burn-rate" in text
        assert slice_data["alert_count"] >= 1

    def test_instrumentation_is_pure_reader(self, slice_data):
        instrumented = slice_data["instrumented"]
        plain = slice_data["plain"]
        assert instrumented.fault_digest == plain.fault_digest
        assert instrumented.violated_names() == plain.violated_names()


class TestReport:
    def test_report_rows_all_green(self):
        result = run(fast=True)
        assert result.exp_id == "obs_slice"
        measured = {c.metric: c.measured for c in result.comparisons}
        assert measured["flight recorder dumps"].startswith("yes")
        assert measured["profiler sees the dataplane"].startswith("yes")
        assert measured["observability is a pure reader"].startswith("yes")
        assert not measured["SLO burn-rate alerts"].startswith("0 ")
