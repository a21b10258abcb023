import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import layers
import metrics
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# -- tracer -------------------------------------------------------------------


def test_self_time_is_duration_minus_direct_children():
    # root [0, 100) > a [10, 60) > b [20, 30); root > c [70, 90)
    spans = [(0, 0, 100, -1, 0), (1, 10, 60, 0, 0), (2, 20, 30, 1, 0), (1, 70, 90, 0, 0)]
    own = layers.self_times_ns(spans)
    assert own == [30, 40, 10, 20]
    assert sum(own) == 100  # self times of a tree add up to the root's duration


def test_summarize_groups_by_name_and_keeps_counts():
    tracer = layers.Tracer()
    tracer.names += ["x.a", "x.b"]
    tracer.spans += [(0, 0, 100, -1, 0), (1, 10, 60, 0, 0), (2, 20, 30, 1, 0), (1, 70, 90, 0, 0)]
    tracer.counts["x.hop"] = 7
    summary = layers.summarize(tracer)
    assert summary["x.a"] == {"calls": 2, "self_s": 60e-9, "total_s": 70e-9}
    assert summary["x.b"]["self_s"] == 10e-9
    assert summary[layers.ROOT_SPAN]["self_s"] == 30e-9
    assert summary["x.hop"] == {"calls": 7}


def test_wrappers_record_parent_and_operation():
    tracer = layers.Tracer()
    inner = tracer.span_wrapper(lambda: [1, 2, 3], "x.inner", sized=True)
    hop = tracer.count_wrapper(lambda: None, "x.hop")

    def op(item):
        hop()
        return inner() + inner()

    root = tracer.root(op)
    assert root("a") == [1, 2, 3, 1, 2, 3]
    root("b")
    names = [tracer.names[s[0]] for s in tracer.spans]
    assert names == [layers.ROOT_SPAN, "x.inner", "x.inner"] * 2
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, -1, 3, 3]  # parents
    assert [s[4] for s in tracer.spans] == [0, 0, 0, 1, 1, 1]    # operation ids
    assert tracer.counts == {"x.hop": 2} and tracer.sizes == {"x.inner": 12}
    assert all(own >= 0 for own in layers.self_times_ns(tracer.spans))


def test_wrap_then_unwrap_restores_the_original_objects():
    tracer = layers.Tracer()
    patches = layers.install(tracer)
    try:
        assert len({(id(owner), attr) for owner, attr, _ in patches}) == len(patches)
        assert len(patches) >= len(layers.WRAP_POINTS)
        for owner, attr, raw in patches:
            assert vars(owner)[attr] is not raw
    finally:
        layers.uninstall(patches)
    for owner, attr, raw in patches:
        assert vars(owner)[attr] is raw


def test_functions_imported_by_name_are_rebound_in_their_callers():
    import repro.scion.control.segments as segments
    import repro.scion.crypto.rsa as rsa

    original = rsa.sign
    with layers.tracing(layers.Tracer()):
        assert segments.sign is rsa.sign and rsa.sign is not original
    assert segments.sign is original and rsa.sign is original


# -- names and the contract ----------------------------------------------------


def test_every_name_is_well_formed_and_used_once():
    names = (
        [w["name"] for w in SPEC["workloads"]]
        + [m["name"] for m in SPEC["end_to_end"]]
        + [m["name"] for m in SPEC["per_layer"]]
    )
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert all(span.span.count(".") == 1 for span in layers.WRAP_POINTS)


def test_benchmark_json_matches_the_code_and_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"] and SPEC["command"] == ["python3", "bench/run.py"]
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (name, cls.why) for name, cls in WORKLOADS.items()
    ]
    assert [tuple(m.values()) for m in SPEC["end_to_end"]] == list(metrics.END_TO_END)
    assert [tuple(m.values()) for m in SPEC["per_layer"]] == list(metrics.PER_LAYER)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())
    runs = 4 + 22 * len(SPEC["workloads"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert runs * SPEC["run_seconds"] < 3420


# -- compare -------------------------------------------------------------------


@pytest.mark.parametrize("a, b, better, expected", [
    ([100, 101, 99], [100, 102, 98], "higher", "within"),
    ([100, 101, 99], [80, 81, 79], "higher", "worse"),
    ([100, 101, 99], [80, 81, 79], "lower", "better"),
    ([100, 140, 60], [95, 135, 55], "lower", "unresolved"),
    ([100, 140, 60], [30, 40, 20], "lower", "better"),   # every B beats every A
    ([100], [111], "lower", "worse"),
])
def test_verdict(a, b, better, expected):
    assert compare.verdict(a, b, better, 0.10) == expected


# -- end to end, smoke sized ----------------------------------------------------


def smoke(workload, trace, out):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--smoke", "--trace", str(trace), "--out", str(out)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    last = json.loads(done.stdout.strip().rsplit("\n", 1)[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    return last, json.loads(out.read_text())


@pytest.mark.parametrize("workload", ["packet_events", "churn_failover"])
def test_two_smoke_runs_agree_exactly(workload, tmp_path):
    (first, full_first), (second, full_second) = (
        smoke(workload, 1, tmp_path / f"{i}.json") for i in range(2)
    )
    assert list(first["metrics"]) == [name for name, _, _ in metrics.PER_LAYER]
    assert full_first["digest"] == full_second["digest"]
    assert first["attempted"] == second["attempted"]
    for name, unit, _ in metrics.PER_LAYER:
        if unit == "count":
            assert first["metrics"][name] == second["metrics"][name], name


def test_untraced_run_prints_exactly_the_end_to_end_metrics(tmp_path):
    last, _ = smoke("cold_lookup", 0, tmp_path / "run.json")
    assert list(last["metrics"]) == [name for name, _, _, _ in metrics.END_TO_END]
    assert all(entry["value"] > 0 for entry in last["metrics"].values())
