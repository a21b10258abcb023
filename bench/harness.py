"""One workload run in this process: set-up, measured slices, oracle, trace.

Load shape: closed loop, one client, one thread.  ``gc.collect()`` before
each slice, GC left on.  End-to-end numbers come from untraced slices only;
``trace=True`` instead runs slice 0 untraced and then one slice under the
tracer, which gives the per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import array
import gc
import json
import os
import resource
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import layers
import metrics
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
#: Set-ups per untraced run; ``setup_s`` is their median.  Two is what the
#: driver's time cap leaves room for: 114 runs in 3420 s, a set-up takes 4-6 s
#: on a calm box and up to 9 s on a disturbed one.
SETUP_REPEATS = 2
#: PKI seed of the world every workload runs on.
WORLD_SEED = 1


class SliceRecorder:
    """Runs the timed loop(s) of one slice and keeps what they produced."""

    def __init__(self, wrap_op: Optional[Callable[[Callable], Callable]] = None):
        self.latencies_ns = array.array("q")
        self.items: List = []
        self.outputs: List = []
        self.wall_ns = 0
        self._wrap_op = wrap_op

    def loop(self, op: Callable, items: Sequence) -> None:
        if self._wrap_op is not None:
            op = self._wrap_op(op)
        record_latency = self.latencies_ns.append
        record_output = self.outputs.append
        clock = time.perf_counter_ns
        begin = clock()
        for item in items:
            start = clock()
            output = op(item)
            record_latency(clock() - start)
            record_output(output)
        self.wall_ns += clock() - begin
        self.items.extend(items)


def expected_digests() -> Dict[str, object]:
    return json.loads((BENCH_DIR / "expect.json").read_text())


class Run:
    """Oracle state of one workload run: attempted, failed, digests."""

    def __init__(self, workload: Workload, smoke: bool):
        self.workload = workload
        self.smoke = smoke
        self.attempted = 0
        self.failed = 0
        self.digests: List[str] = []
        self.digest_mismatch = False
        self.problems: List[str] = []

    def run_slice(self, k: int, wrap_op=None) -> metrics.Slice:
        workload = self.workload
        rec = SliceRecorder(wrap_op)
        gc.collect()
        workload.run_slice(k, rec)
        failed, digest = workload.verify(k, rec.items, rec.outputs)
        self.attempted += len(rec.items)
        self.failed += failed
        if failed:
            self.problems.append(f"slice {k}: {failed} operation(s) gave a wrong output")
        if workload.same_every_slice and self.digests and digest != self.digests[0]:
            self.digest_mismatch = True
            self.problems.append(f"slice {k}: digest {digest} != {self.digests[0]}")
        self.digests.append(digest)
        return metrics.Slice(rec.latencies_ns, rec.wall_ns)

    def check_pinned(self) -> Optional[str]:
        """Compare slice 0's digest with the pinned one, where one applies."""
        pinned = expected_digests()
        workload = self.workload
        applies = not self.smoke and (
            workload.seed_independent_digest or workload.seed == pinned["seed"]
        )
        if not applies:
            return None
        expect = pinned["digests"].get(workload.name)
        if expect != self.digests[0]:
            self.digest_mismatch = True
            self.problems.append(
                f"digest {self.digests[0]} != pinned {expect} (bench/expect.json)"
            )
        return expect


def set_up(workload: Workload) -> float:
    """Build the world and the workload's state; returns the seconds it took."""
    from repro.sciera.build import build_sciera

    start = time.perf_counter()
    workload.prepare(build_sciera(seed=WORLD_SEED))
    return time.perf_counter() - start


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> Dict[str, object]:
    load_1m = os.getloadavg()[0]
    workload = WORKLOADS[name](seed, smoke)
    run = Run(workload, smoke)

    setup_times = []
    for _ in range(1 if trace or smoke else SETUP_REPEATS):
        workload.world = None  # drop the previous world before building the next
        gc.collect()
        setup_times.append(set_up(workload))

    if trace:
        values, diagnostics = _traced(run)
    else:
        values, diagnostics = _untraced(run, seconds, setup_times)

    expect = run.check_pinned()
    units = metrics.units()
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "load_1m_at_start": load_1m,
        "correct": not run.problems,
        "attempted": run.attempted,
        # A digest mismatch means no output of the run can be trusted.
        "failed": run.attempted if run.digest_mismatch else run.failed,
        "problems": run.problems,
        "digest": run.digests[0],
        "expect_digest": expect,
        "metrics": {
            key: {"value": value, "unit": units[key]} for key, value in values.items()
        },
        "diagnostics": diagnostics,
    }


def _untraced(run: Run, seconds: float, setup_times: Sequence[float]):
    """Whole slices until `seconds` of loop time are measured: end-to-end metrics."""
    workload = run.workload
    slices: List[metrics.Slice] = []
    measured_ns = 0
    while True:
        slices.append(run.run_slice(len(slices)))
        measured_ns += slices[-1].wall_ns
        done = len(slices)
        if workload.max_slices is not None and done >= workload.max_slices:
            break
        if run.smoke or (done >= workload.min_slices and measured_ns >= seconds * 1e9):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics.end_to_end(slices, setup_times, peak_rss_mb), {
        "slices": len(slices),
        "ops_per_slice": slices[0].ops,
        "slice_ops_per_s": [round(s.ops_per_s, 3) for s in slices],
        "measured_s": measured_ns / 1e9,
        "client.op_p99_us": metrics.op_percentile_us(slices, 0.99),
        "client.overhead_share": statistics.fmean(s.overhead_share for s in slices),
        "setup_times_s": list(setup_times),
    }


def _traced(run: Run):
    """Slice 0 untraced, then one slice under the tracer: per-layer metrics."""
    workload = run.workload
    plain = run.run_slice(0)
    tracer = layers.Tracer()
    before = workload.counters()
    with layers.tracing(tracer):
        traced = run.run_slice(workload.traced_slice, wrap_op=tracer.root)
    after = workload.counters()
    delta = {key: after[key] - before.get(key, 0) for key in after}
    summary = layers.summarize(tracer)
    values = metrics.per_layer(
        summary, tracer.sizes, delta, plain, traced, workload.scale_exponent()
    )
    trace_path = write_trace(workload, tracer)
    return values, {
        "traced_ops": traced.ops,
        "traced_wall_s": traced.wall_ns / 1e9,
        "spans": len(tracer.spans),
        "trace_file": str(trace_path.relative_to(BENCH_DIR.parent)),
        "layer_self_s": {
            name: row["self_s"] for name, row in sorted(summary.items())
            if "self_s" in row
        },
    }


def write_trace(workload: Workload, tracer: layers.Tracer) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload.name}.trace.json"
    origin = tracer.spans[0][1] if tracer.spans else 0
    path.write_text(json.dumps({
        "workload": workload.name,
        "seed": workload.seed,
        "span_fields": ["name", "start_ns", "end_ns", "parent", "op"],
        "names": tracer.names,
        "spans": [
            [index, start - origin, end - origin, parent, op]
            for index, start, end, parent, op in tracer.spans
        ],
        "counts": tracer.counts,
        "sizes": tracer.sizes,
    }))
    return path
