"""Profiled chaos slice: the second-tier observability stack, end to end.

One crucible schedule with the test-only ``shed-critical`` bug runs twice:

* **instrumented** — with a :class:`~repro.obs.FlightRecorder`, a
  :class:`~repro.obs.Profiler` on the simulator kernel and dataplane
  walk, and the default crucible SLOs feeding the burn-rate engine;
* **plain** — the exact same schedule with none of that attached.

The two runs must produce the same violations and the same byte-identical
``fault_digest`` — the proof that the whole observability tier is a pure
reader that never perturbs the simulation it watches.  The instrumented
run additionally yields the artifacts an operator would pull after a real
incident, written to ``out_dir`` (default ``$OBS_SLICE_DIR`` or a
``obs_slice`` folder under the system temp dir):

* ``flight.json`` — the crash flight recorder's black box (ring-buffered
  events, metric deltas, spans, invariant triggers, seeded digest);
* ``profile.folded`` / ``profile_sim_us.folded`` — folded stacks for
  ``flamegraph.pl`` / speedscope, weighted by calls and by sim time;
* ``profile.txt`` — the deterministic top-N hot-path table;
* ``slo_alerts.txt`` — the burn-rate alert stream.

CI runs this slice in the ``obs-smoke`` job and uploads the directory, so
every pipeline run leaves a browsable black box behind.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Dict

from repro.experiments.registry import Comparison, ExperimentResult
from repro.harness.crucible import (
    default_crucible_slos,
    generate_schedule,
    run_schedule,
)
from repro.obs import FlightRecorder, Profiler, save_flight

#: Seed for the slice schedule; mirrors the crucible shrink demo's shape
#: (a load surge is what the shed-critical bug needs to misbehave).
SLICE_SEED = 11
TOP_N = 12


def default_out_dir() -> Path:
    env = os.environ.get("OBS_SLICE_DIR")
    if env:
        return Path(env)
    return Path(tempfile.gettempdir()) / "obs_slice"


def run_slice() -> Dict:
    """Run the instrumented + plain arms and write the artifacts to
    :func:`default_out_dir`."""
    schedule = generate_schedule(
        seed=SLICE_SEED, topology="mesh5", n_faults=6,
        ensure_kind="load-surge",
    )
    flight = FlightRecorder(capacity=128)
    profiler = Profiler(sample_every=16, seed=SLICE_SEED)
    instrumented = run_schedule(
        schedule, bug="shed-critical", flight=flight, profiler=profiler,
        slos=default_crucible_slos(),
    )
    plain = run_schedule(schedule, bug="shed-critical")

    directory = default_out_dir()
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    if instrumented.flight_artifact is not None:
        paths["flight"] = directory / "flight.json"
        save_flight(paths["flight"], instrumented.flight_artifact)
    paths["folded_calls"] = directory / "profile.folded"
    paths["folded_calls"].write_text(
        "\n".join(profiler.folded(weight="calls")) + "\n"
    )
    paths["folded_sim"] = directory / "profile_sim_us.folded"
    paths["folded_sim"].write_text(
        "\n".join(profiler.folded(weight="sim_us")) + "\n"
    )
    paths["table"] = directory / "profile.txt"
    paths["table"].write_text(
        profiler.render_table(top_n=TOP_N, include_wall=False) + "\n"
    )
    slo_events = flight.telemetry.events.timeline(source="slo")
    alert_lines = [
        f"{event.time_s:7.2f}s [{event.severity}] {event.kind} "
        f"{event.target}: {event.detail}"
        for event in slo_events
    ]
    paths["alerts"] = directory / "slo_alerts.txt"
    paths["alerts"].write_text(
        "\n".join(alert_lines) + "\n" if alert_lines else ""
    )

    return {
        "schedule": schedule,
        "instrumented": instrumented,
        "plain": plain,
        "profiler": profiler,
        "flight": flight,
        "alert_count": sum(
            1 for event in slo_events if event.kind == "slo-burn-rate"
        ),
        "slo_events": len(slo_events),
        "paths": paths,
    }


def run(fast: bool = True) -> ExperimentResult:
    data = run_slice()
    instrumented = data["instrumented"]
    plain = data["plain"]
    profiler = data["profiler"]

    pure_reader = (
        instrumented.fault_digest == plain.fault_digest
        and instrumented.violated_names() == plain.violated_names()
    )
    hot = profiler.rows()[:TOP_N]
    walk_hot = any("ScionDataplane.walk" in path
                   for path in profiler.hot_paths(TOP_N))
    artifact = instrumented.flight_artifact
    flight_digest = artifact["digest"] if artifact else "no dump"

    comparisons = [
        Comparison(
            "flight recorder dumps",
            "black box written on invariant violation",
            f"{'yes' if artifact else 'NO'}, digest {flight_digest}",
            note=f"{len(artifact['events'])} events, "
                 f"{len(artifact['triggers'])} triggers" if artifact else "",
        ),
        Comparison(
            "profiler sees the dataplane",
            "walk among the hot paths",
            f"{'yes' if walk_hot else 'NO'} "
            f"(top {len(hot)} paths, "
            f"{sum(calls for _, calls, _, _ in hot)} calls)",
        ),
        Comparison(
            "SLO burn-rate alerts",
            ">= 1 page during the bug run",
            f"{data['alert_count']} alerts "
            f"({data['slo_events']} slo events total)",
        ),
        Comparison(
            "observability is a pure reader",
            "fault stream identical with obs on/off",
            f"{'yes' if pure_reader else 'NO'}: "
            f"{instrumented.fault_digest} vs {plain.fault_digest}",
        ),
    ]
    artifact_lines = "\n".join(
        f"    {name}: {path}" for name, path in sorted(data["paths"].items())
    )
    details = f"  artifacts:\n{artifact_lines}"
    return ExperimentResult(
        exp_id="obs_slice",
        title="Profiled chaos slice (flight recorder + profiler + SLOs)",
        comparisons=comparisons,
        details=details,
    )
