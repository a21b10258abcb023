"""Continuous profiling for the simulation: where does time go?

Two clocks, two very different contracts:

* **sim time** — deterministic.  Every kernel event is attributed the
  simulated-time gap it closes (the classic "time belongs to whoever runs
  next" rule), and explicitly profiled sections (the dataplane walk)
  contribute their modeled duration.  Together with exact call counts,
  this side of the profile is byte-identical across two same-seed runs.
* **wall time** — measured with ``time.perf_counter`` on a *seeded
  sample* of calls (every ``sample_every``-th, with a seed-derived phase
  offset), so the host-clock overhead stays bounded at scale and the
  estimate converges without timing every event.  Wall numbers are
  machine-dependent and are therefore excluded from the deterministic
  renderings used in digests and tests.

Attribution keys are *frames* — short tuples like
``("sim", "core.supervisor", "Supervisor._health_check")`` — derived once
per callback code object and memoized, so the per-event cost in the
kernel hot loop is one ``getattr`` plus two dict hits.  Frames render
directly as folded stacks (``a;b;c 123``), the input format of Brendan
Gregg's ``flamegraph.pl`` and of speedscope, so a profile turns into a
flamegraph with no further tooling.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

Frames = Tuple[str, ...]

#: Default sampling stride for wall-clock timing: time one call in N.
DEFAULT_SAMPLE_EVERY = 32


class _Entry:
    """Accumulated attribution for one frame tuple."""

    __slots__ = ("calls", "sim_s", "wall_s", "sampled")

    def __init__(self) -> None:
        self.calls = 0
        self.sim_s = 0.0
        self.wall_s = 0.0
        self.sampled = 0

    def wall_estimate_s(self) -> float:
        """Total wall time extrapolated from the sampled calls."""
        if not self.sampled:
            return 0.0
        return self.wall_s * (self.calls / self.sampled)


class Profiler:
    """Deterministic sim-time + sampled wall-clock profiler.

    Opt-in everywhere: the simulator kernel checks a ``profiler``
    attribute (None by default) and the dataplane walk checks
    ``telemetry.profiler`` — with no profiler attached, the hot paths pay
    one attribute load and a branch, exactly like disabled telemetry.
    """

    def __init__(
        self,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
        seed: int = 0,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.sample_every = max(1, int(sample_every))
        # Seed-derived phase offset: two profilers with different seeds
        # sample different calls, but one seed always samples the same
        # ones — the sampling pattern itself is deterministic.
        self._countdown = (seed % self.sample_every) + 1
        self._clock = clock
        self._entries: Dict[Frames, _Entry] = {}
        #: code object (or callable) -> its entry (hot cache).
        self._entry_memo: Dict[object, _Entry] = {}
        #: sim-time high-water mark for kernel gap attribution.
        self._last_sim: Optional[float] = None

    # -- attribution (hot paths) -------------------------------------------------

    def fire_timer(self, timer, when: float) -> None:
        """Fire one kernel event with attribution (called by ``Simulator.run``).

        Counts and sim-time gaps are recorded for every event; wall time
        only for the seeded sample.  Exceptions propagate untimed — the
        profile is best-effort diagnostics, never control flow.
        """
        fn = timer._fn
        func = getattr(fn, "__func__", fn)
        key = getattr(func, "__code__", func)
        entry = self._entry_memo.get(key)
        if entry is None:
            entry = self._entry_for_key(key, func)
        entry.calls += 1
        last = self._last_sim
        if last is not None and when > last:
            entry.sim_s += when - last
        self._last_sim = when
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = self.sample_every
            start = self._clock()
            timer._fire()
            entry.wall_s += self._clock() - start
            entry.sampled += 1
        else:
            timer._fire()

    def start(self) -> Optional[float]:
        """Begin an explicitly profiled section; returns a wall-clock
        token when this call falls on the seeded sample, else None."""
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = self.sample_every
            return self._clock()
        return None

    def finish(self, token: Optional[float], frames: Frames,
               sim_s: float = 0.0) -> None:
        """End an explicitly profiled section under ``frames``."""
        entries = self._entries
        entry = entries.get(frames)
        if entry is None:
            entry = entries[frames] = _Entry()
        entry.calls += 1
        entry.sim_s += sim_s
        if token is not None:
            entry.wall_s += self._clock() - token
            entry.sampled += 1

    def _entry_for_key(self, key: object, func) -> _Entry:
        module = getattr(func, "__module__", None) or "?"
        if module.startswith("repro."):
            module = module[len("repro."):]
        name = getattr(func, "__qualname__", None) \
            or getattr(func, "__name__", repr(func))
        frames = ("sim", module, name)
        entries = self._entries
        entry = entries.get(frames)
        if entry is None:
            entry = entries[frames] = _Entry()
        self._entry_memo[key] = entry
        return entry

    # -- reports -----------------------------------------------------------------

    def rows(self) -> List[Tuple[Frames, int, float, float]]:
        """``(frames, calls, sim_s, wall_estimate_s)`` rows, most calls
        first; ties break on the frame tuple so the order is always total.
        """
        ordered = sorted(
            self._entries.items(), key=lambda kv: (-kv[1].calls, kv[0])
        )
        return [
            (frames, e.calls, e.sim_s, e.wall_estimate_s())
            for frames, e in ordered
        ]

    def hot_paths(self, n: int = 10) -> List[str]:
        """The top-``n`` frame keys, rendered ``a;b;c``, hottest first."""
        return [";".join(f) for f, _, _, _ in self.rows()[:n]]

    def render_table(self, top_n: int = 10, include_wall: bool = True) -> str:
        """The top-N hot-path table as text.

        With ``include_wall=False`` the table contains only deterministic
        columns (calls, sim seconds) and is byte-identical across two
        same-seed runs; wall-clock estimates are host-dependent and only
        belong in interactive output.
        """
        rows = self.rows()[:top_n]
        width = max([len(";".join(f)) for f, _, _, _ in rows] + [10])
        header = f"{'hot path':<{width}}  {'calls':>10}  {'sim_s':>12}"
        if include_wall:
            header += f"  {'~wall_s':>10}"
        # "all epochs" stays in the title: obs_slice's profile.txt is pinned.
        lines = [f"== profile (all epochs; top {len(rows)} by calls) ==",
                 header]
        for frames, calls, sim_s, wall_s in rows:
            line = f"{';'.join(frames):<{width}}  {calls:>10}  {sim_s:>12.6f}"
            if include_wall:
                line += f"  {wall_s:>10.6f}"
            lines.append(line)
        return "\n".join(lines) + "\n"

    def folded(self, weight: str = "calls") -> List[str]:
        """Folded-stack lines (``frame;frame;frame count``), sorted.

        ``weight`` selects the sample count: ``"calls"`` (exact,
        deterministic) or ``"sim_us"`` (sim time in integer microseconds,
        also deterministic).  Feed the joined lines to ``flamegraph.pl``
        or paste into speedscope to render a flamegraph.
        """
        lines = []
        for frames, entry in sorted(self._entries.items()):
            if weight == "sim_us":
                count = int(round(entry.sim_s * 1e6))
            else:
                count = entry.calls
            if count > 0:
                lines.append(f"{';'.join(frames)} {count}")
        return lines
