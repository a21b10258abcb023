"""The two instrumentation-overhead bounds, as same-process ratios.

Both compare two modes of one workload inside one process, so neither
needs a stored baseline or a second machine to agree with — which is also
why they are not ``bench/`` workloads yet (ROADMAP item 5(b), the price
list, is their future home):

* the sim-time profiler hooks every timer fire in the simulation kernel
  (``Simulator.run`` dispatches through ``Profiler.fire_timer`` when one is
  attached) and must cost the kernel less than 10 %;
* the instrumented hot paths guard every span/counter behind one
  ``tel.enabled`` check against a shared no-op singleton, so a network
  built *without* telemetry must not be meaningfully slower than the
  fully-instrumented one it skips.

Modes are timed in interleaved best-of-N windows: scheduler noise on a
shared runner only ever slows a window down, so each minimum approaches
the uncontended cost, and interleaving means a load ramp mid-test hits
both modes alike instead of biasing whichever ran second.

Run with ``python -m pytest benchmarks -q`` (not part of tier-1).
"""

import time

from repro.experiments.common import diamond_topology
from repro.netsim.simulator import Simulator
from repro.obs import NOOP_TELEMETRY, Profiler, Telemetry
from repro.scion.addr import IA
from repro.scion.network import ScionNetwork

#: Event chains x chain depth = total events per kernel window.
CHAINS = 40
DEPTH = 50
EVENTS_PER_WINDOW = CHAINS * DEPTH

#: Arithmetic iterations per callback — sized so one callback costs a few
#: microseconds, the cost of a cheap real handler (probe bookkeeping,
#: guard admission), not an empty ``pass``.
WORK_ITERS = 60

#: Dataplane walks per telemetry window.
WALKS = 300


def _best_of(windows, *modes):
    """Fastest wall-clock of each mode over interleaved windows."""
    best = [float("inf")] * len(modes)
    for mode in modes:  # warm-up
        mode()
    for _ in range(windows):
        for index, mode in enumerate(modes):
            start = time.perf_counter()
            mode()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


class _ChainService:
    """A retry/probe-shaped service: do some work, reschedule yourself."""

    __slots__ = ("sim", "acc", "fired")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.acc = 0
        self.fired = 0

    def tick(self, remaining: int) -> None:
        acc = self.acc
        for k in range(WORK_ITERS):
            acc = (acc * 1103515245 + k) & 0xFFFFFFFF
        self.acc = acc
        self.fired += 1
        if remaining:
            self.sim.schedule(1e-4, self.tick, remaining - 1)


def _run_kernel(profiler=None) -> int:
    sim = Simulator()
    sim.profiler = profiler
    services = [_ChainService(sim) for _ in range(CHAINS)]
    for index, service in enumerate(services):
        sim.schedule(index * 1e-6, service.tick, DEPTH - 1)
    sim.run_until_idle()
    return sum(service.fired for service in services)


def test_profiler_overhead_under_10_percent():
    def plain():
        assert _run_kernel() == EVENTS_PER_WINDOW

    def profiled():
        profiler = Profiler(sample_every=32, seed=0)
        assert _run_kernel(profiler) == EVENTS_PER_WINDOW

    plain_s, profiled_s = _best_of(9, plain, profiled)
    overhead = profiled_s / plain_s - 1.0
    assert overhead < 0.10, (
        f"profiled kernel {overhead:+.1%} vs bare "
        f"({EVENTS_PER_WINDOW / profiled_s:.0f} vs "
        f"{EVENTS_PER_WINDOW / plain_s:.0f} events/s)"
    )


def test_profiled_run_attributes_every_event():
    """The profiled run's entry counts cover the whole workload."""
    profiler = Profiler(sample_every=32, seed=0)
    assert _run_kernel(profiler) == EVENTS_PER_WINDOW
    total_calls = sum(calls for _, calls, _, _ in profiler.rows())
    assert total_calls == EVENTS_PER_WINDOW
    assert any("_ChainService.tick" in path for path in profiler.hot_paths(3))


def _walks(network):
    """The instrumented hot loop: repeated walks over a combined path."""
    src, dst = IA.parse("71-100"), IA.parse("71-200")
    path = network.paths(src, dst, refresh=True)[0].path
    dataplane = network.dataplane

    def mode():
        delivered = sum(
            dataplane.walk(path, now=float(i)).success for i in range(WALKS)
        )
        assert delivered == WALKS

    return mode


def test_disabled_telemetry_not_slower_than_enabled():
    """The tolerance (25 %) absorbs scheduler noise on shared CI runners;
    the guard it protects is one attribute load + branch per
    instrumentation site, which sits far below it."""
    disabled = ScionNetwork(diamond_topology(), seed=7)
    enabled = ScionNetwork(diamond_topology(), seed=7, telemetry=Telemetry())
    assert disabled.telemetry is NOOP_TELEMETRY
    disabled_s, enabled_s = _best_of(5, _walks(disabled), _walks(enabled))
    assert disabled_s <= enabled_s * 1.25, (
        f"telemetry off {disabled_s * 1e3:.2f} ms vs on "
        f"{enabled_s * 1e3:.2f} ms per {WALKS} walks"
    )
