"""Tests for the continuous profiler: deterministic attribution, epochs,
folded stacks, and bounded sampling.

The deterministic side (call counts, sim-time gaps, table/folded
renderings with wall excluded) must be byte-identical across two
same-seed runs; the wall-clock side is driven here with a fake clock so
its extrapolation is testable without real timing.
"""

from repro.netsim.simulator import Simulator
from repro.obs import Profiler, Telemetry
from repro.scion.addr import IA
from repro.scion.network import ScionNetwork
from tests.conftest import make_diamond_topology

A = IA.parse("71-100")
B = IA.parse("71-200")


class FakeClock:
    """A controllable perf_counter: each call advances by ``step_s``."""

    def __init__(self, step_s: float = 0.001):
        self.now = 0.0
        self.step_s = step_s

    def __call__(self) -> float:
        self.now += self.step_s
        return self.now


def _noop() -> None:
    pass


class Service:
    def __init__(self) -> None:
        self.ticks = 0

    def tick(self) -> None:
        self.ticks += 1


def _run_workload(profiler: Profiler) -> Simulator:
    sim = Simulator()
    sim.profiler = profiler
    service = Service()
    for i in range(10):
        sim.schedule(0.1 * (i + 1), service.tick)
    for i in range(5):
        sim.schedule(0.05 * (i + 1), _noop)
    sim.run_until_idle()
    assert service.ticks == 10
    return sim


class TestAttribution:
    def test_exact_call_counts(self):
        profiler = Profiler()
        _run_workload(profiler)
        by_path = {";".join(f): calls for f, calls, _, _ in profiler.rows()}
        assert by_path["sim;tests.obs.test_profile;Service.tick"] == 10
        assert by_path["sim;tests.obs.test_profile;_noop"] == 5

    def test_sim_time_gap_attribution(self):
        """Each event owns the sim-time gap it closes; the per-frame sums
        add up to the full simulated duration."""
        profiler = Profiler()
        _run_workload(profiler)
        total_sim = sum(sim_s for _, _, sim_s, _ in profiler.rows())
        # First event at t=0.05 attributes nothing (no predecessor);
        # the rest cover 0.05 .. 1.0.
        assert abs(total_sim - 0.95) < 1e-9

    def test_repro_module_prefix_stripped(self):
        profiler = Profiler()
        sim = Simulator()
        sim.profiler = profiler
        sim.schedule(1.0, sim.schedule, 1.0, _noop)
        sim.run_until_idle()
        paths = profiler.hot_paths(5)
        assert any(path.startswith("sim;netsim.simulator;") for path in paths)

    def test_explicit_section_start_finish(self):
        profiler = Profiler(sample_every=1, seed=0, clock=FakeClock())
        token = profiler.start()
        profiler.finish(token, ("dataplane", "walk", "delivered"), sim_s=0.25)
        ((frames, calls, sim_s, wall_s),) = profiler.rows()
        assert frames == ("dataplane", "walk", "delivered")
        assert calls == 1
        assert sim_s == 0.25
        assert wall_s > 0.0


class TestDeterminism:
    def test_tables_byte_identical_across_runs(self):
        tables = []
        folded = []
        for _ in range(2):
            profiler = Profiler(sample_every=8, seed=3)
            _run_workload(profiler)
            tables.append(profiler.render_table(include_wall=False))
            folded.append(profiler.folded())
        assert tables[0] == tables[1]
        assert folded[0] == folded[1]

    def test_wall_clock_excluded_from_deterministic_table(self):
        """Two profilers whose clocks disagree wildly still render the
        same deterministic table — wall time never leaks into it."""
        slow = Profiler(sample_every=1, clock=FakeClock(step_s=1.0))
        fast = Profiler(sample_every=1, clock=FakeClock(step_s=1e-9))
        _run_workload(slow)
        _run_workload(fast)
        assert slow.render_table(include_wall=False) \
            == fast.render_table(include_wall=False)
        assert slow.render_table(include_wall=True) \
            != fast.render_table(include_wall=True)

    def test_folded_lines_well_formed(self):
        profiler = Profiler()
        _run_workload(profiler)
        lines = profiler.folded()
        assert lines == sorted(lines)
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert int(count) > 0
            assert len(stack.split(";")) == 3

    def test_folded_sim_us_weighting(self):
        profiler = Profiler()
        _run_workload(profiler)
        by_stack = dict(
            line.rsplit(" ", 1) for line in profiler.folded(weight="sim_us")
        )
        # Service.tick closes the 0.1-spaced gaps from 0.25 to 1.0:
        # 0.05 + 9 * 0.1 = 0.95 total minus _noop's share.
        total_us = sum(int(v) for v in by_stack.values())
        assert total_us == 950_000


class TestSampling:
    def test_seeded_stride_bounds_clock_calls(self):
        clock = FakeClock()
        profiler = Profiler(sample_every=4, seed=0, clock=clock)
        sim = Simulator()
        sim.profiler = profiler
        for i in range(40):
            sim.schedule(0.01 * (i + 1), _noop)
        sim.run_until_idle()
        ((_, calls, _, _),) = profiler.rows()
        assert calls == 40
        entry = profiler._entries[
            ("sim", "tests.obs.test_profile", "_noop")
        ]
        assert entry.sampled == 10         # one in four
        assert clock.now > 0.0

    def test_wall_estimate_extrapolates(self):
        clock = FakeClock(step_s=0.5)      # each sampled call "costs" 0.5s
        profiler = Profiler(sample_every=4, seed=0, clock=clock)
        sim = Simulator()
        sim.profiler = profiler
        for i in range(8):
            sim.schedule(0.01 * (i + 1), _noop)
        sim.run_until_idle()
        ((_, calls, _, wall_estimate),) = profiler.rows()
        assert calls == 8
        # 2 sampled calls, 0.5s each -> 1.0s measured over 1/4 of calls,
        # extrapolated to 4.0s.
        assert abs(wall_estimate - 4.0) < 1e-9

    def test_different_seeds_sample_different_phase(self):
        calls_sampled = []
        for seed in (0, 1):
            clock = FakeClock()
            profiler = Profiler(sample_every=4, seed=seed, clock=clock)
            sim = Simulator()
            sim.profiler = profiler
            for i in range(6):
                sim.schedule(0.01 * (i + 1), _noop)
            sim.run_until_idle()
            entry = profiler._entries[
                ("sim", "tests.obs.test_profile", "_noop")
            ]
            calls_sampled.append(entry.sampled)
        assert calls_sampled[0] >= 1
        assert calls_sampled[1] >= 1


class TestDataplaneIntegration:
    def test_walk_profiled_through_telemetry(self):
        tel = Telemetry()
        tel.profiler = Profiler()
        network = ScionNetwork(make_diamond_topology(), seed=5, telemetry=tel)
        path = network.paths(A, B, refresh=True)[0].path
        for i in range(7):
            assert network.dataplane.walk(path, now=float(i)).success
        rows = {";".join(f): c for f, c, _, _ in tel.profiler.rows()}
        assert rows["dataplane;ScionDataplane.walk;delivered"] == 7

    def test_walk_unprofiled_without_telemetry(self):
        network = ScionNetwork(make_diamond_topology(), seed=5)
        path = network.paths(A, B, refresh=True)[0].path
        assert network.dataplane.walk(path, now=0.0).success
