"""Property tests for the crucible's contracts.

Two bundles of properties from the issue:

* **Shrinker** — the ddmin result is a subsequence of the original fault
  list, still violates the same target invariant, and replays
  deterministically (same fault-stream digest, same violations).
* **Partition semantics** — a symmetric cut delivers nothing in either
  direction across the cut while it holds, and healing restores
  reconvergence (probes succeed again) with no lingering dataplane state.

Runs are real end-to-end simulations (~0.2 s each on the mesh5 world),
so ``max_examples`` is deliberately small; the seeds still move every
generation knob the schedule generator has.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netsim.chaos import FaultInjector
from repro.harness.crucible import (
    TOPOLOGIES,
    generate_schedule,
    run_schedule,
    shrink_schedule,
)
from repro.scion.addr import IA
from repro.scion.network import ScionNetwork

LEAVES = (IA(71, 100), IA(71, 200), IA(71, 300))

SLOW = settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _subsequence(shorter, longer) -> bool:
    it = iter(longer)
    return all(item in it for item in shorter)


class TestShrinkerProperties:
    @SLOW
    @given(seed=st.integers(min_value=0, max_value=200))
    def test_shrunk_is_violating_subsequence_and_replays(self, seed):
        schedule = generate_schedule(
            seed=seed, topology="mesh5", n_faults=5,
            ensure_kind="load-surge",
        )
        caught = run_schedule(schedule, bug="shed-critical")
        if caught.ok:
            # Not every surge sheds priority-0 work; the property is
            # about schedules the bug actually fires on.
            return
        shrink = shrink_schedule(
            schedule, bug="shed-critical",
            target=tuple(caught.violated_names()),
        )
        # 1. Subsequence: order preserved, nothing new, nothing mutated.
        assert _subsequence(shrink.schedule.faults, schedule.faults)
        assert shrink.shrunk_faults == len(shrink.schedule.faults)
        # 2. Still violates the same target invariant.
        minimal = run_schedule(shrink.schedule, bug="shed-critical")
        assert set(minimal.violated_names()) & set(shrink.target)
        # 3. Deterministic replay from the seed alone.
        replay = run_schedule(shrink.schedule, bug="shed-critical")
        assert replay.fault_digest == minimal.fault_digest
        assert replay.violated_names() == minimal.violated_names()
        assert [str(v) for v in replay.violations] == [
            str(v) for v in minimal.violations
        ]


class TestPartitionProperties:
    @SLOW
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        cut=st.sampled_from(LEAVES),
        observer=st.sampled_from(LEAVES),
    )
    def test_symmetric_cut_then_heal_reconverges(self, seed, cut, observer):
        if cut == observer:
            return
        network = ScionNetwork(TOPOLOGIES["mesh5"](seed), seed=seed)
        injector = FaultInjector(seed=seed)
        now = float(network.timestamp)

        def delivered(src, dst, t):
            return any(
                network.dataplane.probe(meta.path, t).success
                for meta in network.paths(src, dst, now=t)
            )

        assert delivered(observer, cut, now)
        partition = injector.partition(
            network.topology, [cut], now, mode="symmetric"
        )
        # No delivery in either direction while the cut holds.
        assert not delivered(observer, cut, now + 0.1)
        assert not delivered(cut, observer, now + 0.1)
        partition.heal(now + 0.2)
        # Heal => reconvergence, instantly (no SCMP ever circulated), and
        # no fault left registered for the dataplane to pay for.
        assert delivered(observer, cut, now + 0.3)
        assert delivered(cut, observer, now + 0.3)
        for link in network.topology.links.values():
            assert not link._faults
