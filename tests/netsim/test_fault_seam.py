"""The fault seam on ``Link`` and ``ScionDataplane``.

Chaos, the crucible and tests all interpose faults the same way: they
register a function on the target (``Link.add_fault``,
``ScionDataplane.add_probe_fault``) and keep the remover they get back.
A hypothesis state machine adds and removes registrations in any order —
removing the oldest first, removing twice — and after every step sends one
frame and one probe through the real targets and through a reference that
applies the *currently registered* faults in registration order.  Results,
link counters and the seeded ``FaultEvent`` streams must agree, which they
only do when each remover took out exactly its own registration.

With nothing registered the seam must be invisible: ``probe`` hands back
the very object ``walk`` produced and ``transmit`` schedules delivery at
``max(now, transmitter free) + serialization + latency``.
"""

import dataclasses
import functools
from unittest import mock

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.experiments.common import diamond_topology
from repro.netsim.chaos import FaultInjector, FaultProfile
from repro.netsim.link import Link
from repro.netsim.simulator import Simulator
from repro.scion.addr import IA
from repro.scion.network import ScionNetwork

LATENCY_S = 0.01
SEED = 0x5EA4

profiles = st.builds(
    FaultProfile,
    loss=st.sampled_from([0.0, 0.3]),
    corrupt=st.sampled_from([0.0, 0.3]),
    latency_spike=st.sampled_from([0.0, 0.5]),
    latency_spike_s=st.sampled_from([0.0, 0.05, 0.2]),
    duplicate=st.sampled_from([0.0, 0.5]),
)


@functools.lru_cache(maxsize=None)
def _world():
    network = ScionNetwork(diamond_topology(), seed=7)
    path = network.paths(IA.parse("71-100"), IA.parse("71-200"))[0].path
    return network.dataplane, path


class CapturedFaults:
    """Stands where a ``Link`` would: keeps what ``wrap_link`` registers,
    so the reference can consult the very same fault functions."""

    name = "l"

    def __init__(self):
        self.faults = []

    def add_fault(self, fault):
        self.faults.append(fault)
        return lambda: None


class SeamMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dataplane, self.path = _world()
        self.sim = Simulator()
        self.link = Link("l", "x", "y", latency_s=LATENCY_S)
        # Real side and reference side draw from equally seeded RNGs: the
        # streams stay equal only while both consult the same faults in
        # the same order.
        self.real = FaultInjector(seed=SEED)
        self.reference = FaultInjector(seed=SEED)
        self.captured = CapturedFaults()
        self.removers = []          # key -> (probe remover, link remover)
        self.registered = {}        # key -> (probe fault, link fault), ordered
        self.expected_loss_drops = 0

    def teardown(self):
        for remove_probe, remove_link in self.removers:
            remove_probe()
            remove_link()
        assert not self.dataplane._probe_faults

    @rule(profile=profiles)
    def add(self, profile):
        key = len(self.removers)
        self.removers.append((
            self.real.wrap_dataplane(self.dataplane, profile, f"probe#{key}"),
            self.real.wrap_link(self.link, profile),
        ))
        self.reference.wrap_link(self.captured, profile)
        self.registered[key] = (
            self.reference.probe_filter(profile, f"probe#{key}"),
            self.captured.faults[-1],
        )

    @precondition(lambda self: self.removers)
    @rule(index=st.integers(min_value=0))
    def remove(self, index):
        """Any registration ever made, in any order — a second removal of
        the same one must be a no-op."""
        key = index % len(self.removers)
        for remover in self.removers[key]:
            remover()
        self.registered.pop(key, None)

    @rule()
    def probe(self):
        now = self.sim.now
        expected = self.dataplane.walk(self.path, now)
        for probe_fault, _ in self.registered.values():
            expected = probe_fault(expected, now)
        assert self.dataplane.probe(self.path, now) == expected
        assert self.real.events == self.reference.events

    @rule()
    def transmit(self):
        now = self.sim.now
        delay_s, copies, reason = LATENCY_S, 1, None
        for _, link_fault in self.registered.values():
            verdict = link_fault(now, "x")
            if isinstance(verdict, str):
                reason = verdict
                break
            delay_s, copies = delay_s + verdict[0], copies * verdict[1]
        arrivals, drops = [], []
        self.link.transmit(
            self.sim, "x", 100, lambda: arrivals.append(self.sim.now), drops.append
        )
        self.sim.run()
        if reason is None:
            assert (arrivals, drops) == ([now + delay_s] * copies, [])
        else:
            assert (arrivals, drops) == ([], [reason])
            self.expected_loss_drops += 1
        assert self.link.stats.frames_dropped_loss == self.expected_loss_drops
        assert self.link.latency_s == LATENCY_S
        assert self.real.events == self.reference.events


SeamMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestFaultSeam = SeamMachine.TestCase


def test_probe_without_faults_returns_what_walk_returned():
    dataplane, path = _world()
    walked = dataplane.walk(path, 0.0)
    with mock.patch.object(dataplane, "walk", return_value=walked):
        assert dataplane.probe(path, 0.0) is walked
        remove = dataplane.add_probe_fault(
            lambda result, now: dataclasses.replace(result, failure="seen")
        )
        assert dataplane.probe(path, 0.0).failure == "seen"
        remove()
        assert dataplane.probe(path, 0.0) is walked


def test_transmit_without_faults_keeps_the_delivery_schedule():
    sim = Simulator()
    link = Link("l", "x", "y", latency_s=LATENCY_S)
    link.add_fault(lambda now, sender: "never-consulted")()  # registered, then removed
    arrivals = []
    for _ in range(2):  # the second frame leaves right behind the first
        link.transmit(sim, "x", 1000, lambda: arrivals.append(sim.now))
    sim.run()
    assert arrivals == [LATENCY_S, LATENCY_S]
    assert (link.stats.frames_sent, link.stats.bytes_sent) == (2, 2000)


def test_link_fault_verdicts_are_applied_by_transmit():
    """A fault only answers; the link does the dropping, delaying and
    copying — and leaves its own latency alone."""
    sim = Simulator()
    link = Link("l", "x", "y", latency_s=LATENCY_S)
    verdicts = iter(["chaos-corrupt", (0.5, 1), (0.0, 2)])
    link.add_fault(lambda now, sender: next(verdicts))
    arrivals, drops = [], []
    for _ in range(3):
        link.transmit(sim, "x", 100, lambda: arrivals.append(sim.now), drops.append)
        sim.run()
    assert drops == ["chaos-corrupt"]
    assert arrivals == [LATENCY_S + 0.5, 0.51 + LATENCY_S, 0.51 + LATENCY_S]
    assert link.stats.frames_dropped_loss == 1
    assert link.stats.frames_sent == 3
    assert link.latency_s == LATENCY_S
