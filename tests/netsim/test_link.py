"""Tests for the point-to-point link model."""

import pytest

from repro.netsim.chaos import FaultInjector, FaultProfile
from repro.netsim.link import Link
from repro.netsim.simulator import Simulator


def make_link(**kwargs):
    defaults = dict(name="l", a="A", b="B", latency_s=0.010)
    defaults.update(kwargs)
    return Link(**defaults)


def test_transmit_delivers_after_latency():
    sim = Simulator()
    link = make_link()
    delivered = []
    link.transmit(sim, "A", 100, deliver=lambda: delivered.append(sim.now))
    sim.run_until_idle()
    assert delivered == [pytest.approx(0.010)]


def test_no_transmit_state_outlives_its_simulator():
    """A frame sent at t=0 arrives at the latency whatever an earlier
    simulator sent on the same link, here at t=5 s."""
    link = make_link()
    earlier = Simulator(start_time=5.0)
    link.transmit(earlier, "A", 100, deliver=lambda: None)
    earlier.run_until_idle()
    arrivals = []
    for _ in range(2):
        sim = Simulator()
        link.transmit(sim, "A", 100, deliver=lambda: arrivals.append(sim.now))
        sim.run_until_idle()
    assert arrivals == [0.010, 0.010]


def test_frames_queue_behind_transmitter():
    sim = Simulator()
    link = make_link()
    order = []
    for index in range(3):
        link.transmit(sim, "A", 500,
                      deliver=lambda i=index: order.append((i, sim.now)))
    sim.run_until_idle()
    assert order == [(0, 0.010), (1, 0.010), (2, 0.010)]


def test_down_link_drops():
    sim = Simulator()
    link = make_link()
    link.set_up(False)
    drops = []
    link.transmit(sim, "A", 10, deliver=lambda: pytest.fail("delivered"),
                  drop=drops.append)
    sim.run_until_idle()
    assert drops == ["link-down"]
    assert link.stats.frames_dropped_down == 1


def test_frame_in_flight_lost_when_link_goes_down():
    sim = Simulator()
    link = make_link(latency_s=1.0)
    drops = []
    link.transmit(sim, "A", 10, deliver=lambda: pytest.fail("delivered"),
                  drop=drops.append)
    sim.schedule(0.5, link.set_up, False)
    sim.run_until_idle()
    assert drops == ["link-down"]


def test_lossy_link_drops_deterministically_with_seed():
    def run(seed):
        sim = Simulator()
        link = make_link()
        FaultInjector(seed).wrap_link(link, FaultProfile(loss=0.5))
        outcomes = []
        for _ in range(50):
            link.transmit(sim, "A", 10, deliver=lambda: outcomes.append("ok"),
                          drop=outcomes.append)
        sim.run_until_idle()
        return link, outcomes

    link, outcomes = run(42)
    assert run(42)[1] == outcomes
    assert outcomes.count("chaos-loss") == link.stats.frames_dropped_loss
    assert 0 < outcomes.count("chaos-loss") < 50


def test_other_endpoint():
    link = make_link()
    assert link.other("A") == "B"
    assert link.other("B") == "A"
    with pytest.raises(ValueError):
        link.other("C")


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        make_link(latency_s=-1)
    sim = Simulator()
    with pytest.raises(ValueError):
        make_link().transmit(sim, "X", 1, deliver=lambda: None)


def test_stats_accumulate():
    sim = Simulator()
    link = make_link()
    for _ in range(3):
        link.transmit(sim, "A", 100, deliver=lambda: None)
    sim.run_until_idle()
    assert link.stats.frames_sent == 3
    assert link.stats.bytes_sent == 300
