"""Network partitions: silent blackholes, asymmetric cuts, and the
monitor/alert plumbing they surface.

The regression class at the bottom pins the bug the partition fault
found: under an asymmetric cut both sides' monitors see probe failures
(an echo reply reverses the same path, so a one-way cut kills the round
trip in both directions), and the alert pipeline used to count the one
outage as two independent incidents.
"""

import pytest

from repro.core.monitoring import Alert, ConnectivityMonitor
from repro.netsim.chaos import FaultInjector
from repro.netsim.crucible import TOPOLOGIES
from repro.netsim.simulator import Simulator
from repro.obs import EventLog, Telemetry
from repro.scion.addr import IA
from repro.scion.network import ScionNetwork

CORE1, CORE2 = IA(71, 1), IA(71, 2)
LEAF1, LEAF2, LEAF3 = IA(71, 100), IA(71, 200), IA(71, 300)


def _world(seed: int = 7, telemetry: Telemetry = None):
    network = ScionNetwork(
        TOPOLOGIES["mesh5"](seed), seed=seed, verify_beacons=False,
        telemetry=telemetry,
    )
    injector = FaultInjector(seed=seed)
    return network, injector


def _no_fault_registered(network) -> bool:
    return not any(link._faults for link in network.topology.links.values())


def _probe_ok(network, src, dst, now) -> bool:
    metas = network.paths(src, dst, now=now)
    return any(
        network.dataplane.probe(m.path, now).success for m in metas
    )


class TestPartitionSemantics:
    def test_symmetric_cut_kills_both_directions(self):
        network, injector = _world()
        now = float(network.timestamp)
        assert _probe_ok(network, LEAF1, LEAF2, now)
        partition = injector.partition(
            network.topology, [LEAF2], now, mode="symmetric"
        )
        assert not _probe_ok(network, LEAF1, LEAF2, now)
        assert not _probe_ok(network, LEAF2, LEAF1, now)
        partition.heal(now + 1.0)
        assert _probe_ok(network, LEAF1, LEAF2, now + 1.0)
        assert _probe_ok(network, LEAF2, LEAF1, now + 1.0)
        assert _no_fault_registered(network)

    def test_partition_is_silent_no_link_down(self):
        """Unlike set_link_state, a partition leaves every link *up* —
        the frames just vanish, with no SCMP and no revocation."""
        network, injector = _world()
        now = float(network.timestamp)
        partition = injector.partition(network.topology, [LEAF2], now)
        assert partition.cut_links
        for name in partition.cut_links:
            assert network.topology.links[name].up
        metas = network.paths(LEAF1, LEAF2, now=now)
        result = network.dataplane.probe(metas[0].path, now)
        assert not result.success
        assert result.failure in ("partition", "partition-reply")
        partition.heal(now)

    def test_asymmetric_cut_is_one_way_on_the_wire(self):
        """Outbound cut: the subset cannot send, but frames *into* the
        subset still walk cleanly — only the echo reply dies."""
        network, injector = _world()
        now = float(network.timestamp)
        partition = injector.partition(
            network.topology, [LEAF2], now, mode="outbound"
        )
        into = network.paths(LEAF1, LEAF2, now=now)[0].path
        # One-way walk into the subset: delivered.
        assert network.dataplane.walk(into, now).success
        # Round trip: the reply leaves the subset and hits the cut.
        result = network.dataplane.probe(into, now)
        assert not result.success
        assert result.failure == "partition-reply"
        # And the subset's own egress is cut outright.
        out = network.paths(LEAF2, LEAF1, now=now)[0].path
        assert network.dataplane.walk(out, now).failure == "partition"
        partition.heal(now)

    def test_heal_is_idempotent_and_event_stream_recorded(self):
        network, injector = _world()
        now = float(network.timestamp)
        partition = injector.partition(network.topology, [LEAF3], now)
        partition.heal(now + 2.0)
        partition.heal(now + 3.0)  # second heal is a no-op
        kinds = [e.kind for e in injector.events]
        assert kinds.count("partition-start") == 1
        assert kinds.count("partition-heal") == 1

    def test_overlapping_partitions_each_own_their_blocks(self):
        network, injector = _world()
        now = float(network.timestamp)
        first = injector.partition(network.topology, [LEAF1], now)
        second = injector.partition(
            network.topology, [LEAF1, LEAF3], now + 0.1
        )
        first.heal(now + 0.2)
        # leaf-1 is still inside the second partition's subset.
        assert not _probe_ok(network, LEAF2, LEAF1, now + 0.3)
        second.heal(now + 0.4)
        assert _probe_ok(network, LEAF2, LEAF1, now + 0.5)
        assert _no_fault_registered(network)

    @pytest.mark.parametrize("first_healed", [0, 1])
    def test_direction_cut_twice_reopens_after_the_second_heal(self, first_healed):
        """Two partitions cutting the same direction each hold their own
        registration on the link: whichever heals first, the direction
        stays cut until the other has healed too."""
        network, injector = _world()
        now = float(network.timestamp)
        out = network.paths(LEAF1, LEAF2, now=now)[0].path
        partitions = [
            injector.partition(network.topology, [LEAF1], now, mode="outbound"),
            injector.partition(network.topology, [LEAF1], now, mode="outbound"),
        ]
        assert network.dataplane.walk(out, now).failure == "partition"
        partitions[first_healed].heal(now + 0.1)
        assert network.dataplane.walk(out, now + 0.2).failure == "partition"
        partitions[1 - first_healed].heal(now + 0.3)
        assert network.dataplane.walk(out, now + 0.4).success
        assert _no_fault_registered(network)

    def test_unknown_mode_rejected(self):
        from repro.netsim.chaos import ChaosError

        network, injector = _world()
        with pytest.raises(ChaosError):
            injector.partition(
                network.topology, [LEAF1], 0.0, mode="sideways"
            )


class TestAsymmetricPartitionAlertDedup:
    """The satellite-3 regression: one outage, one alert, however many
    vantage points noticed it."""

    def _lost(self, time_s, src, dst):
        return Alert(time_s=time_s, kind="connectivity-lost", src=src,
                     dst=dst, email_to="noc@example.net")

    def test_reverse_direction_alert_is_deduplicated(self):
        log = EventLog()
        assert log.record_alert(self._lost(1.0, "71-100", "71-200")) is not None
        # The other side's monitor reports the same incident reversed.
        assert log.record_alert(self._lost(1.1, "71-200", "71-100")) is None
        assert log.suppressed_alerts == 1
        # Display keeps the direction the first alert arrived in.
        assert log.down_pairs() == ["71-100->71-200"]

    def test_monitors_on_both_sides_of_asymmetric_cut_one_incident(self):
        tel = Telemetry()
        network, injector = _world(telemetry=tel)
        now = float(network.timestamp)
        sim = Simulator(start_time=now)
        monitors = [
            ConnectivityMonitor(network, LEAF1, [LEAF2],
                                probe_interval_s=0.5, telemetry=tel),
            ConnectivityMonitor(network, LEAF2, [LEAF1],
                                probe_interval_s=0.5, telemetry=tel),
        ]
        partition = injector.partition(
            network.topology, [LEAF2], now, mode="inbound"
        )
        for monitor in monitors:
            monitor.start(sim)
        sim.run(until=now + 2.0)
        for monitor in monitors:
            monitor.stop()
        partition.heal(now + 2.0)
        # Both monitors alerted (the echo reply crosses the cut)...
        assert sum(len(m.alerts) for m in monitors) == 2
        # ...but the timeline counts one incident, not two.
        assert tel.events.down_pairs() == ["71-100->71-200"]
        assert tel.events.suppressed_alerts == 1
