"""``probe()`` and ``send()`` must tell the same story about a path.

The analytic walk and the event-driven delivery are two drivers of one
per-hop step (``ScionDataplane._step``); on an idle simulator — nothing
queued, so zero queueing delay — they have to agree on whether the packet
arrives, and if not on the drop reason, the dropping AS, the egress
interface (``0`` and ``None`` both mean "not attributable") and the SCMP
error routed back.  An echo whose *reply* dies (``<reason>-reply``) is
checked by sending the reversed packet.

Read-only cases run over every ordered AS pair of the session SCIERA
world; cases that break something run on ``random_topology`` worlds built
per test at two seeds.
"""

import dataclasses

import pytest

from repro.netsim.chaos import FaultInjector
from repro.netsim.simulator import Simulator
from repro.scion.addr import HostAddr
from repro.scion.dataplane.network import ROUTER_PROCESSING_S
from repro.scion.network import ScionNetwork
from repro.scion.packet import ScionPacket
from repro.scion.path import DataplanePath
from repro.scion.topology import random_topology

SEEDS = (3, 8)


@dataclasses.dataclass
class Sent:
    """What an event-driven send of one packet came to."""

    delivered: bool = False
    one_way_s: float = 0.0
    reason: str = ""
    ia: object = None
    ifid: int = 0
    scmp: object = None


def _packet(path: DataplanePath) -> ScionPacket:
    return ScionPacket(
        src=HostAddr(path.src_ia, "10.0.0.1", 4000),
        dst=HostAddr(path.dst_ia, "10.0.0.2", 4001),
        path=path,
        payload=b"echo",
    )


def _send(dataplane, sim: Simulator, path: DataplanePath, reverse: bool = False) -> Sent:
    now = sim.now
    packet = _packet(path)
    if reverse:
        packet = packet.reversed()
    sent = Sent()

    def delivered(_packet):
        sent.delivered, sent.one_way_s = True, sim.now - now

    def dropped(_packet, reason, location):
        sent.reason, sent.ia, sent.ifid = reason, location.ia, location.ifid

    def scmp(_packet, message):
        sent.scmp = message

    dataplane.send(sim, packet, delivered, dropped, scmp)
    sim.run_until_idle()
    assert sent.delivered != bool(sent.reason), "exactly one outcome per packet"
    return sent


def _forwarding_hops(path: DataplanePath) -> int:
    """Routers that forward the packet onto a link (one per link crossed)."""
    return path.num_as_hops() - 1


def agree(dataplane, sim: Simulator, path: DataplanePath) -> str:
    """Assert probe and send agree on ``path`` at ``sim.now``; the probe's
    failure ('' if none).

    Packets go through ``sim`` one after the other, each run to idle, so
    its clock only moves forward: a link's transmitter is then always free
    when a frame reaches it (it remembers when it last sent), which is
    what makes the comparison one of zero queueing.
    """
    probe = dataplane.probe(path, sim.now)
    sent = _send(dataplane, sim, path)
    if probe.failure.endswith("-reply"):
        # The echo got there; its reply, on the reversed path, did not.
        assert sent.delivered
        back = _send(dataplane, sim, path, reverse=True)
        assert not back.delivered
        assert (back.reason + "-reply", back.ia) == (probe.failure, probe.failed_at)
        assert probe.failed_ifid is None
        assert probe.scmp is None and back.scmp is None
        return probe.failure
    assert sent.delivered == probe.success
    assert sent.reason == probe.failure
    if not probe.success:
        assert sent.ia == probe.failed_at
        assert (sent.ifid or None) == (probe.failed_ifid or None)
        assert sent.scmp == probe.scmp
        return probe.failure
    # The one known difference, pinned until ROADMAP 6(a)'s benchmark-only
    # change re-pins the ``packet_events`` digest (it hashes arrival times): the
    # walk charges ``ROUTER_PROCESSING_S`` at every router, ``send`` only at
    # crossover and delivery — not at routers that forward onto a link.
    assert probe.one_way_s - sent.one_way_s == pytest.approx(
        ROUTER_PROCESSING_S * _forwarding_hops(path), abs=1e-9
    )
    assert probe.rtt_s == pytest.approx(2 * probe.one_way_s)
    return ""


def _paths(network, per_pair: int):
    ases = sorted(network.topology.ases)
    return [
        meta.path
        for src in ases for dst in ases if src != dst
        for meta in network.paths(src, dst)[:per_pair]
    ]


def _agree_everywhere(network, sim: Simulator, per_pair: int = 2) -> dict:
    """Compare every sampled path; how often each outcome was seen."""
    seen: dict = {}
    for path in _paths(network, per_pair):
        outcome = agree(network.dataplane, sim, path)
        seen[outcome] = seen.get(outcome, 0) + 1
    return seen


def _tampered(path: DataplanePath, position: int, **changes) -> DataplanePath:
    """``path`` with one hop field (counted in forwarding order) altered."""
    segments = list(path.segments)
    for index, segment in enumerate(segments):
        count = len(segment.hops)
        if position < count:
            at = position if segment.info.cons_dir else count - 1 - position
            hops = list(segment.hops)
            hops[at] = dataclasses.replace(hops[at], **changes)
            segments[index] = dataclasses.replace(segment, hops=tuple(hops))
            return DataplanePath(tuple(segments))
        position -= count
    raise IndexError(position)


# -- read-only: every ordered pair of the session SCIERA world -------------------


class TestScieraReadOnly:
    def test_idle_network_delivers_everywhere(self, sciera_world):
        network = sciera_world.network
        sim = Simulator(start_time=float(network.timestamp))
        seen = _agree_everywhere(network, sim, per_pair=1)
        assert set(seen) == {""} and seen[""] >= 812

    def test_expired_path(self, sciera_world):
        network = sciera_world.network
        paths = _paths(network, 1)
        sim = Simulator(
            start_time=float(max(path.min_expiry() for path in paths) + 1)
        )
        for path in paths:
            assert agree(network.dataplane, sim, path) == "drop-expired"

    def test_bad_mac_at_every_position(self, sciera_world):
        network = sciera_world.network
        sim = Simulator(start_time=float(network.timestamp))
        for path in _paths(network, 1)[::7]:
            for position in range(len(path.hops())):
                forged = _tampered(path, position, mac=b"\x00" * 6)
                assert agree(network.dataplane, sim, forged) == "drop-bad-mac"


# -- mutating: random worlds, one per test ---------------------------------------


@pytest.fixture(params=SEEDS)
def world(request):
    seed = request.param
    network = ScionNetwork(
        random_topology(14, seed=seed, n_core=2, peer_fraction=0.3),
        seed=seed,
    )
    return network, Simulator(start_time=float(network.timestamp))


def _some_links(network, every: int = 3):
    return [
        network.topology.links[name]
        for name in sorted(network.topology.links)[::every]
    ]


class TestRandomWorlds:
    def test_idle(self, world):
        network, sim = world
        assert set(_agree_everywhere(network, sim)) == {""}

    def test_links_down(self, world):
        network, sim = world
        for link in _some_links(network):
            link.set_up(False)
        seen = _agree_everywhere(network, sim)
        assert seen.get("link-down") and seen.get("")

    @pytest.mark.parametrize("ttl_s", [None, 3600.0])
    def test_router_down_marks(self, world, ttl_s):
        network, sim = world
        lapse = sim.now + (ttl_s or 0.0)
        for name in sorted(network.topology.link_attachments)[::3]:
            (ia, ifid), _ = network.topology.link_attachments[name]
            router = network.dataplane.routers[ia]
            if ttl_s is None:
                router.mark_interface_down(ifid)
            else:
                router.mark_interface_down(ifid, until=lapse)
        seen = _agree_everywhere(network, sim)
        assert seen.get("drop-interface-down") and seen.get("")
        if ttl_s is not None:
            assert sim.now < lapse
            # The marks lapse with their TTL: everything is reachable again.
            later = Simulator(start_time=lapse + 1.0)
            assert set(_agree_everywhere(network, later)) == {""}

    @pytest.mark.parametrize("mode", ["symmetric", "outbound", "inbound"])
    def test_partition(self, world, mode):
        network, sim = world
        ases = sorted(network.topology.ases)
        partition = FaultInjector(seed=1).partition(
            network.topology, ases[-3:], sim.now, mode=mode
        )
        seen = _agree_everywhere(network, sim)
        assert seen.get("partition") and seen.get("")
        if mode != "symmetric":
            assert seen.get("partition-reply")
        partition.heal(sim.now)
        assert set(_agree_everywhere(network, sim)) == {""}

    def test_registered_link_fault_drops(self, world):
        network, sim = world
        removers = [
            link.add_fault(lambda now, sender: "test-drop")
            for link in _some_links(network)
        ]
        seen = _agree_everywhere(network, sim)
        assert seen.get("test-drop") and seen.get("")
        for remove in removers:
            remove()
        assert set(_agree_everywhere(network, sim)) == {""}

    def test_registered_link_fault_delays(self, world):
        network, sim = world
        slowed = _some_links(network)
        for link in slowed:
            link.add_fault(lambda now, sender: (0.003, 1))
        assert set(_agree_everywhere(network, sim)) == {""}
        # The probe saw the extra delay at all (not just the same nothing
        # as send): a path over a slowed link is slower than its estimate.
        dataplane = network.dataplane
        path = next(
            path for path in _paths(network, 2)
            if any(link in slowed for link in dataplane.analyze(path, sim.now).links)
        )
        assert (
            dataplane.probe(path, sim.now).one_way_s
            >= dataplane.path_latency_s(path) + 0.003
        )

    def test_duplicated_frame_copies_travel_independently(self, world):
        """A link fault that answers two copies of the first frame it sees:
        each copy goes on from the hop it reached, so both arrive when the
        lone frame would have — neither is decided at a hop the other has
        moved on to."""
        network, sim = world
        dataplane = network.dataplane
        checked = 0
        for path in _paths(network, 2):
            links = dataplane.analyze(path, sim.now).links
            if not links:
                continue
            alone = _send(dataplane, sim, path)
            assert alone.delivered
            answers = [(0.0, 2)]  # a path may cross the link again
            remove = links[0].add_fault(
                lambda now, sender: answers.pop() if answers else (0.0, 1)
            )
            start, outcomes = sim.now, []
            dataplane.send(
                sim, _packet(path),
                lambda _packet: outcomes.append(sim.now - start),
                lambda _packet, reason, location: outcomes.append(reason),
            )
            sim.run_until_idle()
            remove()
            assert outcomes == [alone.one_way_s] * 2
            checked += 1
        assert checked

    def test_hop_onto_a_link_that_misses_the_next_as(self, world):
        """An AS re-cabled two interfaces: hop fields still verify, but the
        egress they name leads somewhere the path does not go.  Neither
        mode may forward across it, and the path's next router must never
        see the frame."""
        network, sim = world
        recabled = 0
        for topo in network.topology.ases.values():
            by_remote = {}
            for ifid, iface in sorted(topo.interfaces.items()):
                by_remote.setdefault(iface.remote_ia, ifid)
            if len(by_remote) < 2:
                continue
            one, other = sorted(by_remote.values())[:2]
            topo.interfaces[one], topo.interfaces[other] = (
                topo.interfaces[other], topo.interfaces[one],
            )
            recabled += 1
        assert recabled
        seen = _agree_everywhere(network, sim)
        assert seen.get("path-link-mismatch")
