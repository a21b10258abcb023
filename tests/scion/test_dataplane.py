"""Tests for the data plane: router verdicts, probes, DES delivery, and
the end-host data path model."""

import dataclasses
import hashlib
import math

import pytest

from repro.netsim.simulator import Simulator
from repro.scion.addr import IA, HostAddr
from repro.scion.dataplane.dispatcher import EndHostDataPathModel
from repro.scion.dataplane.router import QUEUE_CAPACITY
from repro.scion.packet import ScionPacket
from repro.scion.scmp import (
    CODE_PATH_EXPIRED,
    CODE_UNKNOWN_PATH_INTERFACE,
    ScmpType,
)
from repro.scion.path import DataplanePath, PathSegmentHops
from tests.scion.reference_codec import reverse_packet

A = IA.parse("71-100")
B = IA.parse("71-200")


class TestProbeSecurity:
    """Packets with invalid hop fields must not traverse the network."""

    def _forge(self, path, mutate):
        segments = []
        for seg in path.segments:
            hops = tuple(mutate(h) for h in seg.hops)
            segments.append(PathSegmentHops(seg.info, hops))
        return DataplanePath(tuple(segments))

    def test_forged_mac_dropped(self, diamond_network):
        meta = diamond_network.paths(A, B)[0]
        forged = self._forge(
            meta.path,
            lambda h: dataclasses.replace(h, mac=bytes(6)),
        )
        result = diamond_network.dataplane.probe(forged, diamond_network.timestamp)
        assert not result.success
        assert result.failure == "drop-bad-mac"

    def test_modified_egress_dropped(self, diamond_network):
        meta = diamond_network.paths(A, B)[0]
        forged = self._forge(
            meta.path,
            lambda h: dataclasses.replace(h, cons_egress=h.cons_egress + 1)
            if h.cons_egress else h,
        )
        result = diamond_network.dataplane.probe(forged, diamond_network.timestamp)
        assert not result.success
        assert result.failure == "drop-bad-mac"

    def test_expired_hop_dropped(self, diamond_network):
        meta = diamond_network.paths(A, B)[0]
        late = meta.path.min_expiry() + 1
        result = diamond_network.dataplane.probe(meta.path, late)
        assert not result.success
        assert result.failure == "drop-expired"

    def test_frankenstein_segment_dropped(self, diamond_network):
        """Mixing hop fields of two different segments yields a path that
        fails link-continuity or MAC checks — it cannot be forwarded."""
        metas = diamond_network.paths(A, B)
        two_core = [
            m for m in metas
            if len(m.path.segments) >= 2 and len(m.path.segments[1].hops) >= 2
        ]
        assert len(two_core) >= 2, "need two multi-segment paths to splice"
        seg_a = two_core[0].path.segments[1]
        seg_b = two_core[1].path.segments[1]
        # Keep segment A's first hop but continue with segment B's tail.
        franken = PathSegmentHops(seg_a.info, (seg_a.hops[0],) + seg_b.hops[1:])
        spliced = DataplanePath(
            (two_core[0].path.segments[0], franken)
            + two_core[0].path.segments[2:]
        )
        result = diamond_network.dataplane.probe(spliced, diamond_network.timestamp)
        assert not result.success

    def test_beta_mismatch_dropped(self, diamond_network):
        """A hop field re-stamped with a different beta fails its MAC."""
        meta = diamond_network.paths(A, B)[0]
        forged = self._forge(
            meta.path,
            lambda h: dataclasses.replace(h, beta=(h.beta + 1) & 0xFFFF),
        )
        result = diamond_network.dataplane.probe(forged, diamond_network.timestamp)
        assert not result.success
        assert result.failure == "drop-bad-mac"


class TestProbeLinkState:
    def test_link_down_fails_probe(self, fresh_diamond_network):
        net = fresh_diamond_network
        direct = net.paths(A, B)[0]  # A -> C2 -> B
        net.set_link_state("a-c2", False)
        result = net.probe(direct)
        assert not result.success
        assert result.failure == "link-down"
        # Alternative paths via C1 still work.
        assert len(net.active_paths(A, B)) >= 2

    def test_rtt_reflects_link_latencies(self, diamond_network):
        direct = diamond_network.paths(A, B)[0]
        result = diamond_network.probe(direct)
        # 6 ms + 4 ms one way => ~20 ms RTT (plus processing).
        assert result.rtt_s == pytest.approx(0.020, abs=0.002)


class TestVerdictErrors:
    """Drop verdicts carry the SCMP error a real router would emit, with
    the failed interface attached for interface-scoped failures."""

    def test_expired_path_reports_path_expired_scmp(self, diamond_network):
        meta = diamond_network.paths(A, B)[0]
        late = meta.path.min_expiry() + 1
        result = diamond_network.dataplane.probe(meta.path, late)
        assert result.failure == "drop-expired"
        assert result.scmp.scmp_type is ScmpType.PARAMETER_PROBLEM
        assert result.scmp.code == CODE_PATH_EXPIRED
        # Expiry is not interface-scoped: no failed ifid, no revocation.
        assert result.failed_ifid is None
        assert result.revocation is None

    def test_revoked_interface_reports_ifid_and_signed_revocation(
        self, fresh_diamond_network
    ):
        net = fresh_diamond_network
        meta = net.paths(A, B)[0]  # A -> C2 -> B via a-c2
        (ia, ifid), _ = net.topology.link_attachments["a-c2"]
        minted = net.revoke_interface(ia, ifid, now=float(net.timestamp))
        result = net.probe(meta)
        assert result.failure == "drop-interface-down"
        assert result.failed_at == ia
        assert result.failed_ifid == ifid
        assert result.scmp.scmp_type is ScmpType.EXTERNAL_INTERFACE_DOWN
        assert result.scmp.info == ifid
        # The dataplane signs the revocation with the failing AS's key.
        assert result.revocation is not None
        assert result.revocation.key == minted.key
        assert net.verify_revocation(result.revocation)

    def test_unknown_interface_reports_ifid(self, fresh_diamond_network):
        net = fresh_diamond_network
        meta = net.paths(A, B)[0]
        (ia, ifid), _ = net.topology.link_attachments["a-c2"]
        # The AS reconfigured the interface away: the hop MAC still
        # verifies, but the egress no longer exists.
        del net.topology.get(ia).interfaces[ifid]
        result = net.probe(meta)
        assert result.failure == "drop-no-interface"
        assert result.failed_at == ia
        assert result.failed_ifid == ifid
        assert result.scmp.scmp_type is ScmpType.PARAMETER_PROBLEM
        assert result.scmp.code == CODE_UNKNOWN_PATH_INTERFACE
        assert result.scmp.info == ifid
        assert result.revocation is not None
        assert result.revocation.key == f"{ia}#{ifid}"


class TestEgressQueue:
    def _packet(self, meta):
        return ScionPacket(
            src=HostAddr(A, "10.0.0.1", 4000),
            dst=HostAddr(B, "10.0.0.2", 4001),
            path=meta.path,
            payload=b"ping",
        )

    def test_queue_overflow_drops_without_scmp(self, fresh_diamond_network):
        net = fresh_diamond_network
        sim = Simulator()
        meta = net.paths(A, B)[0]
        router = net.dataplane.routers[A]
        # Fill every egress queue at A so the next packet overflows.
        for ifid in router.topology.interfaces:
            for _ in range(QUEUE_CAPACITY):
                assert router.try_enqueue(ifid)
        drops, scmps = [], []
        net.dataplane.send(
            sim, self._packet(meta),
            on_delivered=lambda p: pytest.fail("should not deliver"),
            on_dropped=lambda p, reason, loc: drops.append((reason, loc)),
            on_scmp=lambda p, msg: scmps.append(msg),
        )
        sim.run_until_idle()
        assert len(drops) == 1
        reason, location = drops[0]
        assert reason == "drop-queue-full"
        assert location.ia == A and location.ifid > 0
        # Congestion is not failure: no SCMP, so no revocation cascade.
        assert scmps == []
        assert router.stats.queue_drops == 1

    def test_queue_slots_released_after_transmit(self, fresh_diamond_network):
        net = fresh_diamond_network
        sim = Simulator()
        meta = net.paths(A, B)[0]
        delivered = []
        net.dataplane.send(
            sim, self._packet(meta), on_delivered=delivered.append
        )
        sim.run_until_idle()
        assert len(delivered) == 1
        for router in net.dataplane.routers.values():
            for ifid in router.topology.interfaces:
                assert router.queue_depth(ifid) == 0


class TestEventDrivenDelivery:
    def test_packet_delivered_with_correct_latency(self, diamond_network):
        sim = Simulator()
        meta = diamond_network.paths(A, B)[0]
        packet = ScionPacket(
            src=HostAddr(A, "10.0.0.1", 4000),
            dst=HostAddr(B, "10.0.0.2", 4001),
            path=meta.path,
            payload=b"ping",
        )
        delivered = []
        diamond_network.dataplane.send(
            sim, packet, on_delivered=lambda p: delivered.append(sim.now)
        )
        sim.run_until_idle()
        assert len(delivered) == 1
        analytic = diamond_network.probe(meta).one_way_s
        assert delivered[0] == pytest.approx(analytic, rel=0.01)

    def test_packet_dropped_on_down_link(self, fresh_diamond_network):
        net = fresh_diamond_network
        sim = Simulator()
        meta = net.paths(A, B)[0]
        net.set_link_state("a-c2", False)
        drops = []
        locations = []
        scmps = []
        packet = ScionPacket(
            src=HostAddr(A, "10.0.0.1", 4000),
            dst=HostAddr(B, "10.0.0.2", 4001),
            path=meta.path,
        )
        net.dataplane.send(
            sim, packet,
            on_delivered=lambda p: pytest.fail("should not deliver"),
            on_dropped=lambda p, reason, loc: (
                drops.append(reason), locations.append(loc)
            ),
            on_scmp=lambda p, msg: scmps.append(msg),
        )
        sim.run_until_idle()
        assert drops == ["link-down"]
        # The drop location names the AS and egress ifid where the packet died.
        assert locations[0].ia == A
        assert locations[0].ifid > 0
        # The router routed an SCMP interface-down error back to the source.
        assert len(scmps) == 1
        assert scmps[0].scmp_type is ScmpType.EXTERNAL_INTERFACE_DOWN
        assert scmps[0].origin_ia == str(A)
        assert scmps[0].info == locations[0].ifid

    def test_reply_travels_back(self, diamond_network):
        sim = Simulator()
        meta = diamond_network.paths(A, B)[0]
        packet = ScionPacket(
            src=HostAddr(A, "10.0.0.1", 4000),
            dst=HostAddr(B, "10.0.0.2", 4001),
            path=meta.path,
            payload=b"ping",
        )
        rtt = []

        def on_request_delivered(p):
            reply = reverse_packet(p)
            diamond_network.dataplane.send(
                sim, reply, on_delivered=lambda r: rtt.append(sim.now)
            )

        diamond_network.dataplane.send(sim, packet, on_request_delivered)
        sim.run_until_idle()
        assert len(rtt) == 1
        assert rtt[0] == pytest.approx(diamond_network.probe(meta).rtt_s, rel=0.01)


#: One burst from the first SCIERA host to the 28 others over their
#: ``select_path`` paths: kernel events processed and the sha256 of the
#: sorted ``(dst, arrival)`` pairs.  The event-driven hop may get cheaper;
#: it may not schedule other events, or fire them at other times.
BURST_EVENTS = 173
BURST_DIGEST = "6ab79c85a9ab2268"


class TestEventSchedule:
    def test_one_burst_is_pinned(self, sciera_world):
        network = sciera_world.network
        hosts = sorted(sciera_world.hosts)
        source = hosts[0]
        address = {
            name: HostAddr(host.ia, host.ip, 4000)
            for name, host in sciera_world.hosts.items()
        }
        context = sciera_world.pan(source)
        routes = [
            (name, context.select_path(
                sciera_world.hosts[name].ia, now=float(network.timestamp)
            ).path)
            for name in hosts if name != source
        ]
        # Start on a whole second inside the binade of the build timestamp,
        # so every ``sim.now - start`` is bit-identical.
        start = float(math.floor(network.timestamp) + 1)
        assert start < 2 ** 20
        sim = Simulator(start_time=start)
        arrivals, drops = [], []
        for name, path in routes:
            packet = ScionPacket(
                src=address[source], dst=address[name], path=path,
                payload=b"x" * 256,
            )
            network.dataplane.send(
                sim, packet,
                lambda p: arrivals.append((str(p.dst), sim.now - start)),
                lambda p, reason, location: drops.append(reason),
            )
        sim.run_until_idle()
        assert drops == [] and len(arrivals) == 28
        digest = hashlib.sha256(repr(sorted(arrivals)).encode()).hexdigest()[:16]
        assert (sim.events_processed, digest) == (BURST_EVENTS, BURST_DIGEST)


class TestDispatcher:
    def test_datapath_model_capacity_ordering(self):
        dispatcher = EndHostDataPathModel("dispatcher", cores=8)
        dispatcherless = EndHostDataPathModel("dispatcherless", cores=8)
        xdp = EndHostDataPathModel("xdp-bypass", cores=8)
        assert dispatcher.capacity_pps() < dispatcherless.capacity_pps() < xdp.capacity_pps()
        # The dispatcher does NOT scale with cores.
        assert (
            EndHostDataPathModel("dispatcher", cores=1).capacity_pps()
            == EndHostDataPathModel("dispatcher", cores=16).capacity_pps()
        )

    def test_datapath_model_goodput_saturates(self):
        model = EndHostDataPathModel("dispatcher")
        assert model.goodput_pps(10.0) == 10.0
        cap = model.capacity_pps()
        assert model.goodput_pps(cap * 10) == cap
        with pytest.raises(ValueError):
            model.goodput_pps(-1)
        with pytest.raises(ValueError):
            EndHostDataPathModel("warp-drive").capacity_pps()
