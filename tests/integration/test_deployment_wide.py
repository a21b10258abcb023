"""Deployment-wide integration: bootstrapping everywhere, trust evolution,
SCMP-driven failover, and green routing."""

import random

import pytest

from repro.endhost.bootstrap.bootstrapper import Bootstrapper
from repro.endhost.bootstrap.hinting import HintMechanism
from repro.endhost.daemon import Daemon
from repro.endhost.pan import PanContext
from repro.endhost.policy import LowestLatencyPolicy, PreferencePolicy
from repro.scion.addr import HostAddr, IA
from repro.scion.crypto.rsa import RsaKeyPair
from repro.scion.crypto.trc import Trc, verify_trc_chain
from repro.sciera.build import build_sciera
from repro.sciera.topology_data import SCIERA_PARTICIPANTS


@pytest.fixture(scope="module")
def world():
    return build_sciera(seed=61)


class TestBootstrapEverywhere:
    def test_every_participant_bootstraps(self, world):
        """A fresh device joins each of the 29 ASes successfully."""
        for p in SCIERA_PARTICIPANTS:
            if p.planned:
                continue
            result = world.bootstrapper_for(
                p.ia, rng=random.Random(p.ia)
            ).bootstrap()
            assert str(result.topology.ia) == p.ia
            assert result.topology.verify_signature()
            assert result.trcs

    @pytest.mark.parametrize("mechanism", [
        HintMechanism.DNS_SRV, HintMechanism.DNS_NAPTR, HintMechanism.DNS_SD,
        HintMechanism.DHCP_VIVO, HintMechanism.DHCP_OPTION72,
        HintMechanism.MDNS, HintMechanism.IPV6_NDP,
    ])
    def test_every_mechanism_bootstraps(self, world, mechanism):
        server = world.bootstrap_servers["71-225"]
        bootstrapper = Bootstrapper(
            world.environments["71-225"],
            {(server.ip, server.port): server},
            preference=(mechanism,),
            rng=random.Random(str(mechanism)),
        )
        result = bootstrapper.bootstrap()
        assert result.mechanism is mechanism


class TestTrustEvolution:
    def test_trc_update_rolls_out(self, world):
        """Issue a TRC update (rotating in a new root) and verify every
        AS's trust store accepts the chained update."""
        network = world.network
        trust = network.isd_trust[71]
        old = trust.trc
        new_root = RsaKeyPair.generate(seed=777)
        updated = Trc(
            isd=71,
            serial=old.serial + 1,
            base_serial=old.base_serial,
            not_before=old.not_before,
            not_after=old.not_after,
            core_ases=old.core_ases,
            authoritative_ases=old.authoritative_ases,
            root_keys={**old.root_keys, "root-isd71-v2": new_root.public},
            voting_quorum=1,
            description="root rotation",
        ).with_votes({"root-isd71": trust.root_key})
        updated.verify_update(old)
        verify_trc_chain([old, updated])
        for ia, service in network.services.items():
            if ia.isd != 71:
                continue
            service.trust_store.add_trc(updated)
            assert service.trust_store.latest(71).serial == updated.serial

    def test_unchained_update_rejected_everywhere(self, world):
        from repro.scion.crypto.trc import TrcError

        network = world.network
        old = network.isd_trust[71].trc
        rogue_root = RsaKeyPair.generate(seed=778)
        rogue = Trc(
            isd=71, serial=old.serial + 1, base_serial=old.base_serial,
            not_before=old.not_before, not_after=old.not_after,
            core_ases=("71-666",), authoritative_ases=("71-666",),
            root_keys={"rogue": rogue_root.public}, voting_quorum=1,
        ).with_votes({"rogue": rogue_root})
        service = network.services[IA.parse("71-225")]
        with pytest.raises(TrcError):
            service.trust_store.add_trc(rogue)


class TestScmpFailover:
    def test_router_scmp_feeds_daemon_path_pruning(self, world):
        """A router's interface-down SCMP removes affected paths from the
        daemon's answers until the state clears."""
        network = world.network
        src, dst = IA.parse("71-225"), IA.parse("71-1916")
        daemon = Daemon(network, src)
        before = daemon.lookup(dst, now=0.0)
        # The BRIDGES router reports its RNP-facing interface down.
        bridges = IA.parse("71-2:0:35")
        router = network.dataplane.routers[bridges]
        iface = next(
            i for i in network.topology.get(bridges).interfaces.values()
            if i.link_name == "rnp-bridges"
        )
        daemon.handle_scmp(router.interface_down_scmp(iface.ifid))
        after = daemon.lookup(dst, now=1.0)
        assert len(after) < len(before)
        banned = f"{bridges}#{iface.ifid}"
        for meta in after:
            assert banned not in meta.interfaces
        daemon.clear_interface_state()
        assert len(daemon.lookup(dst, now=2.0)) == len(before)


class TestGreenRouting:
    def test_green_policy_trades_latency_for_carbon(self, world):
        """Section 4.7's sustainability pitch: green paths exist, and when
        they differ from the fastest path they emit less carbon."""
        network = world.network
        src, dst = IA.parse("71-2:0:42"), IA.parse("71-2:0:3b")
        paths = network.paths(src, dst)
        greenest = PreferencePolicy("carbon").best(paths)
        fastest = LowestLatencyPolicy().best(paths)
        assert greenest.carbon_gco2_per_gb <= fastest.carbon_gco2_per_gb
        assert network.probe(greenest).success

    def test_green_send_works_end_to_end(self, world):
        client = PanContext(world.host("71-2:0:42"))
        server_host = world.host("71-2:0:3b")
        server = PanContext(server_host).open_socket(6100)
        server.on_message(lambda p, s, pm: b"green-ack")
        sock = client.open_socket()
        result = sock.send_to(
            HostAddr(server_host.ia, server_host.ip, 6100), b"eco",
            policy=PreferencePolicy("carbon"),
        )
        assert result.success
        assert result.reply == b"green-ack"
        server.close()
        sock.close()
