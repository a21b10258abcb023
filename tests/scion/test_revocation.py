"""Revocation tokens and the quarantine lifecycle.

These are the acceptance assertions of the revocation pipeline: a
quarantined segment is never returned by a lookup before the revocation
expires, reappears after TTL expiry or a re-validating beacon, and the
quarantine survives supervisor restarts (warm and cold) via ledger replay.
"""

import dataclasses

import pytest

from repro.core.supervisor import Supervisor
from repro.experiments.common import diamond_topology
from repro.netsim.crucible import CrucibleWorld, generate_schedule
from repro.scion.addr import IA
from repro.scion.crypto.rsa import RsaKeyPair
from repro.scion.network import ScionNetwork
from repro.scion.revocation import (
    DEFAULT_REVOCATION_TTL_S,
    Revocation,
    RevocationError,
    revocation_from_scmp,
)
from repro.scion.scmp import interface_down, path_expired, unknown_path_interface
from repro.scion.topology import TopologyError
from tests.scion.reference_codec import echo_request, queue_full

A = IA.parse("71-100")
B = IA.parse("71-200")
C2 = IA.parse("71-2")


def _a_side(network, link_name="a-c2"):
    """AS and ifid of the A end of a link, plus the global interface key."""
    (ia, ifid), _ = network.topology.link_attachments[link_name]
    return ia, ifid, f"{ia}#{ifid}"


class TestRevocationToken:
    def test_key_and_expiry(self):
        rev = Revocation(ia=A, ifid=3, issued_at=10.0, ttl_s=5.0)
        assert rev.key == "71-100#3"
        assert rev.expires_at() == 15.0
        assert rev.active(14.999) and not rev.active(15.0)

    def test_rejects_bogus_fields(self):
        with pytest.raises(RevocationError):
            Revocation(ia=A, ifid=0, issued_at=0.0)
        with pytest.raises(RevocationError):
            Revocation(ia=A, ifid=1, issued_at=0.0, ttl_s=0.0)

    def test_sign_and_verify(self):
        key = RsaKeyPair.generate(seed=41)
        rev = Revocation(ia=A, ifid=3, issued_at=1.0).signed_by(key)
        assert rev.verify(key.public)

    def test_unsigned_never_verifies(self):
        key = RsaKeyPair.generate(seed=41)
        rev = Revocation(ia=A, ifid=3, issued_at=1.0)
        assert rev.signature == 0
        assert not rev.verify(key.public)

    def test_wrong_key_or_tampered_payload_fails(self):
        key, other = RsaKeyPair.generate(seed=41), RsaKeyPair.generate(seed=42)
        rev = Revocation(ia=A, ifid=3, issued_at=1.0).signed_by(key)
        assert not rev.verify(other.public)
        forged = dataclasses.replace(rev, ifid=4)
        assert not forged.verify(key.public)


class TestRevocationFromScmp:
    def test_interface_down_yields_revocation(self):
        rev = revocation_from_scmp(interface_down(str(A), 3), now=7.0, ttl_s=4.0)
        assert rev == Revocation(ia=A, ifid=3, issued_at=7.0, ttl_s=4.0)

    def test_unknown_path_interface_yields_revocation(self):
        rev = revocation_from_scmp(unknown_path_interface(str(A), 9), now=1.0)
        assert rev.key == "71-100#9"
        assert rev.ttl_s == DEFAULT_REVOCATION_TTL_S

    def test_non_interface_errors_yield_none(self):
        assert revocation_from_scmp(echo_request(1, 1), now=0.0) is None
        assert revocation_from_scmp(path_expired(str(A)), now=0.0) is None
        # Congestion is not failure: a busy egress must never be revoked.
        assert revocation_from_scmp(queue_full(str(A), 3), now=0.0) is None
        assert revocation_from_scmp(interface_down("", 3), now=0.0) is None
        assert revocation_from_scmp(interface_down(str(A), 0), now=0.0) is None

    def test_malformed_origin_raises(self):
        with pytest.raises(RevocationError):
            revocation_from_scmp(interface_down("not-an-ia", 3), now=0.0)


class TestQuarantineLifecycle:
    def test_quarantined_segment_never_served_before_expiry(
        self, fresh_diamond_network
    ):
        net = fresh_diamond_network
        t0 = float(net.timestamp)
        ia, ifid, key = _a_side(net)
        before = net.paths(A, B, refresh=True)
        assert any(key in m.interfaces for m in before)

        net.revoke_interface(ia, ifid, now=t0, ttl_s=30.0)
        assert net.registry.quarantined_count() > 0
        for t in (t0, t0 + 10.0, t0 + 29.9):
            net.registry.active_revocations(now=t)  # lazy purge at t
            served = net.paths(A, B, refresh=True)
            assert served, "other paths must keep working"
            assert all(key not in m.interfaces for m in served)

    def test_quarantine_lifts_after_ttl_expiry(self, fresh_diamond_network):
        net = fresh_diamond_network
        t0 = float(net.timestamp)
        ia, ifid, key = _a_side(net)
        net.revoke_interface(ia, ifid, now=t0, ttl_s=5.0)
        assert all(
            key not in m.interfaces for m in net.paths(A, B, refresh=True)
        )
        # Past the TTL the lazy purge lifts the quarantine and bumps the
        # registry version, so even cached lookups recompute.
        net.registry.active_revocations(now=t0 + 5.1)
        assert net.registry.stats.revocations_expired == 1
        assert net.registry.quarantined_count() == 0
        assert any(key in m.interfaces for m in net.paths(A, B))

    def test_fresh_beacon_revalidates_and_reserves(self, fresh_diamond_network):
        net = fresh_diamond_network
        t0 = float(net.timestamp)
        ia, ifid, key = _a_side(net)
        net.revoke_interface(ia, ifid, now=t0, ttl_s=600.0)
        assert all(
            key not in m.interfaces for m in net.paths(A, B, refresh=True)
        )
        # Beacons built after the revocation cross the interface: proof of
        # life, so the quarantine lifts long before the TTL would expire.
        net.run_beaconing(now=t0 + 1.0)
        assert net.registry.stats.revocations_cleared_by_beacon >= 1
        assert net.registry.active_revocations() == []
        assert any(key in m.interfaces for m in net.paths(A, B, refresh=True))

    def test_repeat_revocation_keeps_longer_lived_token(
        self, fresh_diamond_network
    ):
        net = fresh_diamond_network
        t0 = float(net.timestamp)
        ia, ifid, _ = _a_side(net)
        long = net.revoke_interface(ia, ifid, now=t0, ttl_s=30.0)
        version = net.registry.version
        short = Revocation(
            ia=ia, ifid=ifid, issued_at=t0, ttl_s=1.0
        ).signed_by(net.signing_keys[ia])
        assert net.services[ia].path_server.revoke(short, now=t0) == 0
        assert net.registry.version == version
        assert net.registry.active_revocations() == [long]

    def test_revoking_unknown_as_raises(self, fresh_diamond_network):
        with pytest.raises(TopologyError):
            fresh_diamond_network.revoke_interface(IA.parse("99-9"), 1, now=0.0)


class TestSignatureEnforcement:
    def test_unsigned_revocation_rejected_by_path_server(
        self, fresh_diamond_network
    ):
        net = fresh_diamond_network
        t0 = float(net.timestamp)
        ia, ifid, _ = _a_side(net)
        rev = Revocation(ia=ia, ifid=ifid, issued_at=t0)
        assert net.services[ia].path_server.revoke(rev, now=t0) == 0
        assert net.registry.stats.revocations_rejected == 1
        assert net.registry.active_revocations() == []

    def test_revocation_signed_by_wrong_as_rejected(self, fresh_diamond_network):
        net = fresh_diamond_network
        t0 = float(net.timestamp)
        ia, ifid, _ = _a_side(net)
        forged = Revocation(ia=ia, ifid=ifid, issued_at=t0).signed_by(
            net.signing_keys[B]  # B cannot revoke A's interfaces
        )
        assert net.services[ia].path_server.revoke(forged, now=t0) == 0
        assert net.registry.stats.revocations_rejected == 1

    def test_expired_revocation_rejected(self, fresh_diamond_network):
        net = fresh_diamond_network
        ia, ifid, _ = _a_side(net)
        stale = Revocation(
            ia=ia, ifid=ifid, issued_at=0.0, ttl_s=1.0
        ).signed_by(net.signing_keys[ia])
        assert net.services[ia].path_server.revoke(stale, now=5.0) == 0
        assert net.registry.active_revocations() == []


class TestRevocationCheck:
    """``ScionNetwork.check_revocation``: freshness first, then signature."""

    def _tokens(self, net):
        ia, ifid, _ = _a_side(net)
        t0 = float(net.timestamp)
        token = Revocation(ia=ia, ifid=ifid, issued_at=t0, ttl_s=10.0)
        return t0, token.signed_by(net.signing_keys[ia]), token.signed_by(
            net.signing_keys[B]  # B cannot revoke A's interfaces
        )

    def test_fresh_genuine_token_accepted(self, diamond_network):
        t0, genuine, _ = self._tokens(diamond_network)
        assert diamond_network.check_revocation(genuine, t0 + 1.0) is None
        assert diamond_network.check_revocation(genuine, None) is None

    def test_genuine_token_past_its_ttl_is_replayed(self, diamond_network):
        t0, genuine, _ = self._tokens(diamond_network)
        assert diamond_network.check_revocation(genuine, t0 + 10.0) == (
            "replayed"
        )

    def test_rogue_signed_fresh_token_is_forged(self, diamond_network):
        t0, _, rogue = self._tokens(diamond_network)
        assert diamond_network.check_revocation(rogue, t0 + 1.0) == "forged"
        assert diamond_network.check_revocation(rogue, None) == "forged"

    def test_stale_rogue_signed_token_is_replayed(self, diamond_network):
        # Freshness is judged first, as the path server always has.
        t0, _, rogue = self._tokens(diamond_network)
        assert diamond_network.check_revocation(rogue, t0 + 60.0) == (
            "replayed"
        )


class TestTrustRevocationsBug:
    """``bug="trust-revocations"`` swaps in an accept-all check; the plain
    world built from the same schedule keeps refusing both attacks."""

    def _attack(self, bug):
        world = CrucibleWorld(
            generate_schedule(seed=3, topology="mesh5", n_faults=2), bug=bug
        )
        net = world.network
        core = net.topology.core_ases()[0]
        first, second = sorted(net.topology.get(core).interfaces)[:2]
        daemon = next(iter(world.daemons.values()))
        now = float(net.timestamp)
        forged = world.adversary.forge_revocation(
            core, first, now, daemon=daemon
        )
        replayed = world.adversary.replay_revocation(
            core, second, now, daemon=daemon
        )
        stats = net.registry.stats
        split = (
            stats.revocations_rejected, stats.revocations_replayed,
            daemon.stats.revocations_rejected,
        )
        return forged, replayed, split

    def test_bug_world_accepts_both_attacks(self):
        forged, replayed, split = self._attack("trust-revocations")
        assert forged.succeeded and not forged.detected
        assert replayed.succeeded and not replayed.detected
        assert split == (0, 0, 0)

    def test_plain_world_rejects_both_attacks(self):
        forged, replayed, split = self._attack(None)
        assert not forged.succeeded and forged.detected
        assert not replayed.succeeded and replayed.detected
        # Server: one forged, one replayed; daemon: the forgery only (it
        # drops dead tokens before counting).
        assert split == (1, 1, 1)


def _run_until_serving(supervisor, name, start, step=0.5, limit=40):
    t = start
    for _ in range(limit):
        t = round(t + step, 9)
        supervisor.tick(t)
        if supervisor.is_serving(name, t):
            return t
    raise AssertionError(f"{name} never recovered")


class TestQuarantineSurvivesRestart:
    """Restart must not resurrect quarantined paths: the supervisor replays
    its revocation ledger after restoring (warm) or re-beaconing (cold)."""

    def _crash_and_recover(self, warm):
        network = ScionNetwork(diamond_topology(), seed=7)
        supervisor = Supervisor(
            network, check_interval_s=0.5, checkpoint_interval_s=1.0,
            beacon_round_s=0.5, warm_restart=warm,
        )
        t0 = float(network.timestamp)
        supervisor.tick(t0)  # checkpoint taken BEFORE the revocation
        ia, ifid, key = _a_side(network)
        network.revoke_interface(ia, ifid, now=t0 + 0.1, ttl_s=600.0)
        assert all(
            key not in m.interfaces
            for m in network.paths(A, B, refresh=True)
        )
        supervisor.crash(Supervisor.CONTROL, t0 + 1.0)
        _run_until_serving(supervisor, Supervisor.CONTROL, t0 + 1.0)
        return network, supervisor, key

    def test_warm_restart_replays_pending_revocations(self):
        network, supervisor, key = self._crash_and_recover(warm=True)
        assert supervisor.stats.warm_restarts == 1
        assert supervisor.stats.revocations_replayed >= 1
        served = network.paths(A, B, refresh=True)
        assert served
        assert all(key not in m.interfaces for m in served)

    def test_cold_restart_replays_after_rebeaconing(self):
        # Cold restart re-beacons with post-revocation timestamps; the
        # replay runs after registration, so the quarantine still sticks.
        network, supervisor, key = self._crash_and_recover(warm=False)
        assert supervisor.stats.cold_restarts == 1
        assert supervisor.stats.revocations_replayed >= 1
        served = network.paths(A, B, refresh=True)
        assert served
        assert all(key not in m.interfaces for m in served)

    def test_expired_ledger_entries_are_not_replayed(self):
        network = ScionNetwork(diamond_topology(), seed=7)
        supervisor = Supervisor(network, check_interval_s=0.5)
        t0 = float(network.timestamp)
        ia, ifid, _ = _a_side(network)
        network.revoke_interface(ia, ifid, now=t0, ttl_s=1.0)
        assert supervisor.pending_revocations(t0 + 0.5)
        assert supervisor.pending_revocations(t0 + 2.0) == []

    def test_router_down_mark_lapses_with_the_revocation_ttl(self):
        """What the control plane serves again, the data plane forwards
        again: the router's down-mark dies with the revocation's TTL."""
        network = ScionNetwork(diamond_topology(), seed=7)
        t0 = float(network.timestamp)
        ia, ifid, key = _a_side(network)
        router = network.dataplane.routers[ia]
        known = len(network.paths(A, B, refresh=True))
        revocation = network.revoke_interface(ia, ifid, now=t0, ttl_s=1.0)
        assert router.down_interfaces == {ifid}
        revoked = [
            m for m in network.paths(A, B, refresh=True, now=t0 + 0.5)
            if key in m.interfaces
        ]
        assert revoked == []

        # An operator mark without a revocation has no TTL to lapse with.
        other_ifid = next(i for i in router.topology.interfaces if i != ifid)
        router.mark_interface_down(other_ifid)

        later = t0 + 5.0
        assert later > revocation.expires_at()
        served = network.paths(A, B, refresh=True, now=later)
        assert len(served) == known
        verdicts = [
            (key in meta.interfaces, network.probe(meta, now=later))
            for meta in served
        ]
        crossing = [result for crosses, result in verdicts if crosses]
        assert crossing and all(result.success for result in crossing)
        assert router.down_interfaces == {other_ifid}
        assert any(
            result.failure == "drop-interface-down" for _, result in verdicts
        )
