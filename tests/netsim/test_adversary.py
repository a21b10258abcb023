"""The Byzantine adversary vs the hardened stack: every attack must fail
closed AND be detected (attributed in security counters and the event
timeline), and the same attack must succeed once the verification gates
are patched open (``tests/reference_arms.gates_open``; the shipped classes
have no switch for it) — proof the gate is what stops it.
"""

import pytest

from repro.core.overload import OverloadGuard
from repro.endhost.daemon import Daemon
from repro.netsim.adversary import ByzantineAdversary
from repro.netsim.crucible import TOPOLOGIES, CrucibleWorld, generate_schedule
from repro.obs import Telemetry
from repro.scion.crypto.keys import SymmetricKey
from repro.scion.network import ScionNetwork
from repro.sciera.lightningfilter import LightningFilter
from tests.reference_arms import gates_open, unbounded_guard


@pytest.fixture
def world():
    telemetry = Telemetry()
    network = ScionNetwork(
        TOPOLOGIES["mesh5"](0), seed=0, telemetry=telemetry
    )
    adversary = ByzantineAdversary(
        network, seed=7, event_log=telemetry.events
    )
    return network, adversary, telemetry


def _leaves(network):
    return sorted(
        ia for ia, topo in network.topology.ases.items() if not topo.is_core
    )


def _core_interface(network):
    core = network.topology.core_ases()[0]
    ifid = sorted(network.topology.get(core).interfaces)[0]
    return core, ifid


class TestBeaconAttacks:
    def test_forged_beacon_rejected_and_detected(self, world):
        network, adversary, _ = world
        victim = _leaves(network)[0]
        before = network.beaconing.stats.beacons_rejected_invalid
        outcome = adversary.forge_beacon(victim, float(network.timestamp))
        assert not outcome.succeeded
        assert outcome.detected
        assert network.beaconing.stats.beacons_rejected_invalid > before
        # The forged signature never reaches any store.
        assert adversary.forged_beacon_signatures

    def test_replayed_beacon_rejected_as_stale(self, world):
        network, adversary, _ = world
        victim = _leaves(network)[0]
        before = network.beaconing.stats.beacons_rejected_replayed
        outcome = adversary.replay_beacon(victim, float(network.timestamp))
        assert not outcome.succeeded
        assert outcome.detected
        assert network.beaconing.stats.beacons_rejected_replayed > before

    def test_crucible_world_rejects_forged_beacons(self):
        world = CrucibleWorld(
            generate_schedule(seed=3, topology="mesh5", n_faults=2)
        )
        t0 = float(world.network.timestamp)
        first_leaf = _leaves(world.network)[0]
        outcome = world.adversary.forge_beacon(first_leaf, t0 + 0.05)
        assert outcome.succeeded is False
        assert outcome.detected is True

    def test_forgery_succeeds_with_verification_off(self, world):
        network, adversary, _ = world
        with gates_open(network):
            outcome = adversary.forge_beacon(
                _leaves(network)[0], float(network.timestamp)
            )
        assert outcome.succeeded


class TestRevocationAttacks:
    def test_forged_revocation_rejected_by_server_and_daemon(self, world):
        network, adversary, telemetry = world
        core, ifid = _core_interface(network)
        daemon = Daemon(network, _leaves(network)[0], telemetry=telemetry)
        outcome = adversary.forge_revocation(
            core, ifid, float(network.timestamp), daemon=daemon
        )
        assert not outcome.succeeded
        assert outcome.detected
        assert daemon.stats.revocations_rejected > 0
        assert not network.registry.active_revocations()

    def test_replayed_revocation_ignored(self, world):
        network, adversary, _ = world
        core, ifid = _core_interface(network)
        outcome = adversary.replay_revocation(
            core, ifid, float(network.timestamp)
        )
        assert not outcome.succeeded
        assert outcome.detected
        assert not network.registry.active_revocations()

    def test_forgery_succeeds_against_trusting_server(self, world):
        network, adversary, _ = world
        core, ifid = _core_interface(network)
        with gates_open(network):
            outcome = adversary.forge_revocation(
                core, ifid, float(network.timestamp)
            )
        assert outcome.succeeded
        assert network.registry.active_revocations()


class TestDataplaneTampering:
    def test_mac_flip_dropped(self, world):
        network, adversary, _ = world
        src, dst = _leaves(network)[0], _leaves(network)[-1]
        outcome = adversary.tamper_packet(
            src, dst, float(network.timestamp), mode="mac"
        )
        assert not outcome.succeeded
        assert outcome.detected

    def test_inflated_lifetime_dropped(self, world):
        network, adversary, _ = world
        src, dst = _leaves(network)[0], _leaves(network)[-1]
        outcome = adversary.tamper_packet(
            src, dst, float(network.timestamp), mode="inflate"
        )
        assert not outcome.succeeded
        assert outcome.detected
        assert "drop-inflated-hop" in outcome.detail

    def test_tamper_succeeds_without_mac_verification(self, world):
        network, adversary, _ = world
        src, dst = _leaves(network)[0], _leaves(network)[-1]
        now = float(network.timestamp)
        for mode in ("mac", "inflate"):
            with gates_open(network):
                outcome = adversary.tamper_packet(src, dst, now, mode=mode)
            assert outcome.succeeded, mode
            # ... and the check is back the moment the block ends.
            assert not adversary.tamper_packet(
                src, dst, now, mode=mode
            ).succeeded, mode


class TestFilterAndFloodAttacks:
    def _filter(self, network, telemetry):
        return LightningFilter(
            _leaves(network)[-1], SymmetricKey(b"k" * 32),
            telemetry=telemetry,
        )

    def test_wrong_epoch_stamp_rejected(self, world):
        network, adversary, telemetry = world
        lf = self._filter(network, telemetry)
        outcome = adversary.wrong_epoch_stamp(
            lf, "71-1:0:1", float(network.timestamp)
        )
        assert not outcome.succeeded
        assert outcome.detected
        assert lf.stats.rejected_auth > 0

    def test_spoofed_flood_rejected(self, world):
        network, adversary, telemetry = world
        lf = self._filter(network, telemetry)
        outcome = adversary.flood_filter(lf, float(network.timestamp))
        assert not outcome.succeeded
        assert outcome.detected
        assert lf.stats.accepted == 0

    def test_flood_succeeds_with_auth_off(self, world):
        network, adversary, telemetry = world
        lf = self._filter(network, telemetry)
        with gates_open(network):
            outcome = adversary.flood_filter(lf, float(network.timestamp))
        assert outcome.succeeded

    def test_guard_sheds_flood_but_spares_critical(self, world):
        network, adversary, telemetry = world
        guard = OverloadGuard(
            service_time_s=0.002, name="ps:test", critical_priority=0,
            telemetry=telemetry,
        )
        now = float(network.timestamp)
        outcome = adversary.flood_guard(
            guard, now, target="ps:test", requests=400, duration_s=0.5,
            priority=2,
        )
        assert not outcome.succeeded
        assert outcome.detected
        # Critical-priority honest work still gets through afterwards.
        assert guard.offer(now + 2.0, priority=0).admitted

    def test_no_guard_means_flood_succeeds(self, world):
        """No admission control worth the name: an unbounded guard."""
        network, adversary, _ = world
        outcome = adversary.flood_guard(
            unbounded_guard(0.002), float(network.timestamp),
            target="ps:naive",
        )
        assert outcome.succeeded
        assert not outcome.detected


class TestDeterminismAndAttribution:
    def _campaign(self, seed):
        telemetry = Telemetry()
        network = ScionNetwork(
            TOPOLOGIES["mesh5"](0), seed=0, telemetry=telemetry
        )
        adversary = ByzantineAdversary(
            network, seed=seed, event_log=telemetry.events
        )
        now = float(network.timestamp)
        victim = _leaves(network)[0]
        core, ifid = _core_interface(network)
        adversary.forge_beacon(victim, now)
        adversary.replay_beacon(victim, now + 0.1)
        adversary.forge_revocation(core, ifid, now + 0.2)
        adversary.tamper_packet(victim, _leaves(network)[-1], now + 0.3)
        return adversary, telemetry

    def test_event_digest_is_deterministic(self):
        first, _ = self._campaign(3)
        second, _ = self._campaign(3)
        assert first.event_digest() == second.event_digest()
        assert len(first.outcomes) == len(second.outcomes)

    def test_different_seed_different_rogue_identity(self):
        first, _ = self._campaign(3)
        second, _ = self._campaign(4)
        # Different rogue identities forge different material.
        assert (
            first.forged_beacon_signatures
            != second.forged_beacon_signatures
        )

    def test_attacks_attributed_in_event_log(self):
        adversary, telemetry = self._campaign(3)
        sources = {event.source for event in telemetry.events.events}
        assert "adversary" in sources
        kinds = {
            event.kind for event in telemetry.events.events
            if event.source == "adversary"
        }
        assert "forge-beacon" in kinds
        assert "forge-revocation" in kinds
