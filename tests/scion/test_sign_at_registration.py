"""Beacon stores keep the terminal entry unsigned; registration signs it.

A control service stores a PCB as received plus its own terminating entry,
and signs that entry only for the segments it registers
(``BeaconingEngine.terminate``).  The registered form of every stored beacon
must be the signed beacon the store used to hold, and beaconing must sign
once per beacon sent plus once per registered segment — not once per beacon
received.
"""

import hashlib

from repro.core.supervisor import Supervisor
from repro.scion.addr import IA
from repro.scion.control import segments
from repro.scion.control.segments import Beacon
from repro.scion.crypto.encoding import canonical_bytes
from repro.scion.network import ScionNetwork
from repro.scion.topology import random_topology
from tests.conftest import make_diamond_topology

#: sha256 of ``repr(b)`` over every beacon in the SCIERA (PKI seed 1) stores,
#: in store order, recorded while the stores held signed terminal entries.
SIGNED_STORES_SHA256 = (
    "967c23d1e6766bb6f645ddc46b63c6ce01a17f908acba90967e148a8f3080263"
)


def _stored(network):
    engine = network.beaconing
    for stores in (engine.core_stores, engine.down_stores):
        for ia in sorted(stores):
            yield from stores[ia].all_beacons()


def _registered(network):
    for table in (network.registry._down, network.registry._core):
        for bucket in table.values():
            yield from bucket.values()
    for ia in sorted(network.services):
        yield from network.services[ia].path_server.up_segments


def test_terminated_stores_equal_the_signed_stores(sciera_world):
    network = sciera_world.network
    digest = hashlib.sha256()
    for beacon in _stored(network):
        digest.update(repr(network.beaconing.terminate(beacon)).encode())
    assert digest.hexdigest() == SIGNED_STORES_SHA256


def test_stored_terminal_is_unsigned_and_stored_prefix_verifies(sciera_world):
    network = sciera_world.network
    resolver = Beacon.make_validating_key_resolver(
        network.cert_chain, network.trc_for, network.timestamp
    )
    checked = 0
    for beacon in _stored(network):
        assert beacon.entries[-1].signature == 0
        Beacon(beacon.timestamp, beacon.seg_id, beacon.entries[:-1]).verify(
            resolver
        )
        checked += 1
    assert checked > 1000


def test_terminate_signs_only_the_last_entry_once(sciera_world):
    engine = sciera_world.network.beaconing
    for beacon in _stored(sciera_world.network):
        signed = engine.terminate(beacon)
        assert engine.terminate(beacon) is signed
        assert signed.entries[:-1] == beacon.entries[:-1]
        assert signed.entries[-1].signature != 0
        assert signed.entries[-1].payload() == beacon.entries[-1].payload()
        assert signed.interface_fingerprint() == beacon.interface_fingerprint()


def test_every_registered_segment_is_a_terminated_stored_beacon(sciera_world):
    network = sciera_world.network
    terminated = {id(network.beaconing.terminate(b)) for b in _stored(network)}
    registered = list(_registered(network))
    assert registered
    assert all(id(segment) in terminated for segment in registered)


def test_entry_bytes_are_the_canonical_payload(sciera_world):
    for segment in _registered(sciera_world.network):
        for entry in segment.entries:
            assert entry.payload_bytes() == canonical_bytes(entry.payload())
            assert entry.signed_bytes() == canonical_bytes(
                {**entry.payload(), "signature": entry.signature}
            )


#: ``rsa.sign`` calls of one ``run_beaconing()`` on ``random_topology(16,
#: seed=3)`` while every received beacon got a signed terminal entry.
SIGNS_WHEN_SIGNED_ON_RECEIPT = 178


def test_sign_budget_is_sent_plus_registered(monkeypatch):
    network = ScionNetwork(random_topology(16, seed=3), seed=7)
    calls = []
    real_sign = segments.sign

    def counting_sign(key, message):
        calls.append(message)
        return real_sign(key, message)

    monkeypatch.setattr(segments, "sign", counting_sign)
    engine = network.run_beaconing()
    registered = {id(segment) for segment in _registered(network)}
    assert len(calls) == engine.stats.beacons_sent + len(registered)
    assert (engine.stats.beacons_sent, len(registered)) == (89, 75)
    assert len(calls) < SIGNS_WHEN_SIGNED_ON_RECEIPT


def test_cold_path_server_restart_registers_the_same_segments():
    network = ScionNetwork(make_diamond_topology(), seed=7)
    leaf = IA.parse("71-100")
    path_server = network.services[leaf].path_server
    before = list(path_server.up_segments)
    assert before
    supervisor = Supervisor(network, warm_restart=False)
    t0 = float(network.timestamp)
    supervisor.tick(t0)
    supervisor.crash(f"ps:{leaf}", t0 + 1.0)
    assert path_server.up_segments == []
    for step in range(1, 40):
        supervisor.tick(t0 + 1.0 + step * 0.5)
        if supervisor.is_serving(f"ps:{leaf}", t0 + 1.0 + step * 0.5):
            break
    assert supervisor.stats.cold_restarts == 1
    assert [id(s) for s in path_server.up_segments] == [id(s) for s in before]
