"""Differential tests: CRT signing, the memoising verifier and the pieced
signing message vs. the slow references in ``reference_rsa``.

``sign`` is CRT and must equal the plain ``pow(m, d, n)`` bit for bit —
every seeded digest in the repo hangs off those signatures.  ``verify``
memoises the public exponentiation only, so its verdict must be the same
cold, warm and un-memoised for valid, damaged, foreign, out-of-range and
ill-typed signatures.  ``Beacon._signing_message`` assembles the canonical
JSON from per-entry pieces and must produce the bytes the dict form did.
The last test pins, for PKI seeds 1-3, every key of the SCIERA world and
the signature of every registered segment entry.
"""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.sciera import build_sciera
from repro.scion.crypto import rsa
from repro.scion.crypto.rsa import RsaKeyPair, sign, verify
from repro.scion.network import ScionNetwork
from repro.scion.topology import random_topology
from tests.scion import reference_rsa

_KEYS = {}


def _key(seed: int, bits: int = 512) -> RsaKeyPair:
    """Keys are generated once per module: hypothesis only picks among them."""
    if (seed, bits) not in _KEYS:
        _KEYS[seed, bits] = RsaKeyPair.generate(bits=bits, seed=seed)
    return _KEYS[seed, bits]


key_seeds = st.integers(min_value=0, max_value=7)
key_bits = st.sampled_from((288, 320, 384, 512, 768))
messages = st.binary(min_size=0, max_size=512)


class TestCrtSigning:
    @given(key_seeds, key_bits, messages)
    @settings(max_examples=60, deadline=None)
    def test_crt_equals_plain_pow(self, seed, bits, message):
        key = _key(seed, bits)
        assert sign(key, message) == reference_rsa.sign(key, message)

    @given(key_seeds, key_bits)
    @settings(max_examples=20, deadline=None)
    def test_crt_parameters_describe_the_same_key(self, seed, bits):
        key = _key(seed, bits)
        assert key.p * key.q == key.n
        assert key.e * key.d % ((key.p - 1) * (key.q - 1)) == 1
        assert key.dp == key.d % (key.p - 1)
        assert key.dq == key.d % (key.q - 1)
        assert key.qinv * key.q % key.p == 1

    def test_modulus_too_small_for_sha256_raises_like_the_reference(self):
        key = _key(3, bits=256)
        with pytest.raises(ValueError):
            reference_rsa.sign(key, b"message")
        with pytest.raises(ValueError):
            sign(key, b"message")


def _verify_cold_warm_reference(key, message, signature):
    rsa._public_op.cache_clear()
    cold = verify(key, message, signature)
    warm = verify(key, message, signature)
    return cold, warm, reference_rsa.verify(key, message, signature)


class TestMemoisingVerify:
    @given(key_seeds, key_bits, messages, st.data())
    @settings(max_examples=60, deadline=None)
    def test_warm_equals_cold_equals_reference(self, seed, bits, message, data):
        key = _key(seed, bits)
        good = sign(key, message)
        other = _key(seed + 1, bits)
        flipped = good ^ (1 << data.draw(st.integers(0, bits - 2)))
        assert _verify_cold_warm_reference(key.public, message, good) == (
            True, True, True
        )
        for public, signature in [
            (key.public, flipped),
            (other.public, good),
            (key.public, 0),
            (key.public, -good),
            (key.public, key.n),
            (key.public, good + key.n),
            (key.public, None),
            (key.public, str(good)),
            (key.public, float(good % 2 ** 52)),
            (key.public, good.to_bytes(bits // 8, "big")),
            (key.public, True),
        ]:
            assert _verify_cold_warm_reference(public, message, signature) == (
                False, False, False
            ), signature

    @given(key_seeds, messages, messages)
    @settings(max_examples=30, deadline=None)
    def test_a_warm_memo_never_carries_a_verdict_to_another_message(
        self, seed, message, other_message
    ):
        key = _key(seed)
        signature = sign(key, message)
        assert verify(key.public, message, signature)
        hits = rsa._public_op.cache_info().hits
        assert verify(key.public, other_message, signature) == (
            other_message == message
        )
        assert rsa._public_op.cache_info().hits == hits + 1

    def test_memo_is_bounded(self):
        key = _key(0)
        bound = rsa._public_op.cache_info().maxsize
        assert bound is not None
        for signature in range(2, bound + 100):
            verify(key.public, b"message", signature)
        assert rsa._public_op.cache_info().currsize == bound


def _stored_beacons(network: ScionNetwork):
    for stores in (network.beaconing.core_stores, network.beaconing.down_stores):
        for ia in sorted(stores):
            yield from stores[ia].all_beacons()


class TestSigningMessage:
    def _assert_every_index_matches(self, network):
        checked = 0
        for beacon in _stored_beacons(network):
            for index in range(len(beacon)):
                assert beacon._signing_message(index) == (
                    reference_rsa.signing_message(beacon, index)
                )
                checked += 1
        assert checked > 100

    def test_sciera_stores(self, sciera_world):
        self._assert_every_index_matches(sciera_world.network)

    def test_random_topology_stores(self):
        self._assert_every_index_matches(
            ScionNetwork(random_topology(16, seed=3), seed=1, verify_beacons=False)
        )

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_forged_fields_serialise_as_the_dict_form_did(
        self, diamond_network, data
    ):
        """Whatever a forger puts where an int belongs, the bytes agree."""
        junk = st.one_of(
            st.integers(), st.booleans(), st.none(), st.text(max_size=8),
            st.floats(allow_nan=False),
            st.dictionaries(st.sampled_from(("a", "signature", "z")),
                            st.integers(), max_size=2),
        )
        beacon = data.draw(st.sampled_from(list(_stored_beacons(diamond_network))))
        entries = tuple(
            dataclasses.replace(entry, signature=data.draw(junk))
            for entry in beacon.entries
        )
        forged = dataclasses.replace(
            beacon, entries=entries, timestamp=data.draw(junk)
        )
        for index in range(len(forged)):
            assert forged._signing_message(index) == (
                reference_rsa.signing_message(forged, index)
            )


def _registered_segments(network: ScionNetwork):
    for bucket in network.registry._down.values():
        yield from bucket.values()
    for bucket in network.registry._core.values():
        yield from bucket.values()
    for ia in sorted(network.services):
        yield from network.services[ia].path_server.up_segments


#: PKI seed -> (digest of every key's (n, e, d), digest of every registered
#: segment entry's signature), recorded with the plain ``pow(m, d, n)`` signer.
WORLD_PINS = {
    1: ("03ead35189cba2b6", "1bd77da81441dea7"),
    2: ("61ed229b0f71cb52", "e42dc8a0db515130"),
    3: ("56a6bce923760691", "090b493731fd68f1"),
}


@pytest.mark.parametrize("seed", sorted(WORLD_PINS))
def test_world_keys_and_registered_signatures_are_the_parents(seed, sciera_world):
    network = (
        sciera_world if seed == 1 else build_sciera(seed=seed, with_hosts=False)
    ).network
    keys = hashlib.sha256()
    for ia in sorted(network.signing_keys):
        key = network.signing_keys[ia]
        keys.update(f"{ia}:{key.n}:{key.e}:{key.d}|".encode())
    for isd, trust in sorted(network.isd_trust.items()):
        for key in (trust.root_key, trust.ca_key):
            keys.update(f"{isd}:{key.n}:{key.e}:{key.d}|".encode())
    signatures = hashlib.sha256()
    expected = {}  # the reference signer is deterministic: sign each message once
    for segment in _registered_segments(network):
        for index, entry in enumerate(segment.entries):
            message = reference_rsa.signing_message(segment, index)
            if (entry.ia, message) not in expected:
                expected[entry.ia, message] = reference_rsa.sign(
                    network.signing_keys[entry.ia], message
                )
            assert entry.signature == expected[entry.ia, message]
            signatures.update(f"{entry.ia}:{entry.signature}|".encode())
    assert (keys.hexdigest()[:16], signatures.hexdigest()[:16]) == WORLD_PINS[seed]
