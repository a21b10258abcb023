"""Tests for the crypto substrate: RSA, symmetric keys, hop MACs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.scion.crypto.keys import SymmetricKey, derive_forwarding_key
from repro.scion.crypto.mac import (
    MAC_LEN,
    chain_beta,
    hop_mac,
    verify_hop_mac,
)
from repro.scion.crypto import rsa
from repro.scion.crypto.rsa import RsaKeyPair, sign, verify


@pytest.fixture(scope="module")
def keypair():
    return RsaKeyPair.generate(seed=11)


class TestRsa:
    def test_sign_verify_round_trip(self, keypair):
        message = b"path segment payload"
        signature = sign(keypair, message)
        assert verify(keypair.public, message, signature)

    def test_tampered_message_rejected(self, keypair):
        signature = sign(keypair, b"original")
        assert not verify(keypair.public, b"tampered", signature)

    def test_wrong_key_rejected(self, keypair):
        other = RsaKeyPair.generate(seed=12)
        signature = sign(keypair, b"message")
        assert not verify(other.public, b"message", signature)

    def test_garbage_signature_rejected(self, keypair):
        assert not verify(keypair.public, b"message", 12345)
        assert not verify(keypair.public, b"message", 0)
        assert not verify(keypair.public, b"message", keypair.n + 5)

    def test_bool_is_not_a_signature(self, keypair):
        # isinstance(True, int): the range check alone lets it through to
        # the exponentiation.
        exponentiations = rsa._public_op.cache_info()
        assert not verify(keypair.public, b"message", True)
        assert not verify(keypair.public, b"message", False)
        assert rsa._public_op.cache_info() == exponentiations

    def test_deterministic_keygen(self):
        a = RsaKeyPair.generate(seed=99)
        b = RsaKeyPair.generate(seed=99)
        assert (a.n, a.e, a.d) == (b.n, b.e, b.d)
        c = RsaKeyPair.generate(seed=100)
        assert c.n != a.n

    def test_modulus_size(self):
        key = RsaKeyPair.generate(bits=512, seed=1)
        assert 500 <= key.n.bit_length() <= 512

    def test_tiny_modulus_rejected(self):
        with pytest.raises(ValueError):
            RsaKeyPair.generate(bits=64)

    def test_fingerprint_stable_and_distinct(self, keypair):
        other = RsaKeyPair.generate(seed=13)
        assert keypair.public.fingerprint() == keypair.public.fingerprint()
        assert keypair.public.fingerprint() != other.public.fingerprint()

    @given(st.binary(min_size=0, max_size=256))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_arbitrary_messages(self, message):
        key = RsaKeyPair.generate(seed=7)
        assert verify(key.public, message, sign(key, message))


class TestSymmetricKeys:
    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            SymmetricKey(b"short")

    def test_derive_forwarding_key_distinct_per_as(self):
        master = b"m" * 32
        k1 = derive_forwarding_key(master, "71-1")
        k2 = derive_forwarding_key(master, "71-2")
        assert k1.value != k2.value
        assert k1.value == derive_forwarding_key(master, "71-1").value

    def test_short_master_rejected(self):
        with pytest.raises(ValueError):
            derive_forwarding_key(b"x", "71-1")

    def test_labelled_derivation(self):
        key = SymmetricKey(b"k" * 32)
        assert key.derive("hopfield").value != key.derive("drkey").value


class TestHopMac:
    def setup_method(self):
        self.key = SymmetricKey(b"k" * 32)

    def test_mac_length(self):
        mac = hop_mac(self.key, 1000, 2000, 1, 2, 7)
        assert len(mac) == MAC_LEN

    def test_verify_accepts_valid(self):
        mac = hop_mac(self.key, 1000, 2000, 1, 2, 7)
        assert verify_hop_mac(self.key, 1000, 2000, 1, 2, 7, mac)

    @pytest.mark.parametrize(
        "field,value",
        [("timestamp", 1001), ("expiry", 2001), ("ingress", 3),
         ("egress", 3), ("beta", 8)],
    )
    def test_any_field_change_invalidates(self, field, value):
        args = dict(timestamp=1000, expiry=2000, ingress=1, egress=2, beta=7)
        mac = hop_mac(self.key, *args.values())
        args[field] = value
        assert not verify_hop_mac(self.key, *args.values(), mac)

    def test_wrong_key_rejected(self):
        other = SymmetricKey(b"x" * 32)
        mac = hop_mac(self.key, 1000, 2000, 1, 2, 7)
        assert not verify_hop_mac(other, 1000, 2000, 1, 2, 7, mac)

    def test_out_of_range_inputs_rejected(self):
        with pytest.raises(ValueError):
            hop_mac(self.key, -1, 2000, 1, 2, 7)
        with pytest.raises(ValueError):
            hop_mac(self.key, 1000, 2000, 1 << 16, 2, 7)
        # verify never raises on bad input — it just fails.
        assert not verify_hop_mac(self.key, -1, 2000, 1, 2, 7, b"\x00" * MAC_LEN)

    def test_chain_beta_changes_and_stays_16bit(self):
        mac = hop_mac(self.key, 1000, 2000, 1, 2, 7)
        beta2 = chain_beta(7, mac)
        assert 0 <= beta2 < 1 << 16
        with pytest.raises(ValueError):
            chain_beta(7, b"\x01")

    @given(
        ts=st.integers(0, 2**32 - 1), exp=st.integers(0, 2**32 - 1),
        ig=st.integers(0, 2**16 - 1), eg=st.integers(0, 2**16 - 1),
        beta=st.integers(0, 2**16 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_mac_round_trip_property(self, ts, exp, ig, eg, beta):
        key = SymmetricKey(b"p" * 32)
        mac = hop_mac(key, ts, exp, ig, eg, beta)
        assert verify_hop_mac(key, ts, exp, ig, eg, beta, mac)
