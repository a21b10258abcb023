"""Property tests: the memoized MAC path is bitwise-identical to the
uncached reference :func:`hop_mac`, cold (first call, LRU miss) and warm
(second call, LRU / per-hop-field memo hit), and the hot-path correctness
fixes hold for arbitrary inputs.

These back the kernel perf pass's central claim — every cache is a pure
memo, so seeded experiment digests cannot change — with hypothesis-driven
evidence rather than a handful of examples.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.scion.addr import IA
from repro.scion.crypto import mac as mac_mod
from repro.scion.crypto.keys import SymmetricKey
from repro.scion.crypto.mac import (
    MAC_LEN,
    cached_hop_mac,
    chain_beta,
    clear_mac_cache,
    hop_mac,
    verify_hop_mac,
)
from repro.scion.path import HopField

key_bytes = st.binary(min_size=16, max_size=32)
u32 = st.integers(min_value=0, max_value=(1 << 32) - 1)
u16 = st.integers(min_value=0, max_value=(1 << 16) - 1)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_mac_cache()
    yield
    clear_mac_cache()


class TestMemoizedMacAgreesWithUncached:
    @given(raw=key_bytes, ts=u32, exp=u32, ing=u16, eg=u16, beta=u16)
    @settings(max_examples=200, deadline=None)
    def test_cached_equals_uncached(self, raw, ts, exp, ing, eg, beta):
        key = SymmetricKey(raw)
        uncached = hop_mac(key, ts, exp, ing, eg, beta)
        assert cached_hop_mac(key, ts, exp, ing, eg, beta) == uncached
        # Second call is a cache hit; still identical.
        assert cached_hop_mac(key, ts, exp, ing, eg, beta) == uncached

    @given(raw=key_bytes, ts=u32, exp=u32, ing=u16, eg=u16, beta=u16)
    @settings(max_examples=200, deadline=None)
    def test_verify_accepts_genuine_mac_both_modes(
        self, raw, ts, exp, ing, eg, beta
    ):
        """Both modes: a cold memo (miss) and a warm one (hit)."""
        key = SymmetricKey(raw)
        genuine = hop_mac(key, ts, exp, ing, eg, beta)
        clear_mac_cache()
        assert verify_hop_mac(key, ts, exp, ing, eg, beta, genuine)
        assert verify_hop_mac(key, ts, exp, ing, eg, beta, genuine)
        info = mac_mod.mac_cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @given(raw=key_bytes, ts=u32, exp=u32, ing=u16, eg=u16, beta=u16,
           position=st.integers(min_value=0, max_value=MAC_LEN - 1))
    @settings(max_examples=100, deadline=None)
    def test_verify_rejects_flipped_byte(
        self, raw, ts, exp, ing, eg, beta, position
    ):
        key = SymmetricKey(raw)
        genuine = bytearray(hop_mac(key, ts, exp, ing, eg, beta))
        genuine[position] ^= 0x01
        assert not verify_hop_mac(key, ts, exp, ing, eg, beta, bytes(genuine))
        assert not verify_hop_mac(key, ts, exp, ing, eg, beta, bytes(genuine))

    @given(raw=key_bytes, ts=u32, exp=u32, ing=u16, eg=u16, beta=u16,
           position=st.integers(min_value=0, max_value=MAC_LEN - 1),
           ts_delta=st.integers(min_value=1, max_value=1000))
    @settings(max_examples=100, deadline=None)
    def test_hopfield_verify_memo_agrees_with_uncached(
        self, raw, ts, exp, ing, eg, beta, position, ts_delta
    ):
        """First call == second call == ``hop_mac(...) == hop.mac`` for a
        valid hop, a flipped MAC byte, the wrong key and the wrong
        timestamp — the wrong-key / wrong-timestamp calls follow a
        memoized valid verdict on the same instance and must not be
        served it."""
        key = SymmetricKey(raw)
        other = SymmetricKey(b"another-key-another-key-another!")
        other_ts = (ts + ts_delta) % (1 << 32)
        valid = HopField.create(IA.parse("71-225"), key, ts, ing, eg, beta,
                                expiry=exp)
        flipped_mac = bytearray(valid.mac)
        flipped_mac[position] ^= 0x01
        flipped = dataclasses.replace(valid, mac=bytes(flipped_mac))
        for hop, with_key, at_ts in (
            (valid, key, ts),
            (flipped, key, ts),
            (valid, other, ts),
            (valid, key, other_ts),
        ):
            expected = (
                hop_mac(with_key, at_ts, exp, ing, eg, beta) == hop.mac
            )
            assert hop.verify(with_key, at_ts) == expected   # cold
            assert hop.verify(with_key, at_ts) == expected   # memoized
        assert valid.verify(key, ts)
        assert not flipped.verify(key, ts)


class TestVerifyLengthShortCircuit:
    @given(raw=key_bytes, ts=u32, exp=u32, ing=u16, eg=u16, beta=u16,
           length=st.integers(min_value=0, max_value=12))
    @settings(max_examples=100, deadline=None)
    def test_wrong_length_rejected_without_mac_computation(
        self, raw, ts, exp, ing, eg, beta, length
    ):
        if length == MAC_LEN:
            length += 1
        key = SymmetricKey(raw)
        genuine = hop_mac(key, ts, exp, ing, eg, beta)
        candidate = (genuine * 3)[:length]  # right prefix, wrong length
        clear_mac_cache()
        assert not verify_hop_mac(key, ts, exp, ing, eg, beta, candidate)
        # The length check short-circuited: nothing was computed or cached.
        assert mac_mod.mac_cache_info().misses == 0

    def test_out_of_range_inputs_rejected_not_raised(self):
        key = SymmetricKey(b"0123456789abcdef")
        assert not verify_hop_mac(key, 1 << 32, 0, 0, 0, 0, b"\x00" * MAC_LEN)


class TestChainBeta:
    @given(beta=u16, mac=st.binary(min_size=2, max_size=MAC_LEN))
    @settings(max_examples=100, deadline=None)
    def test_chain_beta_stays_16_bit_and_is_involutive(self, beta, mac):
        advanced = chain_beta(beta, mac)
        assert 0 <= advanced <= 0xFFFF
        assert chain_beta(advanced, mac) == beta  # XOR is an involution

    @given(mac=st.binary(min_size=0, max_size=1))
    @settings(max_examples=20, deadline=None)
    def test_too_short_mac_error_names_mac_len(self, mac):
        with pytest.raises(ValueError, match="MAC_LEN"):
            chain_beta(0, mac)
