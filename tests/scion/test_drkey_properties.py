"""Property tests for the DRKey hierarchy's security contract.

Three claims back the LightningFilter's line-rate authentication and the
adversary experiment's wrong-epoch attack:

* **fast == slow**: the provider's on-the-fly derivation and the client's
  fetched-then-derived keys agree bitwise, for any master secret, epoch
  length, and time — including across epoch rolls;
* **host binding**: keys for distinct hosts never collide, so a stolen
  host key authenticates exactly one host;
* **epoch binding**: a tag stamped under one epoch's key *never* verifies
  in a different epoch — wrong-epoch stamping always fails, which is what
  bounds the blast radius of a compromised key without any revocation.
"""

from hypothesis import given, settings, strategies as st

from repro.scion.addr import IA
from repro.scion.crypto.drkey import (
    DEFAULT_EPOCH_S,
    DrkeyClient,
    DrkeyProvider,
)
from repro.scion.crypto.keys import SymmetricKey
from repro.sciera.lightningfilter import LightningFilter

master_bytes = st.binary(min_size=16, max_size=32)
epoch_lengths = st.sampled_from([60.0, 3600.0, DEFAULT_EPOCH_S])
times = st.floats(min_value=0.0, max_value=1e9,
                  allow_nan=False, allow_infinity=False)
hosts = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1, max_size=12,
)
ias = st.sampled_from(["71-1:0:1", "71-2:0:9", "64-0:0:c0ffee"])


class TestFastSideEqualsSlowSide:
    @given(raw=master_bytes, epoch_s=epoch_lengths, t=times, remote=ias)
    @settings(max_examples=150, deadline=None)
    def test_level1_agrees(self, raw, epoch_s, t, remote):
        provider = DrkeyProvider("71-9:0:a", SymmetricKey(raw), epoch_s)
        client = DrkeyClient(remote, epoch_s)
        assert client.fetch(provider, t) == provider.level1_key(remote, t)

    @given(raw=master_bytes, epoch_s=epoch_lengths, t=times,
           remote=ias, host=hosts)
    @settings(max_examples=150, deadline=None)
    def test_host_keys_agree_across_epochs(
        self, raw, epoch_s, t, remote, host
    ):
        provider = DrkeyProvider("71-9:0:a", SymmetricKey(raw), epoch_s)
        client = DrkeyClient(remote, epoch_s)
        # Fetch in this epoch AND the next: the roll must not desync.
        for when in (t, t + epoch_s):
            client.fetch(provider, when)
            assert (
                client.host_key(provider.local_ia, host, when)
                == provider.host_key(remote, host, when)
            )

    @given(raw=master_bytes, epoch_s=epoch_lengths, t=times, remote=ias)
    @settings(max_examples=100, deadline=None)
    def test_epoch_roll_rotates_the_key(self, raw, epoch_s, t, remote):
        provider = DrkeyProvider("71-9:0:a", SymmetricKey(raw), epoch_s)
        assert (
            provider.level1_key(remote, t)
            != provider.level1_key(remote, t + epoch_s)
        )


class TestHostBinding:
    @given(raw=master_bytes, t=times, remote=ias, h1=hosts, h2=hosts)
    @settings(max_examples=150, deadline=None)
    def test_distinct_hosts_distinct_keys(self, raw, t, remote, h1, h2):
        if h1 == h2:
            return
        provider = DrkeyProvider("71-9:0:a", SymmetricKey(raw))
        assert (
            provider.host_key(remote, h1, t)
            != provider.host_key(remote, h2, t)
        )


class TestWrongEpochAlwaysFails:
    @given(raw=master_bytes, epoch_s=epoch_lengths, t=times,
           remote=ias, payload=st.binary(max_size=64))
    @settings(max_examples=150, deadline=None)
    def test_stale_tag_never_verifies(
        self, raw, epoch_s, t, remote, payload
    ):
        lf = LightningFilter(IA(71, 9), SymmetricKey(raw))
        lf._drkey.epoch_s = epoch_s
        stamped_at = t + epoch_s          # one epoch in the future of t
        tag = lf.compute_auth_tag(remote, payload, stamped_at)
        assert lf.verify(remote, payload, tag, stamped_at)
        assert not lf.verify(remote, payload, tag, t)
        assert not lf.process(remote, payload, tag, t)
        assert lf.stats.rejected_auth == 1
