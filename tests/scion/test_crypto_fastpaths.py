"""Differential tests: keygen's one-``gcd`` trial division and the shared
canonical-JSON encoder vs. the forms they replaced.

The primality test decides every key through the RNG stream it consumes, so
the fast form must give the same verdict *and* leave the RNG in the same
state as the loop in ``reference_rsa``.  ``canonical_bytes`` keeps one
``JSONEncoder`` instead of building one per ``json.dumps`` call; its output
must be the ``json.dumps`` output for anything a forger can put in a signed
payload.
"""

import json
import random

from hypothesis import given, settings, strategies as st

from repro.scion.crypto import rsa
from repro.scion.crypto.encoding import canonical_bytes
from tests.scion import reference_rsa


def _same_verdict_and_rng_state(n: int, seed: int) -> None:
    fast, slow = random.Random(seed), random.Random(seed)
    assert rsa._is_probable_prime(n, fast) == reference_rsa.is_probable_prime(
        n, slow
    ), n
    assert fast.getstate() == slow.getstate(), n


class TestTrialDivision:
    def test_every_small_int(self):
        for n in range(-2, 2000):
            _same_verdict_and_rng_state(n, seed=n)

    @given(st.integers(min_value=64, max_value=512), st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_odd_ints(self, bits, data):
        n = data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) | 1
        _same_verdict_and_rng_state(n, seed=data.draw(st.integers(0, 2**32)))

    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=10, deadline=None)
    def test_key_primes_and_their_products(self, seed):
        """Miller-Rabin runs all its rounds on a prime and stops early on a
        product of two large primes; both must consume the same RNG draws."""
        key = rsa.RsaKeyPair.generate(bits=256, seed=seed)
        for n in (key.p, key.q, key.n):
            _same_verdict_and_rng_state(n, seed)


_scalars = st.one_of(
    st.integers(), st.booleans(), st.none(), st.text(max_size=8), st.floats(),
)
_payloads = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(
            st.one_of(st.sampled_from(("a", "signature", "z")), st.text(max_size=4)),
            inner, max_size=4,
        ),
    ),
    max_leaves=12,
)


@given(_payloads)
@settings(max_examples=300, deadline=None)
def test_shared_encoder_equals_json_dumps(payload):
    assert canonical_bytes(payload) == json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")
