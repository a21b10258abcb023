"""Property-based SCMP wire-format tests.

A decoder can be handed arbitrary bytes, so the wire format
needs stronger guarantees than the fixed cases in ``test_scmp.py``:
encode/decode must round-trip for *every* valid message, every truncation
or padding must raise :class:`ScmpDecodeError`, and nothing that decodes
may re-encode to different bytes (no silent normalization).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.scion.scmp import ScmpMessage, ScmpType, interface_down
from tests.scion.reference_codec import ScmpDecodeError, decode_scmp, encode_scmp

messages = st.builds(
    ScmpMessage,
    scmp_type=st.sampled_from(ScmpType),
    code=st.integers(0, 255),
    identifier=st.integers(0, 0xFFFF),
    sequence=st.integers(0, 0xFFFF),
    info=st.integers(0, 2**64 - 1),
    origin_ia=st.text(max_size=40).filter(lambda s: len(s.encode()) <= 255),
)


@settings(max_examples=200, deadline=None)
@given(messages)
def test_encode_decode_round_trip(message):
    assert decode_scmp(encode_scmp(message)) == message


@settings(deadline=None)
@given(messages, st.data())
def test_every_truncation_raises(message, data):
    wire = encode_scmp(message)
    cut = data.draw(st.integers(0, len(wire) - 1))
    with pytest.raises(ScmpDecodeError):
        decode_scmp(wire[:cut])


@settings(deadline=None)
@given(messages, st.binary(min_size=1, max_size=8))
def test_trailing_padding_raises(message, junk):
    with pytest.raises(ScmpDecodeError):
        decode_scmp(encode_scmp(message) + junk)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64))
def test_garbage_never_decodes_silently(raw):
    """Whatever decodes must re-encode byte-identically; the rest raises."""
    try:
        decoded = decode_scmp(raw)
    except ScmpDecodeError:
        return
    assert encode_scmp(decoded) == raw


#: Hand-picked corrupted wires: truncations, padding, a lying origin
#: length, an unknown type, and a non-UTF-8 origin. All must be rejected.
GARBAGE_CORPUS = [
    b"",
    b"\x05",
    b"\x05\x00\x00",
    encode_scmp(interface_down("71-2:0:3b", 9))[:7],
    encode_scmp(interface_down("71-2:0:3b", 9))[:-1],
    encode_scmp(interface_down("71-2:0:3b", 9)) + b"\x00",
    b"\x80" + b"\x00" * 13 + b"\x05" + b"ab",  # origin_len says 5, 2 present
    b"\xfa" + b"\x00" * 13 + b"\x00",          # unknown SCMP type 250
    b"\x05" + b"\x00" * 13 + b"\x02\xff\xfe",  # origin is not UTF-8
]


@pytest.mark.parametrize("raw", GARBAGE_CORPUS)
def test_corpus_rejected(raw):
    with pytest.raises(ScmpDecodeError):
        decode_scmp(raw)
