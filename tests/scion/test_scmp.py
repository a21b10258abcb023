"""Tests for SCMP messages."""

import pytest

from repro.scion.scmp import ScmpType, interface_down
from tests.scion.reference_codec import (
    ScmpDecodeError,
    decode_scmp,
    echo_reply,
    echo_request,
    encode_scmp,
)


def test_echo_round_trip():
    request = echo_request(identifier=7, sequence=42)
    decoded = decode_scmp(encode_scmp(request))
    assert decoded == request


def test_echo_reply_mirrors_identifier_and_sequence():
    request = echo_request(identifier=7, sequence=42)
    reply = echo_reply(request)
    assert reply.scmp_type is ScmpType.ECHO_REPLY
    assert (reply.identifier, reply.sequence) == (7, 42)


def test_echo_reply_requires_request():
    reply = echo_reply(echo_request(1, 1))
    with pytest.raises(ValueError):
        echo_reply(reply)


def test_interface_down_carries_origin_and_ifid():
    msg = interface_down("71-2:0:3b", 5)
    decoded = decode_scmp(encode_scmp(msg))
    assert decoded.origin_ia == "71-2:0:3b"
    assert decoded.info == 5
    assert decoded.scmp_type is ScmpType.EXTERNAL_INTERFACE_DOWN


class TestDecodeRejectsGarbage:
    """A corrupted wire must never decode into a valid-looking message —
    a truncated origin_ia would attribute an interface-down error to the
    wrong AS."""

    def test_empty_and_short_header(self):
        for raw in (b"", b"\x80", encode_scmp(interface_down("71-1", 2))[:5]):
            with pytest.raises(ScmpDecodeError, match="truncated"):
                decode_scmp(raw)

    def test_origin_truncated(self):
        wire = encode_scmp(interface_down("71-2:0:3b", 5))
        with pytest.raises(ScmpDecodeError, match="origin truncated"):
            decode_scmp(wire[:-1])

    def test_trailing_padding_rejected(self):
        wire = encode_scmp(interface_down("71-2:0:3b", 5))
        with pytest.raises(ScmpDecodeError, match="truncated or padded"):
            decode_scmp(wire + b"\x00")

    def test_invalid_utf8_origin(self):
        good = encode_scmp(interface_down("ab", 5))
        bad = good[:-2] + b"\xff\xfe"
        with pytest.raises(ScmpDecodeError, match="UTF-8"):
            decode_scmp(bad)

    def test_unknown_type(self):
        wire = bytearray(encode_scmp(echo_request(1, 1)))
        wire[0] = 250  # not an ScmpType value
        with pytest.raises(ScmpDecodeError, match="unknown SCMP type"):
            decode_scmp(bytes(wire))

    def test_decode_error_is_value_error(self):
        # Callers that predate the chaos layer catch ValueError.
        assert issubclass(ScmpDecodeError, ValueError)
