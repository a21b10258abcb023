"""Tests for ISD/AS/IA addressing, including round-trip properties."""

import pytest
from hypothesis import given, strategies as st

from repro.scion.addr import (
    AddrError,
    HostAddr,
    IA,
    MAX_AS,
    MAX_BGP_AS,
    format_as,
    parse_as,
)


class TestParseAs:
    def test_decimal(self):
        assert parse_as("559") == 559

    def test_hex_groups(self):
        # 71-2:0:3b from the paper: 0x0002_0000_003b.
        assert parse_as("2:0:3b") == (2 << 32) | 0x3B

    def test_case_insensitive_hex(self):
        assert parse_as("2:0:3B") == parse_as("2:0:3b")

    def test_decimal_too_large_requires_hex_form(self):
        with pytest.raises(AddrError, match="hex form"):
            parse_as(str(MAX_BGP_AS + 1))

    def test_int_passthrough_validates_range(self):
        assert parse_as(MAX_AS) == MAX_AS
        with pytest.raises(AddrError):
            parse_as(MAX_AS + 1)
        with pytest.raises(AddrError):
            parse_as(-1)

    @pytest.mark.parametrize("bad", ["", "x", "1:2", "1:2:3:4", "1::3", "2-3"])
    def test_malformed(self, bad):
        with pytest.raises(AddrError):
            parse_as(bad)


class TestFormatAs:
    def test_bgp_renders_decimal(self):
        assert format_as(559) == "559"

    def test_large_renders_hex(self):
        assert format_as((2 << 32) | 0x3B) == "2:0:3b"

    def test_out_of_range(self):
        with pytest.raises(AddrError):
            format_as(1 << 48)


class TestIA:
    def test_parse_paper_addresses(self):
        # Real addresses from Figure 1 of the paper.
        for text in ("71-2:0:3b", "71-559", "64-2:0:9", "71-20965", "71-225"):
            assert str(IA.parse(text)) == text

    def test_ordering(self):
        assert IA.parse("64-559") < IA.parse("71-1")
        assert IA.parse("71-1") < IA.parse("71-2:0:3b")

    def test_int_round_trip(self):
        ia = IA.parse("71-2:0:3b")
        assert IA.from_int(ia.to_int()) == ia

    def test_isd_out_of_range(self):
        with pytest.raises(AddrError):
            IA(70000, 1)

    def test_malformed_strings(self):
        for bad in ("71", "-1", "71-", "a-1", "71-2:0:3b-x"):
            with pytest.raises(AddrError):
                IA.parse(bad)

    def test_hashable_and_usable_as_dict_key(self):
        d = {IA.parse("71-1"): "one"}
        assert d[IA(71, 1)] == "one"


class TestHostAddr:
    def test_round_trip(self):
        addr = HostAddr(IA.parse("71-225"), "10.0.0.5", 443)
        assert HostAddr.parse(str(addr)) == addr

    def test_invalid_port(self):
        with pytest.raises(AddrError):
            HostAddr(IA.parse("71-225"), "10.0.0.5", 70000)

    def test_empty_host(self):
        with pytest.raises(AddrError):
            HostAddr(IA.parse("71-225"), "", 1)


@given(st.integers(0, MAX_AS))
def test_as_format_parse_round_trip(value):
    assert parse_as(format_as(value)) == value


@given(st.integers(0, 0xFFFF), st.integers(0, MAX_AS))
def test_ia_string_round_trip(isd, asn):
    ia = IA(isd, asn)
    assert IA.parse(str(ia)) == ia


@given(st.integers(0, (1 << 64) - 1))
def test_ia_int_round_trip(value):
    assert IA.from_int(value).to_int() == value
