"""Tests for dataplane paths and the SCION packet wire format."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.scion.addr import IA, HostAddr
from repro.scion.crypto.keys import SymmetricKey
from repro.scion.crypto.mac import MAC_LEN
from repro.scion.packet import KIND_SCMP, KIND_UDP, PacketError, ScionPacket
from repro.scion.path import (
    DataplanePath,
    HopField,
    InfoField,
    PathError,
    PathMeta,
    PathSegmentHops,
    oriented_interfaces,
)
from tests.scion.reference_codec import decode_packet, encode_packet, reverse_packet

KEY = SymmetricKey(b"k" * 32)
TS = 5000


def hop(ia_text, ingress, egress, beta=1):
    return HopField.create(
        IA.parse(ia_text), KEY, TS, cons_ingress=ingress,
        cons_egress=egress, beta=beta,
    )


def two_segment_path():
    up = PathSegmentHops(
        InfoField(TS, 1, cons_dir=False),
        hops=(hop("71-1", 0, 5), hop("71-100", 3, 0)),
    )
    down = PathSegmentHops(
        InfoField(TS, 2, cons_dir=True),
        hops=(hop("71-1", 0, 7), hop("71-200", 4, 0)),
    )
    return DataplanePath((up, down))


class TestPathStructure:
    def test_forwarding_order_reverses_up_segments(self):
        path = two_segment_path()
        ias = [str(h.ia) for h, _ in path.hops()]
        assert ias == ["71-100", "71-1", "71-1", "71-200"]

    def test_as_sequence_dedups_joint(self):
        path = two_segment_path()
        assert [str(ia) for ia in path.as_sequence()] == ["71-100", "71-1", "71-200"]
        assert path.num_as_hops() == 3

    def test_src_dst(self):
        path = two_segment_path()
        assert str(path.src_ia) == "71-100"
        assert str(path.dst_ia) == "71-200"

    def test_oriented_interfaces(self):
        h = hop("71-1", 3, 5)
        fwd = InfoField(TS, 1, cons_dir=True)
        rev = InfoField(TS, 1, cons_dir=False)
        assert oriented_interfaces(h, fwd) == (3, 5)
        assert oriented_interfaces(h, rev) == (5, 3)

    def test_fingerprint_stable_and_distinct(self):
        p1, p2 = two_segment_path(), two_segment_path()
        assert p1.fingerprint() == p2.fingerprint()
        other = DataplanePath((
            PathSegmentHops(InfoField(TS, 1, False),
                            (hop("71-1", 0, 9), hop("71-100", 3, 0))),
        ))
        assert other.fingerprint() != p1.fingerprint()

    def test_segment_count_limits(self):
        seg = PathSegmentHops(InfoField(TS, 1, True), (hop("71-1", 0, 1),))
        with pytest.raises(PathError):
            DataplanePath(())
        with pytest.raises(PathError):
            DataplanePath((seg,) * 4)

    def test_forwarding_plan_marks_boundaries(self):
        plan = two_segment_path().forwarding_plan()
        assert [r.is_seg_first for r in plan] == [True, False, True, False]
        assert [r.is_seg_last for r in plan] == [False, True, False, True]
        assert [r.seg_index for r in plan] == [0, 0, 1, 1]

    def test_min_expiry(self):
        path = two_segment_path()
        assert path.min_expiry() == TS + 24 * 3600


class TestPathMeta:
    def meta(self, path):
        return PathMeta(path=path, latency_estimate_s=0.05)

    def test_disjointness_identical_paths_is_zero(self):
        m = self.meta(two_segment_path())
        assert m.disjointness(m) == pytest.approx(0.0)

    def test_disjointness_fully_distinct_is_one(self):
        m1 = self.meta(two_segment_path())
        other = DataplanePath((
            PathSegmentHops(InfoField(TS, 3, True),
                            (hop("71-9", 0, 8), hop("71-300", 2, 0))),
        ))
        assert m1.disjointness(self.meta(other)) == pytest.approx(1.0)

    def test_shared_interfaces(self):
        m = self.meta(two_segment_path())
        assert m.shared_interfaces([m]) == len(m.interfaces)
        assert m.shared_interfaces([]) == 0


class TestPacketWireFormat:
    def make_packet(self, **kwargs):
        defaults = dict(
            src=HostAddr(IA.parse("71-100"), "10.0.0.1", 4001),
            dst=HostAddr(IA.parse("71-200"), "10.0.0.2", 4002),
            path=two_segment_path(),
            payload=b"hello sciera",
        )
        defaults.update(kwargs)
        return ScionPacket(**defaults)

    def test_encode_decode_round_trip(self):
        packet = self.make_packet()
        decoded = decode_packet(encode_packet(packet))
        assert decoded.src == packet.src
        assert decoded.dst == packet.dst
        assert decoded.payload == packet.payload
        assert decoded.path.fingerprint() == packet.path.fingerprint()
        assert decoded.curr_hop == packet.curr_hop

    def test_round_trip_preserves_kind_and_pointer(self):
        packet = self.make_packet(kind=KIND_SCMP, curr_hop=2)
        decoded = decode_packet(encode_packet(packet))
        assert decoded.kind == KIND_SCMP
        assert decoded.curr_hop == 2

    def test_truncated_packet_rejected(self):
        raw = encode_packet(self.make_packet())
        with pytest.raises(PacketError):
            decode_packet(raw[: len(raw) // 2])

    def test_garbage_rejected(self):
        with pytest.raises(PacketError):
            decode_packet(b"\xff" * 40)

    def test_reversed_packet_swaps_endpoints_and_flips_segments(self):
        packet = self.make_packet()
        reply = reverse_packet(packet)
        assert reply.src == packet.dst
        assert reply.dst == packet.src
        assert reply.curr_hop == 0
        # The reply visits the ASes in reverse order.
        fwd = [str(ia) for ia in packet.path.as_sequence()]
        rev = [str(ia) for ia in reply.path.as_sequence()]
        assert rev == list(reversed(fwd))

    def test_double_reverse_is_identity_on_route(self):
        packet = self.make_packet()
        twice = reverse_packet(reverse_packet(packet))
        assert twice.path.fingerprint() == packet.path.fingerprint()


@given(
    payload=st.binary(max_size=200),
    curr_hop=st.integers(0, 3),
    src_port=st.integers(0, 65535),
)
@settings(max_examples=50, deadline=None)
def test_packet_round_trip_property(payload, curr_hop, src_port):
    packet = ScionPacket(
        src=HostAddr(IA.parse("71-100"), "192.168.1.10", src_port),
        dst=HostAddr(IA.parse("64-559"), "10.1.2.3", 443),
        path=two_segment_path(),
        payload=payload,
        curr_hop=curr_hop,
    )
    decoded = decode_packet(encode_packet(packet))
    assert decoded == packet


_hop_fields = st.builds(
    HopField,
    ia=st.builds(IA.from_int, st.integers(0, 2**64 - 1)),
    cons_ingress=st.integers(0, 2**16 - 1),
    cons_egress=st.integers(0, 2**16 - 1),
    expiry=st.integers(0, 2**32 - 1),
    beta=st.integers(0, 2**16 - 1),
    mac=st.binary(min_size=MAC_LEN, max_size=MAC_LEN),
)
_segments = st.builds(
    PathSegmentHops,
    info=st.builds(
        InfoField,
        timestamp=st.integers(0, 2**32 - 1),
        seg_id=st.integers(0, 2**16 - 1),
        cons_dir=st.booleans(),
    ),
    hops=st.lists(_hop_fields, min_size=1, max_size=6).map(tuple),
)
_hosts = st.builds(
    HostAddr,
    ia=st.builds(IA.from_int, st.integers(0, 2**64 - 1)),
    host=st.text(min_size=1, max_size=40),  # under 256 bytes in UTF-8
    port=st.integers(0, 65535),
)


@given(
    src=_hosts,
    dst=_hosts,
    segments=st.lists(_segments, min_size=1, max_size=3).map(tuple),
    payload=st.binary(max_size=600),
    kind=st.sampled_from([KIND_UDP, KIND_SCMP]),
    curr_hop=st.integers(0, 2**16 - 1),
)
@settings(max_examples=100, deadline=None)
def test_size_bytes_is_the_encoded_length(src, dst, segments, payload, kind, curr_hop):
    packet = ScionPacket(src, dst, DataplanePath(segments), payload, kind, curr_hop)
    size = packet.size_bytes()  # builds the path-header memo
    raw = encode_packet(packet)  # encodes through it
    assert size == len(raw)
    assert decode_packet(raw) == packet


@pytest.mark.parametrize("mac_len", [0, MAC_LEN - 1, MAC_LEN + 1])
def test_wrong_length_mac_rejected_by_size_and_encode(mac_len):
    good = two_segment_path()
    down = good.segments[1]
    bad_hop = HopField(IA.parse("71-200"), 4, 0, TS + 60, 1, b"m" * mac_len)
    path = DataplanePath((
        good.segments[0], PathSegmentHops(down.info, (down.hops[0], bad_hop))
    ))
    packet = ScionPacket(
        src=HostAddr(IA.parse("71-100"), "10.0.0.1", 4001),
        dst=HostAddr(IA.parse("71-200"), "10.0.0.2", 4002),
        path=path,
    )
    for _ in range(2):  # a failed header is never memoised
        with pytest.raises(PacketError):
            packet.size_bytes()
        with pytest.raises(PacketError):
            encode_packet(packet)
