"""Tests for the packet model and address helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.packet import (
    MIN_FRAME_BYTES,
    Packet,
    Protocol,
    TCPFlags,
    ip,
    ip_str,
)


class TestAddressConversion:
    def test_roundtrip_known(self):
        assert ip("10.0.0.1") == 0x0A000001
        assert ip_str(0x0A000001) == "10.0.0.1"

    def test_extremes(self):
        assert ip("0.0.0.0") == 0
        assert ip("255.255.255.255") == 0xFFFFFFFF

    def test_bad_formats(self):
        with pytest.raises(ValueError):
            ip("10.0.0")
        with pytest.raises(ValueError):
            ip("10.0.0.256")
        with pytest.raises(ValueError):
            ip_str(2**32)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100)
    def test_roundtrip_property(self, addr):
        assert ip(ip_str(addr)) == addr


def make_pkt(**kw):
    base = dict(
        src_ip=ip("10.0.0.1"),
        dst_ip=ip("10.0.0.2"),
        src_port=1234,
        dst_port=80,
        protocol=int(Protocol.TCP),
        length=100,
    )
    base.update(kw)
    return Packet(**base)


class TestPacket:
    def test_five_tuple(self):
        pkt = make_pkt()
        assert pkt.five_tuple == (ip("10.0.0.1"), ip("10.0.0.2"), 1234, 80, 6)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            make_pkt(length=0)

    def test_rejects_bad_port(self):
        with pytest.raises(ValueError):
            make_pkt(src_port=70000)

    def test_wire_length_padded_to_min_frame(self):
        pkt = make_pkt(length=40)
        assert pkt.wire_length == MIN_FRAME_BYTES

    def test_wire_length_without_int(self):
        pkt = make_pkt(length=1000)
        assert pkt.wire_length == 1000

    def test_wire_length_grows_with_int_stack(self):
        pkt = make_pkt(length=1000)
        pkt.int_stack = []
        assert pkt.wire_length == 1000 + 12
        pkt.int_stack = [object(), object()]
        assert pkt.wire_length == 1000 + 12 + 32

    def test_carries_int(self):
        pkt = make_pkt()
        assert not pkt.carries_int
        pkt.int_stack = []
        assert pkt.carries_int

    def test_clone_headers_drops_int_state(self):
        pkt = make_pkt(tcp_flags=int(TCPFlags.SYN))
        pkt.int_stack = [object()]
        clone = pkt.clone_headers()
        assert clone.int_stack is None
        assert clone.tcp_flags == int(TCPFlags.SYN)
        assert clone.five_tuple == pkt.five_tuple

    def test_synack_flag_composition(self):
        assert TCPFlags.SYNACK == TCPFlags.SYN | TCPFlags.ACK
        assert TCPFlags.PSHACK == TCPFlags.PSH | TCPFlags.ACK
