"""Unit tests for checksum, Ethernet, IPv4, UDP codecs and overhead model."""

import pytest

from repro.net.addresses import IPv4Address, MACAddress
from repro.net.checksum import internet_checksum
from repro.net.ethernet import (
    ETHERNET_HEADER_LEN,
    ETHERTYPE_IPV4,
    EthernetHeader,
)
from repro.net.headers import HeaderOverhead, OverheadModel, WIRE_OVERHEAD_UDP_V4
from repro.net.ip import IPv4Header
from repro.net.udp import UDPHeader

SRC = IPv4Address("10.0.0.1")
DST = IPv4Address("10.0.0.2")


class TestChecksum:
    def test_rfc1071_example(self):
        # canonical example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0x220D

    def test_verify_header_including_checksum(self):
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7, 0x22, 0x0D])
        assert internet_checksum(data) == 0

    def test_odd_length_padded(self):
        assert internet_checksum(b"\xff") == internet_checksum(b"\xff\x00")

    def test_empty_input(self):
        assert internet_checksum(b"") == 0xFFFF


class TestEthernet:
    def test_pack_unpack_roundtrip(self):
        header = EthernetHeader(
            dst=MACAddress("02:00:00:00:00:01"),
            src=MACAddress("02:00:00:00:00:02"),
            ethertype=ETHERTYPE_IPV4,
        )
        assert EthernetHeader.unpack(header.pack()) == header

    def test_pack_length(self):
        header = EthernetHeader(MACAddress(1), MACAddress(2))
        assert len(header.pack()) == ETHERNET_HEADER_LEN

    def test_short_input_raises(self):
        with pytest.raises(ValueError):
            EthernetHeader.unpack(b"\x00" * 10)

    def test_bad_ethertype_raises(self):
        with pytest.raises(ValueError):
            EthernetHeader(MACAddress(1), MACAddress(2), ethertype=-1).pack()


class TestIPv4:
    def test_pack_unpack_roundtrip(self):
        header = IPv4Header(src=SRC, dst=DST, total_length=100, ttl=55,
                            identification=77)
        parsed = IPv4Header.unpack(header.pack())
        assert parsed == header

    def test_checksum_valid_on_wire(self):
        raw = IPv4Header(src=SRC, dst=DST, total_length=40).pack()
        assert internet_checksum(raw) == 0

    def test_parse_ignores_the_checksum(self):
        raw = bytearray(IPv4Header(src=SRC, dst=DST, total_length=40).pack())
        raw[8] ^= 0xFF  # flip TTL bits
        parsed = IPv4Header.unpack(bytes(raw))
        assert parsed.ttl != 64

    def test_wrong_version_raises(self):
        raw = bytearray(IPv4Header(src=SRC, dst=DST, total_length=40).pack())
        raw[0] = (6 << 4) | 5
        with pytest.raises(ValueError, match="version"):
            IPv4Header.unpack(bytes(raw))

    def test_options_unsupported(self):
        raw = bytearray(IPv4Header(src=SRC, dst=DST, total_length=40).pack())
        raw[0] = (4 << 4) | 6
        with pytest.raises(ValueError, match="options"):
            IPv4Header.unpack(bytes(raw))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"total_length": 10},
            {"total_length": 70000},
            {"ttl": 300},
            {"protocol": 256},
            {"identification": -1},
            {"fragment_offset": 0x2000},
        ],
    )
    def test_field_validation(self, kwargs):
        base = {"src": SRC, "dst": DST, "total_length": 40}
        base.update(kwargs)
        with pytest.raises(ValueError):
            IPv4Header(**base).pack()

    def test_short_input_raises(self):
        with pytest.raises(ValueError):
            IPv4Header.unpack(b"\x45\x00")


class TestUDP:
    def test_pack_unpack_roundtrip(self):
        header = UDPHeader(27005, 27015, 48, 0)
        assert UDPHeader.unpack(header.pack()) == header

    def test_length_below_header_raises(self):
        with pytest.raises(ValueError):
            UDPHeader(1, 2, 4).pack()

    def test_port_out_of_range(self):
        with pytest.raises(ValueError):
            UDPHeader(70000, 2, 20).pack()


class TestOverheadModel:
    def test_default_matches_paper_gap(self):
        # Table II vs III implies ~54 B/packet of header accounting
        assert WIRE_OVERHEAD_UDP_V4.total == 54

    def test_totals(self):
        model = OverheadModel(HeaderOverhead(link=10, network=20, transport=8))
        assert model.wire_bytes_total(1000, 10) == 1000 + 380

    def test_negative_inputs_raise(self):
        model = OverheadModel()
        with pytest.raises(ValueError):
            model.wire_bytes_total(0, -1)
