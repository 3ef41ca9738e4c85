"""Unit tests for IPv4/MAC address value types."""

import pytest

from repro.net.addresses import IPv4Address, MACAddress


class TestIPv4Address:
    def test_parse_dotted_quad(self):
        addr = IPv4Address("192.168.1.10")
        assert addr.octets == (192, 168, 1, 10)
        assert str(addr) == "192.168.1.10"

    def test_from_int_and_back(self):
        assert IPv4Address(0x0A000001).value == 0x0A000001
        assert str(IPv4Address(0x0A000001)) == "10.0.0.1"

    def test_from_bytes(self):
        assert IPv4Address(b"\x0a\x00\x00\x02") == IPv4Address("10.0.0.2")

    def test_packed_roundtrip(self):
        addr = IPv4Address("172.16.254.3")
        assert IPv4Address(addr.packed) == addr

    def test_equality_across_representations(self):
        assert IPv4Address("10.0.0.1") == "10.0.0.1"
        assert IPv4Address("10.0.0.1") == 0x0A000001

    def test_hashable(self):
        assert len({IPv4Address("1.2.3.4"), IPv4Address("1.2.3.4")}) == 1

    def test_ordering(self):
        assert IPv4Address("10.0.0.1") < IPv4Address("10.0.0.2")

    def test_addition_wraps(self):
        assert IPv4Address("255.255.255.255") + 1 == IPv4Address("0.0.0.0")

    def test_immutable(self):
        addr = IPv4Address("1.1.1.1")
        with pytest.raises(AttributeError):
            addr._value = 0

    @pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d"])
    def test_invalid_strings_raise(self, bad):
        with pytest.raises(ValueError):
            IPv4Address(bad)

    def test_invalid_type_raises(self):
        with pytest.raises(TypeError):
            IPv4Address(1.5)


class TestMACAddress:
    def test_parse_colon_form(self):
        mac = MACAddress("02:00:00:00:00:01")
        assert mac == MACAddress(0x020000000001)
        assert str(mac) == "02:00:00:00:00:01"

    def test_parse_dash_form(self):
        assert MACAddress("02-00-00-00-00-01") == MACAddress("02:00:00:00:00:01")

    def test_packed_roundtrip(self):
        mac = MACAddress("de:ad:be:ef:00:01")
        assert MACAddress(mac.packed) == mac

    def test_invalid_length_raises(self):
        with pytest.raises(ValueError):
            MACAddress("02:00:00:00:00")

    def test_invalid_bytes_raise(self):
        with pytest.raises(ValueError):
            MACAddress(b"\x01\x02")

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            MACAddress(2**48)

