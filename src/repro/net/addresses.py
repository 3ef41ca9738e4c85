"""MAC and IPv4 address value types.

Small immutable wrappers over integers with parsing/formatting, used by
the header codecs and the NAT translation table.  Implemented here rather
than with :mod:`ipaddress` to keep the codec layer self-contained and to
add the trace-specific helpers (client address allocation).
"""

from __future__ import annotations

from typing import Tuple


class IPv4Address:
    """An IPv4 address stored as an unsigned 32-bit integer.

    Accepts dotted-quad strings, integers, 4-byte sequences, or another
    :class:`IPv4Address`.  Instances are immutable, hashable and ordered.
    """

    __slots__ = ("_value",)

    def __init__(self, value) -> None:
        if isinstance(value, IPv4Address):
            raw = value._value
        elif isinstance(value, int):
            raw = value
        elif isinstance(value, str):
            raw = self._parse(value)
        elif isinstance(value, (bytes, bytearray)):
            if len(value) != 4:
                raise ValueError(f"IPv4 bytes must have length 4, got {len(value)}")
            raw = int.from_bytes(value, "big")
        else:
            raise TypeError(f"cannot make IPv4Address from {type(value).__name__}")
        if not 0 <= raw <= 0xFFFFFFFF:
            raise ValueError(f"IPv4 value out of range: {raw!r}")
        object.__setattr__(self, "_value", raw)

    @staticmethod
    def _parse(text: str) -> int:
        parts = text.strip().split(".")
        if len(parts) != 4:
            raise ValueError(f"invalid dotted quad: {text!r}")
        raw = 0
        for part in parts:
            if not part.isdigit():
                raise ValueError(f"invalid dotted quad: {text!r}")
            octet = int(part)
            if octet > 255:
                raise ValueError(f"octet out of range in {text!r}")
            raw = (raw << 8) | octet
        return raw

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("IPv4Address is immutable")

    @property
    def value(self) -> int:
        """The address as an unsigned 32-bit integer."""
        return self._value

    @property
    def packed(self) -> bytes:
        """The address as 4 network-order bytes."""
        return self._value.to_bytes(4, "big")

    @property
    def octets(self) -> Tuple[int, int, int, int]:
        """The four octets, most significant first."""
        v = self._value
        return ((v >> 24) & 0xFF, (v >> 16) & 0xFF, (v >> 8) & 0xFF, v & 0xFF)

    def __add__(self, offset: int) -> "IPv4Address":
        return IPv4Address((self._value + int(offset)) & 0xFFFFFFFF)

    def __reduce__(self):
        # Slots plus the immutability guard break default pickling; the
        # fleet execution layer ships profiles/traces across processes.
        return (IPv4Address, (self._value,))

    def __str__(self) -> str:
        return ".".join(str(o) for o in self.octets)

    def __repr__(self) -> str:
        return f"IPv4Address({str(self)!r})"

    def __eq__(self, other) -> bool:
        if isinstance(other, IPv4Address):
            return self._value == other._value
        if isinstance(other, (int, str, bytes)):
            try:
                return self._value == IPv4Address(other)._value
            except (ValueError, TypeError):
                return NotImplemented
        return NotImplemented

    def __lt__(self, other: "IPv4Address") -> bool:
        return self._value < IPv4Address(other)._value

    def __hash__(self) -> int:
        return hash(("IPv4Address", self._value))


class MACAddress:
    """A 48-bit Ethernet MAC address."""

    __slots__ = ("_value",)

    def __init__(self, value) -> None:
        if isinstance(value, MACAddress):
            raw = value._value
        elif isinstance(value, int):
            raw = value
        elif isinstance(value, str):
            raw = self._parse(value)
        elif isinstance(value, (bytes, bytearray)):
            if len(value) != 6:
                raise ValueError(f"MAC bytes must have length 6, got {len(value)}")
            raw = int.from_bytes(value, "big")
        else:
            raise TypeError(f"cannot make MACAddress from {type(value).__name__}")
        if not 0 <= raw <= 0xFFFFFFFFFFFF:
            raise ValueError(f"MAC value out of range: {raw!r}")
        object.__setattr__(self, "_value", raw)

    @staticmethod
    def _parse(text: str) -> int:
        parts = text.strip().replace("-", ":").split(":")
        if len(parts) != 6:
            raise ValueError(f"invalid MAC: {text!r}")
        raw = 0
        for part in parts:
            if len(part) not in (1, 2):
                raise ValueError(f"invalid MAC: {text!r}")
            raw = (raw << 8) | int(part, 16)
        return raw

    def __setattr__(self, name, value):
        raise AttributeError("MACAddress is immutable")

    def __reduce__(self):
        return (MACAddress, (self._value,))

    @property
    def packed(self) -> bytes:
        """The address as 6 network-order bytes."""
        return self._value.to_bytes(6, "big")

    def __str__(self) -> str:
        return ":".join(f"{b:02x}" for b in self.packed)

    def __repr__(self) -> str:
        return f"MACAddress({str(self)!r})"

    def __eq__(self, other) -> bool:
        if isinstance(other, MACAddress):
            return self._value == other._value
        if isinstance(other, (int, str, bytes)):
            try:
                return self._value == MACAddress(other)._value
            except (ValueError, TypeError):
                return NotImplemented
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("MACAddress", self._value))
