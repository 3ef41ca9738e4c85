"""Columnar packet-trace container.

A :class:`Trace` holds millions of packets as parallel numpy arrays —
the layout every analysis in :mod:`repro.core` consumes directly (time
binning, size histograms and Hurst estimation are all vectorised).
:class:`TraceBuilder` accumulates packets cheaply during simulation and
freezes them into a :class:`Trace`.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.net.addresses import IPv4Address
from repro.net.headers import OverheadModel, WIRE_OVERHEAD_UDP_V4
from repro.net.ip import PROTO_UDP
from repro.trace.packet import Direction, PacketRecord

_COLUMNS = (
    "timestamps",
    "directions",
    "src_addrs",
    "dst_addrs",
    "src_ports",
    "dst_ports",
    "payload_sizes",
    "protocols",
)


class Trace:
    """An immutable, columnar sequence of packets sorted by timestamp.

    Construct via :class:`TraceBuilder`, :meth:`Trace.from_records`, or
    the readers in :mod:`repro.trace.pcap` / :mod:`repro.trace.format`.

    Parameters mirror the column names; all arrays must share a length.
    ``server_address`` records which endpoint the ``IN``/``OUT``
    directions are relative to and travels with the trace through saves,
    filters and merges.
    """

    def __init__(
        self,
        timestamps: np.ndarray,
        directions: np.ndarray,
        src_addrs: np.ndarray,
        dst_addrs: np.ndarray,
        src_ports: np.ndarray,
        dst_ports: np.ndarray,
        payload_sizes: np.ndarray,
        protocols: Optional[np.ndarray] = None,
        server_address: Optional[IPv4Address] = None,
        overhead: Optional[OverheadModel] = None,
        check_sorted: bool = True,
    ) -> None:
        self.timestamps = np.asarray(timestamps, dtype=np.float64)
        n = self.timestamps.size
        self.directions = np.asarray(directions, dtype=np.int8)
        self.src_addrs = np.asarray(src_addrs, dtype=np.uint32)
        self.dst_addrs = np.asarray(dst_addrs, dtype=np.uint32)
        self.src_ports = np.asarray(src_ports, dtype=np.uint16)
        self.dst_ports = np.asarray(dst_ports, dtype=np.uint16)
        self.payload_sizes = np.asarray(payload_sizes, dtype=np.uint32)
        if protocols is None:
            protocols = np.full(n, PROTO_UDP, dtype=np.uint8)
        self.protocols = np.asarray(protocols, dtype=np.uint8)
        for name in _COLUMNS:
            column = getattr(self, name)
            if column.shape != (n,):
                raise ValueError(
                    f"column {name} has shape {column.shape}, expected ({n},)"
                )
        if check_sorted and n > 1 and np.any(np.diff(self.timestamps) < 0):
            raise ValueError("trace timestamps must be non-decreasing")
        self.server_address = server_address
        self.overhead = overhead if overhead is not None else OverheadModel(
            WIRE_OVERHEAD_UDP_V4
        )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls,
        records: Sequence[PacketRecord],
        server_address: Optional[IPv4Address] = None,
        overhead: Optional[OverheadModel] = None,
    ) -> "Trace":
        """Build a trace from scalar :class:`PacketRecord` objects."""
        builder = TraceBuilder(server_address=server_address, overhead=overhead)
        for record in records:
            builder.add_record(record)
        return builder.build()

    @classmethod
    def empty(
        cls,
        server_address: Optional[IPv4Address] = None,
        overhead: Optional[OverheadModel] = None,
    ) -> "Trace":
        """An empty trace (useful as an identity for merges)."""
        zeros = np.empty(0)
        return cls(
            timestamps=zeros,
            directions=zeros,
            src_addrs=zeros,
            dst_addrs=zeros,
            src_ports=zeros,
            dst_ports=zeros,
            payload_sizes=zeros,
            server_address=server_address,
            overhead=overhead,
        )

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.timestamps.size)

    def __iter__(self) -> Iterator[PacketRecord]:
        for i in range(len(self)):
            yield self.record(i)

    def record(self, index: int) -> PacketRecord:
        """Materialise row ``index`` as a :class:`PacketRecord`."""
        if not -len(self) <= index < len(self):
            raise IndexError(f"packet index {index} out of range for {len(self)}")
        if index < 0:
            index += len(self)
        return PacketRecord(
            timestamp=float(self.timestamps[index]),
            direction=Direction(int(self.directions[index])),
            src=IPv4Address(int(self.src_addrs[index])),
            dst=IPv4Address(int(self.dst_addrs[index])),
            src_port=int(self.src_ports[index]),
            dst_port=int(self.dst_ports[index]),
            payload_size=int(self.payload_sizes[index]),
            protocol=int(self.protocols[index]),
        )

    def select(self, mask: np.ndarray) -> "Trace":
        """A new trace containing the rows where ``mask`` is True."""
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != self.timestamps.shape:
            raise ValueError("mask must be a boolean array matching the trace length")
        # one scan of the mask, then a gather per column: boolean indexing
        # would rescan the mask for every column
        return self._take(np.flatnonzero(mask))

    def _take(self, rows: np.ndarray) -> "Trace":
        """A new trace of the rows at the ascending indices ``rows``.

        Integer indexing copies, so the result never pins this trace's
        arrays.
        """
        return Trace(
            server_address=self.server_address,
            overhead=self.overhead,
            check_sorted=False,
            **{name: getattr(self, name)[rows] for name in _COLUMNS},
        )

    # ------------------------------------------------------------------
    # summary properties
    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        """Seconds from first to last packet (0.0 for traces of < 2 packets)."""
        if len(self) < 2:
            return 0.0
        return float(self.timestamps[-1] - self.timestamps[0])

    @property
    def start_time(self) -> float:
        """Timestamp of the first packet (0.0 for an empty trace)."""
        return float(self.timestamps[0]) if len(self) else 0.0

    @property
    def end_time(self) -> float:
        """Timestamp of the last packet (0.0 for an empty trace)."""
        return float(self.timestamps[-1]) if len(self) else 0.0

    def direction_mask(self, direction: Direction) -> np.ndarray:
        """Boolean mask of packets travelling in ``direction``."""
        return self.directions == np.int8(direction)

    def inbound(self) -> "Trace":
        """Sub-trace of client-to-server packets."""
        return self.select(self.direction_mask(Direction.IN))

    def outbound(self) -> "Trace":
        """Sub-trace of server-to-client packets."""
        return self.select(self.direction_mask(Direction.OUT))

    def time_slice(self, start: float, end: float) -> "Trace":
        """Packets with ``start <= timestamp < end`` (uses binary search)."""
        if end < start:
            raise ValueError(f"end {end!r} before start {start!r}")
        lo = int(np.searchsorted(self.timestamps, start, side="left"))
        hi = int(np.searchsorted(self.timestamps, end, side="left"))
        return self._take(np.arange(lo, hi))

    @property
    def total_payload_bytes(self) -> int:
        """Application bytes summed over all packets (Table III's currency)."""
        return int(self.payload_sizes.sum(dtype=np.int64))

    @property
    def total_wire_bytes(self) -> int:
        """Wire bytes under this trace's overhead model (Table II's currency)."""
        return self.overhead.wire_bytes_total(self.total_payload_bytes, len(self))

    def wire_sizes(self) -> np.ndarray:
        """Per-packet wire sizes as an int64 array."""
        return self.payload_sizes.astype(np.int64) + self.overhead.per_packet

    def merge(self, other: "Trace") -> "Trace":
        """Merge two traces into one, re-sorted by timestamp (stable)."""
        if len(other) == 0:
            return self
        if len(self) == 0:
            return other
        columns = {}
        for name in _COLUMNS:
            columns[name] = np.concatenate([getattr(self, name), getattr(other, name)])
        order = np.argsort(columns["timestamps"], kind="stable")
        for name in _COLUMNS:
            columns[name] = columns[name][order]
        return Trace(
            server_address=self.server_address or other.server_address,
            overhead=self.overhead,
            check_sorted=False,
            **columns,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Trace packets={len(self)} duration={self.duration:.1f}s "
            f"payload={self.total_payload_bytes}B>"
        )


class TraceBuilder:
    """Accumulates packets during simulation and freezes them into a Trace.

    Append-oriented: uses Python lists of small chunks and converts to
    numpy once at :meth:`build` time.  ``add`` takes scalars (hot path
    for the packet-level generator); ``add_batch`` takes arrays.
    """

    def __init__(
        self,
        server_address: Optional[IPv4Address] = None,
        overhead: Optional[OverheadModel] = None,
    ) -> None:
        self.server_address = server_address
        self.overhead = overhead
        self._timestamps: List[float] = []
        self._directions: List[int] = []
        self._src_addrs: List[int] = []
        self._dst_addrs: List[int] = []
        self._src_ports: List[int] = []
        self._dst_ports: List[int] = []
        self._payload_sizes: List[int] = []
        self._protocols: List[int] = []
        self._batches: List[dict] = []

    def __len__(self) -> int:
        return len(self._timestamps) + sum(
            batch["timestamps"].size for batch in self._batches
        )

    def add(
        self,
        timestamp: float,
        direction: Direction,
        src_addr: int,
        dst_addr: int,
        src_port: int,
        dst_port: int,
        payload_size: int,
        protocol: int = PROTO_UDP,
    ) -> None:
        """Append one packet from scalar fields (no validation — hot path)."""
        self._timestamps.append(timestamp)
        self._directions.append(int(direction))
        self._src_addrs.append(src_addr)
        self._dst_addrs.append(dst_addr)
        self._src_ports.append(src_port)
        self._dst_ports.append(dst_port)
        self._payload_sizes.append(payload_size)
        self._protocols.append(protocol)

    def add_record(self, record: PacketRecord) -> None:
        """Append one validated :class:`PacketRecord`."""
        self.add(
            record.timestamp,
            record.direction,
            record.src.value,
            record.dst.value,
            record.src_port,
            record.dst_port,
            record.payload_size,
            record.protocol,
        )

    def add_batch(
        self,
        timestamps: np.ndarray,
        directions: np.ndarray,
        src_addrs: np.ndarray,
        dst_addrs: np.ndarray,
        src_ports: np.ndarray,
        dst_ports: np.ndarray,
        payload_sizes: np.ndarray,
        protocols: Optional[np.ndarray] = None,
    ) -> None:
        """Append a block of packets given as parallel arrays."""
        timestamps = np.asarray(timestamps, dtype=np.float64)
        n = timestamps.size
        if protocols is None:
            protocols = np.full(n, PROTO_UDP, dtype=np.uint8)
        batch = {
            "timestamps": timestamps,
            "directions": np.asarray(directions, dtype=np.int8),
            "src_addrs": np.asarray(src_addrs, dtype=np.uint32),
            "dst_addrs": np.asarray(dst_addrs, dtype=np.uint32),
            "src_ports": np.asarray(src_ports, dtype=np.uint16),
            "dst_ports": np.asarray(dst_ports, dtype=np.uint16),
            "payload_sizes": np.asarray(payload_sizes, dtype=np.uint32),
            "protocols": np.asarray(protocols, dtype=np.uint8),
        }
        for name, column in batch.items():
            if column.shape != (n,):
                raise ValueError(f"batch column {name} length mismatch")
        self._batches.append(batch)

    def build(self, sort: bool = True) -> Trace:
        """Freeze the accumulated packets into a :class:`Trace`.

        ``sort`` (default) time-orders the result; generators that emit
        several interleaved streams rely on this.
        """
        pieces = list(self._batches)
        if self._timestamps:
            pieces.append(
                {
                    "timestamps": np.asarray(self._timestamps, dtype=np.float64),
                    "directions": np.asarray(self._directions, dtype=np.int8),
                    "src_addrs": np.asarray(self._src_addrs, dtype=np.uint32),
                    "dst_addrs": np.asarray(self._dst_addrs, dtype=np.uint32),
                    "src_ports": np.asarray(self._src_ports, dtype=np.uint16),
                    "dst_ports": np.asarray(self._dst_ports, dtype=np.uint16),
                    "payload_sizes": np.asarray(self._payload_sizes, dtype=np.uint32),
                    "protocols": np.asarray(self._protocols, dtype=np.uint8),
                }
            )
        if not pieces:
            return Trace.empty(self.server_address, self.overhead)
        columns = {
            name: np.concatenate([piece[name] for piece in pieces])
            for name in _COLUMNS
        }
        if sort:
            order = np.argsort(columns["timestamps"], kind="stable")
            columns = {name: col[order] for name, col in columns.items()}
        return Trace(
            server_address=self.server_address,
            overhead=self.overhead,
            check_sorted=not sort,
            **columns,
        )
