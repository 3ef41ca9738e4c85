"""NAT translation table and the combined NAT device.

The device of Section IV is a NAPT box: it rewrites (client_addr,
client_port) pairs to (public_addr, mapped_port) with idle-timeout
eviction.  Translation cost is part of the per-packet lookup the
forwarding engine models; this module adds the mapping state so the
experiment exercises a faithful device (table churn across the 30-minute
map, port allocation, expiry) and exposes table statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.net.addresses import IPv4Address
from repro.router.device import DeviceProfile, ForwardingEngine, ForwardingResult
from repro.trace.packet import Direction
from repro.trace.trace import Trace


class NatTableFullError(RuntimeError):
    """Raised when the mapping table cannot admit another flow."""


@dataclass
class NatBinding:
    """One active translation entry."""

    internal: Tuple[int, int]  # (addr value, port)
    mapped_port: int
    created: float
    last_used: float


class NatTable:
    """A NAPT mapping table with idle-timeout eviction.

    Mappings are created on first sight of a flow in either direction
    (the game server experiment has the server behind the NAT, so
    *outbound* packets create mappings for client destinations too —
    matching how the paper's box kept state per remote endpoint).
    """

    def __init__(
        self,
        public_address: IPv4Address,
        capacity: int = 1024,
        idle_timeout: float = 300.0,
        port_base: int = 30000,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity!r}")
        if idle_timeout <= 0:
            raise ValueError(f"idle_timeout must be positive: {idle_timeout!r}")
        self.public_address = public_address
        self.capacity = capacity
        self.idle_timeout = idle_timeout
        self.port_base = port_base
        self._bindings: Dict[Tuple[int, int], NatBinding] = {}
        self._next_port = port_base
        self.created_total = 0
        self.expired_total = 0
        self.peak_size = 0

    def __len__(self) -> int:
        return len(self._bindings)

    def _expire(self, now: float) -> None:
        cutoff = now - self.idle_timeout
        stale = [key for key, b in self._bindings.items() if b.last_used < cutoff]
        for key in stale:
            del self._bindings[key]
        self.expired_total += len(stale)

    def _allocate_port(self) -> int:
        port = self.port_base + (self._next_port - self.port_base) % 20000
        self._next_port += 1
        return port

    def touch(self, addr: int, port: int, now: float) -> NatBinding:
        """Look up (creating if needed) the binding for a flow endpoint."""
        key = (addr, port)
        binding = self._bindings.get(key)
        if binding is not None:
            binding.last_used = now
            return binding
        self._expire(now)
        if len(self._bindings) >= self.capacity:
            raise NatTableFullError(
                f"NAT table full ({self.capacity} bindings) at t={now:.3f}"
            )
        binding = NatBinding(
            internal=key,
            mapped_port=self._allocate_port(),
            created=now,
            last_used=now,
        )
        self._bindings[key] = binding
        self.created_total += 1
        self.peak_size = max(self.peak_size, len(self._bindings))
        return binding


@dataclass
class NatExperimentResult:
    """Table IV's rows plus the device-internal telemetry."""

    forwarding: ForwardingResult
    table_created: int
    table_peak: int

    @property
    def server_to_nat(self) -> int:
        """'Total Packets From Server to NAT'."""
        return self.forwarding.outbound_offered

    @property
    def nat_to_clients(self) -> int:
        """'Total Packets From NAT to Clients'."""
        return self.forwarding.outbound_forwarded

    @property
    def clients_to_nat(self) -> int:
        """'Total Packets From Clients to NAT'."""
        return self.forwarding.inbound_offered

    @property
    def nat_to_server(self) -> int:
        """'Total Packets From NAT to Server'."""
        return self.forwarding.inbound_forwarded

    @property
    def outgoing_loss_rate(self) -> float:
        """Table IV outgoing loss (paper: 0.046 %)."""
        return self.forwarding.outbound_loss_rate

    @property
    def incoming_loss_rate(self) -> float:
        """Table IV incoming loss (paper: 1.3 %)."""
        return self.forwarding.inbound_loss_rate


class NatDevice:
    """The complete NAT box: mapping table + pps-bound forwarding engine."""

    def __init__(
        self,
        device: Optional[DeviceProfile] = None,
        public_address: Optional[IPv4Address] = None,
        table_capacity: int = 1024,
        idle_timeout: float = 300.0,
        seed: int = 0,
    ) -> None:
        self.device_profile = device if device is not None else DeviceProfile()
        self.table = NatTable(
            public_address=public_address or IPv4Address("64.0.0.1"),
            capacity=table_capacity,
            idle_timeout=idle_timeout,
        )
        self.engine = ForwardingEngine(self.device_profile, seed=seed)

    def run(self, trace: Trace) -> NatExperimentResult:
        """Pass a server-side trace through the device.

        Maintains the mapping table for every *forwarded* packet (dropped
        and suppressed packets never reach translation) and returns the
        Table IV accounting.
        """
        forwarding = self.engine.process(trace)
        _update_table(self.table, trace, np.flatnonzero(forwarding.fates == 1))
        return NatExperimentResult(
            forwarding=forwarding,
            table_created=self.table.created_total,
            table_peak=self.table.peak_size,
        )


def _update_table(table: NatTable, trace: Trace, rows: np.ndarray) -> None:
    """Touch ``table`` for each of ``rows`` in order, as one
    ``table.touch(addr, port, now)`` per row would.

    The key is the packet's remote endpoint: the destination of an
    outbound packet, the source of an inbound one.  A binding in use
    only moves its ``last_used``; the table itself changes only when a
    key is missing, since that alone runs ``_expire``.  A key can be
    missing only at its first sighting or after a gap since its previous
    use longer than ``idle_timeout`` (an expiry at ``t' <= t`` needs
    ``last_used < t' - idle_timeout <= t - idle_timeout``).  So only
    those *candidate* rows are walked, and at one whose key is missing,
    every binding's ``last_used`` is first set to its last use before
    that row, then the key is touched.  Counters, ports and every
    binding's fields end as the per-row loop leaves them.
    """
    if rows.size == 0:
        return
    bindings = table._bindings
    outbound = trace.directions == np.int8(Direction.OUT)
    keys = np.where(outbound, trace.dst_addrs, trace.src_addrs).astype(np.int64) << 16
    keys |= np.where(outbound, trace.dst_ports, trace.src_ports)
    del outbound
    unique_keys, codes = np.unique(keys[rows], return_inverse=True)
    del keys
    # (addr, port) of each code as Python ints, the table's key type
    endpoints = list(zip((unique_keys >> 16).tolist(), (unique_keys & 0xFFFF).tolist()))
    times = trace.timestamps[rows]
    n = rows.size

    # in (key, row) order: each row's next use of its key (n: none), and
    # the candidates — each key's first row, and every row that follows
    # its key's previous use by more than the timeout
    small_codes = codes.astype(np.min_scalar_type(len(endpoints)))
    order = np.argsort(small_codes, kind="stable")
    sorted_codes = small_codes[order]
    del small_codes
    candidate = np.empty(n, dtype=bool)
    candidate[0] = True
    np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=candidate[1:])
    del sorted_codes
    next_use = np.empty(n, dtype=np.intp)
    next_use[order[:-1]] = np.where(candidate[1:], n, order[1:])
    next_use[order[-1]] = n
    sorted_times = times[order]
    candidate[1:] |= sorted_times[:-1] < sorted_times[1:] - table.idle_timeout
    candidates = np.sort(order[candidate]).tolist()
    del order, sorted_times, candidate

    def settle(start: int, end: int) -> None:
        # each binding's last use before `end`, for the keys used in
        # [start, end) (the others were set at an earlier touch)
        last = start + np.flatnonzero(next_use[start:end] >= end)
        for code, now in zip(codes[last].tolist(), times[last].tolist()):
            bindings[endpoints[code]].last_used = now

    done = 0
    for row in candidates:
        key = endpoints[codes[row]]
        if key not in bindings:
            settle(done, row)
            table.touch(*key, float(times[row]))
            done = row
    settle(done, n)
