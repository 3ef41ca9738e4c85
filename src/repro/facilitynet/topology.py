"""Declarative hosting-facility topology: racks → core → uplink.

A facility is a shallow tree of concentration points: every server NIC
feeds a top-of-rack switch, every rack feeds the core aggregation
fabric, and the core feeds the Internet uplink.  Each stage is a
dataclass spec carrying the capacity currency it is bound by — switches
in packets/second with a packet-counted queue, the uplink in bits/second
with a byte-counted buffer — plus the oversubscription ratio it was
provisioned at, so reports can relate observed loss back to the design
point.

Placement is deterministic: :func:`place_servers` slices fleet server
indices into contiguous, balanced rack blocks, a pure function of
``(n_servers, n_racks)``.  Combined with the fleet's index-derived
seeding, the same facility is rebuilt identically by every worker
layout.

:func:`provision_from_envelope` sizes every stage from a measured
:class:`~repro.core.facility.FacilityEnvelope` — the bridge between the
count-level provisioning analyses and the packet-level pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple, Union

from repro.core.facility import FacilityEnvelope

#: Tier names in traversal order.
TIER_RACK = "rack"
TIER_CORE = "core"
TIER_UPLINK = "uplink"


@dataclass(frozen=True)
class SwitchSpec:
    """A pps-bound store-and-forward stage (top-of-rack or core fabric).

    ``oversubscription`` records the design ratio the capacity was
    derived from (offered peak / capacity); it is bookkeeping for
    reports, not an input to the queueing model.
    """

    name: str
    tier: str
    pps_capacity: float
    queue_packets: int = 128
    service_cv: float = 0.0
    oversubscription: float = 1.0

    def __post_init__(self) -> None:
        if self.pps_capacity <= 0:
            raise ValueError(f"pps_capacity must be positive: {self.pps_capacity!r}")
        if self.queue_packets < 1:
            raise ValueError(f"queue_packets must be >= 1: {self.queue_packets!r}")
        if self.service_cv < 0:
            raise ValueError(f"service_cv must be >= 0: {self.service_cv!r}")
        if self.oversubscription <= 0:
            raise ValueError(
                f"oversubscription must be positive: {self.oversubscription!r}"
            )


@dataclass(frozen=True)
class LinkSpec:
    """A bps-bound tail-drop stage (the Internet uplink)."""

    name: str
    tier: str
    rate_bps: float
    buffer_bytes: float
    oversubscription: float = 1.0

    def __post_init__(self) -> None:
        if self.rate_bps <= 0:
            raise ValueError(f"rate_bps must be positive: {self.rate_bps!r}")
        if self.buffer_bytes <= 0:
            raise ValueError(f"buffer_bytes must be positive: {self.buffer_bytes!r}")
        if self.oversubscription <= 0:
            raise ValueError(
                f"oversubscription must be positive: {self.oversubscription!r}"
            )


HopSpec = Union[SwitchSpec, LinkSpec]


@dataclass(frozen=True)
class RackSpec:
    """One rack: the fleet server indices it houses and its ToR switch."""

    name: str
    server_indices: Tuple[int, ...]
    switch: SwitchSpec

    def __post_init__(self) -> None:
        if not self.server_indices:
            raise ValueError(f"rack {self.name!r} houses no servers")
        if len(set(self.server_indices)) != len(self.server_indices):
            raise ValueError(f"rack {self.name!r} lists duplicate servers")


@dataclass(frozen=True)
class FacilityTopology:
    """The facility tree: racks feeding one core feeding one uplink."""

    racks: Tuple[RackSpec, ...]
    core: SwitchSpec
    uplink: LinkSpec

    def __post_init__(self) -> None:
        if not self.racks:
            raise ValueError("topology needs at least one rack")
        seen: Dict[int, str] = {}
        for rack in self.racks:
            for index in rack.server_indices:
                if index in seen:
                    raise ValueError(
                        f"server {index} placed in both {seen[index]!r} "
                        f"and {rack.name!r}"
                    )
                seen[index] = rack.name
        if sorted(seen) != list(range(len(seen))):
            raise ValueError(
                "rack placement must cover server indices 0..N-1 exactly"
            )

    # ------------------------------------------------------------------
    @property
    def n_servers(self) -> int:
        """Servers housed across all racks."""
        return sum(len(rack.server_indices) for rack in self.racks)

    @property
    def n_racks(self) -> int:
        """Number of racks."""
        return len(self.racks)

    def server_to_rack(self) -> Tuple[int, ...]:
        """Rack index of each server, in server-index order."""
        mapping = {}
        for rack_index, rack in enumerate(self.racks):
            for server_index in rack.server_indices:
                mapping[server_index] = rack_index
        return tuple(mapping[i] for i in range(self.n_servers))

    def describe(self) -> str:
        """One line per hop: tier, capacity, buffer, design ratio."""
        lines = []
        for rack in self.racks:
            s = rack.switch
            lines.append(
                f"{s.name:>10}  {s.tier:<6} {len(rack.server_indices):2d} servers  "
                f"{s.pps_capacity:9.0f} pps  q={s.queue_packets:<4d} "
                f"os={s.oversubscription:.2f}"
            )
        c = self.core
        lines.append(
            f"{c.name:>10}  {c.tier:<6} {self.n_racks:2d} racks    "
            f"{c.pps_capacity:9.0f} pps  q={c.queue_packets:<4d} "
            f"os={c.oversubscription:.2f}"
        )
        u = self.uplink
        lines.append(
            f"{u.name:>10}  {u.tier:<6}            "
            f"{u.rate_bps / 1e6:6.2f} Mbps  buf={u.buffer_bytes / 1024:.0f}KiB "
            f"os={u.oversubscription:.2f}"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# deterministic placement and provisioning
# ----------------------------------------------------------------------
def place_servers(n_servers: int, n_racks: int) -> Tuple[Tuple[int, ...], ...]:
    """Contiguous balanced placement of server indices into racks.

    Rack sizes differ by at most one (earlier racks take the remainder);
    a pure function of ``(n_servers, n_racks)``, so every worker layout
    and every session rebuilds the identical facility.
    """
    if n_servers < 1:
        raise ValueError(f"n_servers must be >= 1: {n_servers!r}")
    if not 1 <= n_racks <= n_servers:
        raise ValueError(
            f"n_racks must lie in [1, n_servers={n_servers}]: {n_racks!r}"
        )
    base, remainder = divmod(n_servers, n_racks)
    racks = []
    cursor = 0
    for rack_index in range(n_racks):
        size = base + (1 if rack_index < remainder else 0)
        racks.append(tuple(range(cursor, cursor + size)))
        cursor += size
    return tuple(racks)


def build_topology(
    n_servers: int,
    n_racks: int,
    per_server_pps: float,
    per_server_bps: float,
    rack_oversubscription: float = 1.0,
    core_oversubscription: float = 1.0,
    uplink_oversubscription: float = 1.0,
    switch_queue_packets: int = 128,
    uplink_buffer_s: float = 0.05,
    service_cv: float = 0.0,
) -> FacilityTopology:
    """Build the facility tree from per-server demand and design ratios.

    Each stage's capacity is its downstream demand divided by its
    oversubscription ratio: rack switches carry their housed servers,
    the core and uplink carry the whole fleet.  The uplink buffer holds
    ``uplink_buffer_s`` seconds of line rate (bounded below at 16 KiB) —
    the shallow-buffer regime of access routers.
    """
    if per_server_pps <= 0 or per_server_bps <= 0:
        raise ValueError("per-server demand must be positive")
    placement = place_servers(n_servers, n_racks)
    racks = tuple(
        RackSpec(
            name=f"rack{rack_index}",
            server_indices=indices,
            switch=SwitchSpec(
                name=f"tor{rack_index}",
                tier=TIER_RACK,
                pps_capacity=len(indices) * per_server_pps / rack_oversubscription,
                queue_packets=switch_queue_packets,
                service_cv=service_cv,
                oversubscription=rack_oversubscription,
            ),
        )
        for rack_index, indices in enumerate(placement)
    )
    uplink_rate = n_servers * per_server_bps / uplink_oversubscription
    return FacilityTopology(
        racks=racks,
        core=SwitchSpec(
            name="core",
            tier=TIER_CORE,
            pps_capacity=n_servers * per_server_pps / core_oversubscription,
            queue_packets=switch_queue_packets,
            service_cv=service_cv,
            oversubscription=core_oversubscription,
        ),
        uplink=LinkSpec(
            name="uplink",
            tier=TIER_UPLINK,
            rate_bps=uplink_rate,
            buffer_bytes=max(16 * 1024.0, uplink_rate / 8.0 * uplink_buffer_s),
            oversubscription=uplink_oversubscription,
        ),
    )


def provision_from_envelope(
    envelope: FacilityEnvelope,
    n_servers: int,
    n_racks: int,
    rack_oversubscription: float = 1.0,
    core_oversubscription: float = 1.0,
    uplink_oversubscription: float = 1.0,
    **kwargs,
) -> FacilityTopology:
    """Size the facility tree from a measured facility envelope.

    The envelope's peak pps/bps (at its percentile) is split evenly into
    :meth:`~repro.core.facility.FacilityEnvelope.per_server_share`
    shares; each stage then carries its downstream share divided by its
    oversubscription ratio — R means the stage carries 1/R of its
    offered peak (:func:`repro.core.facility.oversubscribed_capacity`).
    """
    per_server_pps, per_server_bps = envelope.per_server_share(n_servers)
    return build_topology(
        n_servers=n_servers,
        n_racks=n_racks,
        per_server_pps=per_server_pps,
        per_server_bps=per_server_bps,
        rack_oversubscription=rack_oversubscription,
        core_oversubscription=core_oversubscription,
        uplink_oversubscription=uplink_oversubscription,
        **kwargs,
    )
