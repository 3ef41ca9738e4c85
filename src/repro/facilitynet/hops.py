"""Trace-level hop engines on top of the shared queueing kernels.

The raw packet-queue kernels live in :mod:`repro.kernels` (they are
shared with :mod:`repro.router.device` and depend only on numpy); this
module adds the facility-facing layer: applying a kernel to one ingress
:class:`~repro.trace.trace.Trace` and deriving egress traces, delays and
per-bin offered-vs-carried :class:`~repro.gameserver.fluid.FluidSeries`.

Two hop flavours cover every concentration point in a hosting facility:

* :func:`pps_hop` — a pps-bound store-and-forward stage (switch fabric)
  over :func:`repro.kernels.fifo_forward`;
* :func:`bps_hop` — a bps-bound tail-drop link (Internet uplink) over
  :func:`repro.kernels.tail_drop_link`, counting *wire* bytes.

Facility hops see the *merged* bidirectional stream of every downstream
server — this is where fleet load first interacts with shared queues
instead of being a pure sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gameserver.fluid import FluidSeries
from repro.kernels.fifo import fifo_forward
from repro.kernels.taildrop import tail_drop_link
from repro.sim.random import RandomStreams
from repro.trace.trace import Trace

__all__ = [
    "HopTraversal",
    "bps_hop",
    "pps_hop",
]


# ----------------------------------------------------------------------
# trace-level hop application
# ----------------------------------------------------------------------
@dataclass
class HopTraversal:
    """One hop applied to one ingress :class:`Trace`.

    Holds per-packet fates (1 forwarded / 0 dropped) and departure
    times; derives egress traces, delays, and per-bin offered-vs-carried
    :class:`~repro.gameserver.fluid.FluidSeries` on demand.
    """

    ingress: Trace
    fates: np.ndarray
    departures: np.ndarray

    @property
    def offered(self) -> int:
        """Packets that arrived at the hop."""
        return int(self.fates.size)

    @property
    def forwarded(self) -> int:
        """Packets the hop carried."""
        return int((self.fates == 1).sum())

    @property
    def dropped(self) -> int:
        """Packets the hop shed."""
        return int((self.fates == 0).sum())

    def delays(self) -> np.ndarray:
        """Queueing+service delay of each forwarded packet (seconds)."""
        mask = self.fates == 1
        return self.departures[mask] - self.ingress.timestamps[mask]

    def egress(self) -> Trace:
        """Forwarded packets re-timestamped at their hop departure.

        FIFO service makes departures non-decreasing, so the egress
        trace is sorted and can feed the next hop directly.
        """
        forwarded = self.ingress.select(self.fates == 1)
        return Trace(
            timestamps=self.departures[self.fates == 1],
            directions=forwarded.directions,
            src_addrs=forwarded.src_addrs,
            dst_addrs=forwarded.dst_addrs,
            src_ports=forwarded.src_ports,
            dst_ports=forwarded.dst_ports,
            payload_sizes=forwarded.payload_sizes,
            protocols=forwarded.protocols,
            server_address=forwarded.server_address,
            overhead=forwarded.overhead,
            check_sorted=False,
        )

    def series(self, start: float, end: float, bin_size: float = 1.0) -> FluidSeries:
        """Offered vs carried load per arrival bin.

        ``in_*`` columns hold the offered packets/payload-bytes of each
        bin, ``out_*`` the forwarded ones, so ``in - out`` is the hop's
        per-bin loss — the shape :mod:`repro.facilitynet.report` plots.
        """
        if end <= start:
            raise ValueError(f"end {end!r} must exceed start {start!r}")
        if bin_size <= 0:
            raise ValueError(f"bin_size must be positive: {bin_size!r}")
        nbins = int(np.ceil((end - start) / bin_size))
        index = ((self.ingress.timestamps - start) / bin_size).astype(np.int64)
        index = np.clip(index, 0, nbins - 1)
        payload = self.ingress.payload_sizes.astype(np.float64)
        forwarded = self.fates == 1
        carried = index[forwarded]
        # bincount sums each bin in row order like `np.add.at` did; the
        # sums are counts and integer-valued byte totals, exact either way
        return FluidSeries(
            bin_size=float(bin_size),
            start_time=float(start),
            in_counts=np.bincount(index, minlength=nbins).astype(np.float64),
            out_counts=np.bincount(carried, minlength=nbins).astype(np.float64),
            in_bytes=np.bincount(index, weights=payload, minlength=nbins),
            out_bytes=np.bincount(
                carried, weights=payload[forwarded], minlength=nbins
            ),
        )


def pps_hop(
    trace: Trace,
    pps_capacity: float,
    queue_packets: int,
    service_cv: float = 0.0,
    seed: int = 0,
) -> HopTraversal:
    """Apply a pps-bound store-and-forward stage (switch fabric) to a trace.

    A single forwarding engine serves the merged stream at
    ``pps_capacity`` with one finite ``queue_packets`` buffer; with
    ``service_cv > 0`` per-packet service times are lognormal-jittered
    (seeded, reproducible), otherwise deterministic.  Single-class
    traversals take the kernel's vectorised idle-period fast path.
    """
    if pps_capacity <= 0:
        raise ValueError(f"pps_capacity must be positive: {pps_capacity!r}")
    n = len(trace)
    mean_service = 1.0 / pps_capacity
    if service_cv > 0 and n:
        rng = RandomStreams(seed).get("hop-service")
        sigma = np.sqrt(np.log(1.0 + service_cv**2))
        mu = np.log(mean_service) - 0.5 * sigma**2
        service_times = rng.lognormal(mu, sigma, size=n)
    else:
        service_times = np.full(n, mean_service)
    kernel = fifo_forward(
        trace.timestamps,
        service_times,
        primary_mask=None,
        primary_queue=queue_packets,
    )
    return HopTraversal(ingress=trace, fates=kernel.fates, departures=kernel.departures)


def bps_hop(trace: Trace, rate_bps: float, buffer_bytes: float) -> HopTraversal:
    """Apply a bps-bound tail-drop link (uplink) to a trace.

    Buffer occupancy and drain are counted in *wire* bytes under the
    trace's overhead model — the currency an uplink actually carries.
    """
    fates, departures = tail_drop_link(
        trace.timestamps, trace.wire_sizes(), rate_bps, buffer_bytes
    )
    return HopTraversal(ingress=trace, fates=fates, departures=departures)
