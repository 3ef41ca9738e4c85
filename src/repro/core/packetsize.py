"""Packet-size distribution analysis — the paper's Figs 12 and 13.

Fig 12 plots per-direction PDFs of *application* payload sizes truncated
at 500 bytes; Fig 13 the corresponding CDFs.  The headline observations
this module quantifies:

* almost all packets are under 200 bytes;
* inbound sizes form an extremely narrow distribution around ~40 bytes;
* outbound sizes spread widely between 0 and 300 bytes around ~130;
* the contrast with exchange-point traffic (mean > 400 bytes) is what
  stresses route-lookup-bound devices.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.stats.histogram import EmpiricalCDF, Histogram
from repro.trace.packet import Direction
from repro.trace.trace import Trace

#: Fig 12's truncation point: "only a negligible number of packets
#: exceeded this".
FIGURE_TRUNCATION_BYTES = 500.0


@dataclass(frozen=True)
class PacketSizeAnalysis:
    """Size distributions of one trace, total and per direction."""

    total_pdf: Histogram
    inbound_pdf: Histogram
    outbound_pdf: Histogram
    total_cdf: EmpiricalCDF
    inbound_cdf: EmpiricalCDF
    outbound_cdf: EmpiricalCDF
    mean_total: float
    mean_in: float
    mean_out: float

    @classmethod
    def from_trace(
        cls, trace: Trace, bin_width: float = 10.0, truncate: float = FIGURE_TRUNCATION_BYTES
    ) -> "PacketSizeAnalysis":
        """Analyse payload sizes of a trace (Fig 12/13 pipelines).

        Reads only ``payload_sizes`` and ``directions``; each direction's
        sizes keep trace order, so the means are summed in that order.
        """
        if len(trace) == 0:
            raise ValueError("cannot analyse an empty trace")
        sizes = trace.payload_sizes.astype(float)
        inbound = sizes[trace.direction_mask(Direction.IN)]
        outbound = sizes[trace.direction_mask(Direction.OUT)]
        if inbound.size == 0 or outbound.size == 0:
            raise ValueError("trace must contain packets in both directions")
        total_cdf = EmpiricalCDF.from_samples(sizes)
        inbound_cdf = EmpiricalCDF.from_samples(inbound)
        outbound_cdf = EmpiricalCDF.from_samples(outbound)
        return cls(
            total_pdf=total_cdf.histogram(bin_width, low=0.0, high=truncate),
            inbound_pdf=inbound_cdf.histogram(bin_width, low=0.0, high=truncate),
            outbound_pdf=outbound_cdf.histogram(bin_width, low=0.0, high=truncate),
            total_cdf=total_cdf,
            inbound_cdf=inbound_cdf,
            outbound_cdf=outbound_cdf,
            mean_total=float(sizes.mean()),
            mean_in=float(inbound.mean()),
            mean_out=float(outbound.mean()),
        )

    # ------------------------------------------------------------------
    # the paper's headline claims as queryable quantities
    # ------------------------------------------------------------------
    def fraction_under(self, size: float, direction: str = "total") -> float:
        """P(payload <= size) for 'total', 'in' or 'out'."""
        cdf = {
            "total": self.total_cdf,
            "in": self.inbound_cdf,
            "out": self.outbound_cdf,
        }[direction]
        return float(cdf(size))

    def inbound_spread(self) -> float:
        """Interquartile range of inbound sizes ("extremely narrow")."""
        return float(
            self.inbound_cdf.quantile(0.75) - self.inbound_cdf.quantile(0.25)
        )

    def outbound_spread(self) -> float:
        """Interquartile range of outbound sizes ("much wider")."""
        return float(
            self.outbound_cdf.quantile(0.75) - self.outbound_cdf.quantile(0.25)
        )

    def truncation_excess(self) -> float:
        """Fraction of packets beyond the Fig 12 truncation (should be ~0)."""
        return 1.0 - self.fraction_under(FIGURE_TRUNCATION_BYTES)
