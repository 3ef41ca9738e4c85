"""Last-mile link catalogue.

The paper's central provisioning argument rests on the 2002 access-link
landscape: games pinned their rates to the "ubiquitous 56 kbps modem"
whose real throughput was 40–50 kbps.  This catalogue models the common
link classes and answers whether a given per-player demand saturates
them — the "narrowest last-mile link saturation" test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class LastMileLink:
    """One access-link class.

    ``nominal_bps`` is the marketing rate; ``effective_bps`` the typical
    achievable throughput (the paper cites 40–50 kbps for 56k modems).
    """

    name: str
    nominal_bps: float
    effective_bps: float
    latency_s: float

    def utilisation(self, demand_bps: float) -> float:
        """Fraction of effective capacity a demand consumes."""
        if demand_bps < 0:
            raise ValueError(f"demand must be >= 0: {demand_bps!r}")
        return demand_bps / self.effective_bps

    def is_saturated_by(self, demand_bps: float, threshold: float = 0.8) -> bool:
        """True when demand uses at least ``threshold`` of effective capacity."""
        return self.utilisation(demand_bps) >= threshold


#: The 2002-era catalogue.  Effective rates follow contemporary
#: measurements (56k modems: 40–50 kbps usable; the paper's reference).
LINK_CATALOGUE: Dict[str, LastMileLink] = {
    "modem56k": LastMileLink("modem56k", 56_000.0, 45_000.0, 0.110),
    "isdn": LastMileLink("isdn", 64_000.0, 60_000.0, 0.040),
    "dsl": LastMileLink("dsl", 768_000.0, 600_000.0, 0.025),
    "cable": LastMileLink("cable", 1_500_000.0, 1_000_000.0, 0.020),
    "lan": LastMileLink("lan", 10_000_000.0, 9_000_000.0, 0.002),
}


def saturation_report(demand_bps: float) -> Tuple[Tuple[str, float, bool], ...]:
    """(name, utilisation, saturated?) per link for a per-player demand."""
    return tuple(
        (name, link.utilisation(demand_bps), link.is_saturated_by(demand_bps))
        for name, link in sorted(
            LINK_CATALOGUE.items(), key=lambda kv: kv[1].effective_bps
        )
    )
