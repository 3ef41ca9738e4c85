"""Network path models for the closed-loop simulation.

The open-loop generators synthesise the server-side view directly; the
closed-loop simulation (:mod:`repro.gameserver.server` /
:mod:`repro.gameserver.client`) instead *transmits* packets across path
models with latency, jitter and loss.  Paths are asymmetric-capable and
keyed by the client's last-mile class: the paper's modem players sit
behind ~100 ms paths, the "l337" players behind fast broadband.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Dict, Iterator, Optional

import numpy as np

from repro.sim.random import drawn_in_blocks


@dataclass(frozen=True)
class PathProfile:
    """One direction of a network path.

    ``latency`` is the propagation+queueing base (seconds), ``jitter``
    the standard deviation of a truncated-normal perturbation, and
    ``loss_rate`` an iid drop probability (the closed-loop device model
    adds congestive loss on top of this ambient loss).
    """

    latency: float
    jitter: float = 0.0
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0: {self.latency!r}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0: {self.jitter!r}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must lie in [0, 1): {self.loss_rate!r}")

    def sample_delay(self, rng: np.random.Generator, size: Optional[int] = None):
        """Delivery delays (never below half the base latency)."""
        return np.maximum(
            rng.normal(self.latency, self.jitter, size), self.latency * 0.5
        )

    def sample_loss(self, rng: np.random.Generator, size: Optional[int] = None):
        """Whether each packet is lost to ambient path loss."""
        return rng.random(size) < self.loss_rate

    def delays(self, rng: np.random.Generator) -> Iterator[float]:
        """One delay per packet sent, drawn a block at a time from ``rng``.

        A path without jitter draws nothing: every delay is the latency.
        """
        if self.jitter == 0.0:
            return repeat(self.latency)
        return drawn_in_blocks(partial(self.sample_delay, rng))

    def losses(self, rng: np.random.Generator) -> Iterator[bool]:
        """One loss verdict per packet sent, drawn a block at a time from ``rng``.

        A lossless path draws nothing.
        """
        if self.loss_rate == 0.0:
            return repeat(False)
        return drawn_in_blocks(partial(self.sample_loss, rng))


@dataclass(frozen=True)
class ClientPath:
    """A bidirectional client<->server path."""

    uplink: PathProfile  # client -> server
    downlink: PathProfile  # server -> client

    @classmethod
    def symmetric(cls, latency: float, jitter: float = 0.0,
                  loss_rate: float = 0.0) -> "ClientPath":
        """A path with identical characteristics both ways."""
        profile = PathProfile(latency=latency, jitter=jitter, loss_rate=loss_rate)
        return cls(uplink=profile, downlink=profile)


#: Paths by last-mile class, matching the ``ServerProfile`` link classes.
#: Modem latencies follow the paper's 56k reality (~100+ ms each way).
DEFAULT_PATHS: Dict[str, ClientPath] = {
    "modem": ClientPath.symmetric(latency=0.110, jitter=0.020, loss_rate=0.001),
    "broadband": ClientPath.symmetric(latency=0.035, jitter=0.008, loss_rate=0.0005),
    "l337": ClientPath.symmetric(latency=0.015, jitter=0.003, loss_rate=0.0002),
}


def path_for_class(link_class: str) -> ClientPath:
    """The path model for a last-mile class (default: the modem path)."""
    return DEFAULT_PATHS.get(link_class, DEFAULT_PATHS["modem"])
