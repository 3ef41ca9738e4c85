"""Application-protocol message model.

Captures the Half-Life/Counter-Strike wire behaviour the paper describes
(Section II): client→server movement/command updates, server→client
state-snapshot broadcasts, handshakes, disconnects, broadcast text and
voice, and rate-limited logo/map downloads.  Each message type carries a
payload-size model; the mixes are calibrated so the aggregate inbound and
outbound size distributions match Table III and Figs 12–13.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.gameserver.config import ServerProfile
from repro.sim.random import sample_truncated_normal


def _phi(x: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _cap_phi(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def truncated_normal_mean(mu: float, sigma: float, low: float, high: float) -> float:
    """Mean of a Normal(mu, sigma) truncated (by rejection) to [low, high]."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive: {sigma!r}")
    a = (low - mu) / sigma
    b = (high - mu) / sigma
    z = _cap_phi(b) - _cap_phi(a)
    if z <= 0:
        raise ValueError("truncation window has no mass")
    return mu + sigma * (_phi(a) - _phi(b)) / z


@functools.lru_cache(maxsize=64)
def solve_truncation_mu(
    target_mean: float, sigma: float, low: float, high: float, iterations: int = 200
) -> float:
    """The underlying normal mean whose truncated mean equals ``target_mean``.

    The truncated mean is strictly increasing in mu, so bisection over a
    bracket wide enough to pin the target converges unconditionally —
    including near the window edges where fixed-point iteration crawls.
    Memoised: every packet generator solves the same two payload models
    of its profile, and a facility builds one generator per server.
    """
    if not low < target_mean < high:
        raise ValueError(
            f"target mean {target_mean!r} outside window ({low!r}, {high!r})"
        )
    span = 10.0 * sigma + (high - low)
    lo_mu, hi_mu = low - span, high + span
    for _ in range(iterations):
        mid = 0.5 * (lo_mu + hi_mu)
        try:
            value = truncated_normal_mean(mid, sigma, low, high)
        except ValueError:
            # mu so far outside the window that the mass underflows:
            # the truncated mean has saturated at the nearer boundary
            value = low if mid < low else high
        if value < target_mean:
            lo_mu = mid
        else:
            hi_mu = mid
        if hi_mu - lo_mu < 1e-12 * max(1.0, abs(target_mean)):
            break
    return 0.5 * (lo_mu + hi_mu)


class MessageType(enum.Enum):
    """Application message categories carried in UDP payloads."""

    CLIENT_UPDATE = "client_update"
    SERVER_SNAPSHOT = "server_snapshot"
    CONNECT_REQUEST = "connect_request"
    CONNECT_REPLY = "connect_reply"
    DISCONNECT = "disconnect"
    TEXT_CHAT = "text_chat"
    VOICE_DATA = "voice_data"
    DOWNLOAD_CHUNK = "download_chunk"
    KEEPALIVE = "keepalive"


#: Fixed payload sizes for control messages (bytes).  Values follow the
#: Half-Life engine's small out-of-band control packets.
CONTROL_PAYLOADS = {
    MessageType.CONNECT_REQUEST: 52,
    MessageType.CONNECT_REPLY: 96,
    MessageType.DISCONNECT: 16,
    MessageType.KEEPALIVE: 12,
}


@dataclass(frozen=True)
class PayloadModel:
    """Truncated-normal payload-size model for one traffic direction.

    ``mean`` is the *underlying* normal mean; :attr:`effective_mean` is
    the mean of the truncated distribution actually sampled.  Use
    :meth:`targeting` to build a model whose effective mean hits a
    calibration target exactly.
    """

    mean: float
    std: float
    minimum: float
    maximum: float

    @classmethod
    def targeting(
        cls, target_mean: float, std: float, minimum: float, maximum: float
    ) -> "PayloadModel":
        """A model whose truncated mean equals ``target_mean``."""
        return cls(
            mean=solve_truncation_mu(target_mean, std, minimum, maximum),
            std=std,
            minimum=minimum,
            maximum=maximum,
        )

    @property
    def effective_mean(self) -> float:
        """Mean of the truncated distribution being sampled."""
        return truncated_normal_mean(self.mean, self.std, self.minimum, self.maximum)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw integer payload sizes."""
        values = sample_truncated_normal(
            rng, self.mean, self.std, self.minimum, self.maximum, size=size
        )
        if size is None:
            return int(round(values))
        return np.rint(values).astype(np.int64)


@dataclass(frozen=True)
class ProtocolModel:
    """The complete per-direction payload model for one server profile."""

    client_update: PayloadModel
    server_snapshot: PayloadModel
    download_chunk_payload: int

    @classmethod
    def from_profile(cls, profile: ServerProfile) -> "ProtocolModel":
        """Build the payload models from a :class:`ServerProfile`."""
        return cls(
            client_update=PayloadModel.targeting(
                target_mean=profile.inbound_payload_mean,
                std=profile.inbound_payload_std,
                minimum=profile.inbound_payload_min,
                maximum=profile.inbound_payload_max,
            ),
            server_snapshot=PayloadModel.targeting(
                target_mean=profile.outbound_payload_mean,
                std=profile.outbound_payload_std,
                minimum=profile.outbound_payload_min,
                maximum=profile.outbound_payload_max,
            ),
            download_chunk_payload=profile.download_chunk_payload,
        )
