"""Reproducible named random streams and the distributions the models use.

Every stochastic model in the repository draws from a named substream of a
single master seed, so that (a) whole experiments are reproducible from one
integer and (b) adding draws to one model does not perturb another — the
classic "common random numbers" discipline for simulation studies.

Distribution helpers cover what the traffic models need: exponential
interarrivals, lognormal session durations parameterised by mean and
coefficient of variation, truncated normals for payload sizes, and
discrete empirical distributions for protocol message mixes.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Sequence, Tuple

import numpy as np


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a stable 64-bit child seed from ``(master_seed, name)``.

    Uses SHA-256 rather than Python's ``hash`` so the mapping is stable
    across processes and interpreter versions.
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RandomStreams:
    """A factory of named, independent :class:`numpy.random.Generator` streams.

    >>> streams = RandomStreams(42)
    >>> a = streams.get("arrivals")
    >>> b = streams.get("payloads")
    >>> a is streams.get("arrivals")
    True

    The same ``(seed, name)`` pair always yields the same sequence.
    """

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``."""
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(
                derive_seed(self.master_seed, name)
            )
        return self._streams[name]

    def spawn(self, name: str) -> "RandomStreams":
        """Create a child stream family (e.g. one per simulated client)."""
        return RandomStreams(derive_seed(self.master_seed, f"spawn:{name}"))

    def names(self) -> Tuple[str, ...]:
        """Names of streams created so far (mainly for tests)."""
        return tuple(sorted(self._streams))


def lognormal_params(mean: float, cv: float) -> Tuple[float, float]:
    """Convert a (mean, coefficient-of-variation) pair to lognormal (mu, sigma).

    A lognormal with these parameters has exactly the requested arithmetic
    mean and CV.  Raises ``ValueError`` for non-positive mean or negative CV.
    """
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean!r}")
    if cv < 0:
        raise ValueError(f"cv must be non-negative, got {cv!r}")
    sigma_sq = np.log(1.0 + cv * cv)
    mu = np.log(mean) - 0.5 * sigma_sq
    return float(mu), float(np.sqrt(sigma_sq))


def sample_lognormal(
    rng: np.random.Generator, mean: float, cv: float, size: Optional[int] = None
):
    """Sample a lognormal given arithmetic mean and coefficient of variation."""
    mu, sigma = lognormal_params(mean, cv)
    return rng.lognormal(mu, sigma, size=size)


#: Rejection rounds of :func:`sample_truncated_normal` before it clips.
_TRUNCATION_ROUNDS = 64
#: Fewest normals one rejection round draws.
_MIN_ROUND_DRAWS = 16


def sample_truncated_normal(
    rng: np.random.Generator,
    mean: float,
    std: float,
    low: float,
    high: float,
    size: Optional[int] = None,
):
    """Sample a normal clipped by rejection to ``[low, high]``.

    Rejection keeps the shape of the density inside the window (unlike
    clipping, which piles mass on the bounds).  Falls back to clipping
    after a bounded number of rounds, which can only occur for windows in
    the extreme tail.
    """
    if low >= high:
        raise ValueError(f"empty interval [{low!r}, {high!r}]")
    if size is None:
        # the per-packet path: the same draws as ``size=1`` (one minimal
        # round at a time, first draw inside the window) without the masks
        for _ in range(_TRUNCATION_ROUNDS):
            for draw in rng.normal(mean, std, size=_MIN_ROUND_DRAWS).tolist():
                if low <= draw <= high:
                    return draw
        return float(np.clip(rng.normal(mean, std, size=1), low, high)[0])
    want = int(size)
    out = np.empty(want, dtype=float)
    filled = 0
    for _ in range(_TRUNCATION_ROUNDS):
        need = want - filled
        if need <= 0:
            break
        draws = rng.normal(mean, std, size=max(need * 2, _MIN_ROUND_DRAWS))
        good = draws[(draws >= low) & (draws <= high)]
        take = min(need, good.size)
        out[filled : filled + take] = good[:take]
        filled += take
    if filled < want:  # pathological window: clip the remainder
        rest = np.clip(rng.normal(mean, std, size=want - filled), low, high)
        out[filled:] = rest
    return out


class DiscreteEmpirical:
    """A discrete distribution over arbitrary values with given weights.

    Used for protocol message mixes (e.g. "70% movement updates of ~X
    bytes, 20% events, 10% voice").  Weights are normalised; values may
    be any numpy-compatible scalars.
    """

    def __init__(self, values: Sequence[float], weights: Sequence[float]) -> None:
        values = np.asarray(values, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if values.shape != weights.shape or values.ndim != 1:
            raise ValueError("values and weights must be equal-length 1-D sequences")
        if values.size == 0:
            raise ValueError("empty distribution")
        if np.any(weights < 0) or not np.any(weights > 0):
            raise ValueError("weights must be non-negative with positive total")
        self.values = values
        self.probabilities = weights / weights.sum()

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw one value (or ``size`` values) according to the weights."""
        return rng.choice(self.values, size=size, p=self.probabilities)

    @property
    def mean(self) -> float:
        """Expected value of the distribution."""
        return float(np.dot(self.values, self.probabilities))

    @property
    def variance(self) -> float:
        """Variance of the distribution."""
        mean = self.mean
        return float(np.dot((self.values - mean) ** 2, self.probabilities))
