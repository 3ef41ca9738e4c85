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


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_MULT_L, _SS_MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_SS_XSHIFT = 16
_SS_POOL_SIZE = 4
_UINT32_MASK = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (pcg64.h, PCG_DEFAULT_MULTIPLIER_128)
_PCG64_MULT = (0x2360ED051FC65DA4 << 64) | 0x4385DF649FCCF645
_UINT128_MASK = (1 << 128) - 1


def seed_sequence_words(seeds: Sequence[int]) -> np.ndarray:
    """``np.random.SeedSequence(seed).generate_state(4, np.uint64)`` per seed.

    One row of four uint64 words per seed: the words ``PCG64`` (and so
    ``np.random.default_rng(seed)``) seeds itself from, with
    ``SeedSequence``'s uint32 hash mix run over all seeds at once
    instead of one object per seed.  Seeds are 64-bit unsigned ints:
    at most two uint32 words, which ``SeedSequence`` zero-pads to its
    four-word pool, so one word layout covers them all.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    hash_const = _SS_INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _SS_MULT_A) & _UINT32_MASK
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(_SS_XSHIFT))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        value = x * np.uint32(_SS_MIX_MULT_L) - y * np.uint32(_SS_MIX_MULT_R)
        return value ^ (value >> np.uint32(_SS_XSHIFT))

    zeros = np.zeros(seeds.size, dtype=np.uint32)
    entropy = [
        (seeds & np.uint64(_UINT32_MASK)).astype(np.uint32),
        (seeds >> np.uint64(32)).astype(np.uint32),
    ] + [zeros] * (_SS_POOL_SIZE - 2)
    words = np.empty((seeds.size, 8), dtype=np.uint32)
    with np.errstate(over="ignore"):
        # SeedSequence.mix_entropy
        pool = [hashmix(word) for word in entropy]
        for src in range(_SS_POOL_SIZE):
            for dst in range(_SS_POOL_SIZE):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        # SeedSequence.generate_state: eight uint32 words cycling the
        # pool, paired little-endian into four uint64s
        hash_const = _SS_INIT_B
        for k in range(8):
            value = pool[k % _SS_POOL_SIZE] ^ np.uint32(hash_const)
            hash_const = (hash_const * _SS_MULT_B) & _UINT32_MASK
            value = value * np.uint32(hash_const)
            words[:, k] = value ^ (value >> np.uint32(_SS_XSHIFT))
    return words.astype("<u4").view("<u8").astype(np.uint64)


def pcg64_state(words: Sequence[int]) -> Tuple[int, int]:
    """PCG64 ``(state, inc)`` after seeding from four SeedSequence words.

    ``pcg64_state(seed_sequence_words([seed])[0])`` is where
    ``np.random.default_rng(seed)`` starts.  A fresh generator has no
    buffered ``uint32``, so setting ``{"state": state, "inc": inc}``
    (with ``has_uint32`` 0) on any PCG64 bit generator makes it draw
    exactly what ``default_rng(seed)`` would.
    """
    hi_seed, lo_seed, hi_inc, lo_inc = map(int, words)
    # pcg_setseq_128_srandom_r: inc = initseq << 1 | 1; state = 0;
    # step; state += initstate; step
    inc = ((((hi_inc << 64) | lo_inc) << 1) | 1) & _UINT128_MASK
    init = (hi_seed << 64) | lo_seed
    return ((inc + init) * _PCG64_MULT + inc) & _UINT128_MASK, inc


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

    def fresh(self, name: str) -> np.random.Generator:
        """A new generator at the start of ``name``'s sequence.

        It draws what the first :meth:`get` of ``name`` drew, whatever
        ``get``'s generator has drawn since, so a method that draws only
        from ``fresh`` returns the same result on every call.
        """
        return np.random.default_rng(derive_seed(self.master_seed, name))

    def spawn(self, name: str) -> "RandomStreams":
        """Create a child stream family (e.g. one per simulated client)."""
        return RandomStreams(derive_seed(self.master_seed, f"spawn:{name}"))


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
