"""Distribution fitting and goodness-of-fit, from first principles.

Supports the source-model pipeline (§IV-B): fit candidate analytic
distributions to empirical samples by maximum likelihood, score them
with the Kolmogorov–Smirnov statistic (implemented directly), and pick
the best.  Candidates cover what game traffic needs: normal (payload
sizes, jittered spacings), lognormal (session durations, transfer
sizes), exponential (interarrivals of session-level events), and
deterministic-plus-jitter (the tick).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np


def _normal_cdf(x: np.ndarray, mean: float, std: float) -> np.ndarray:
    if std <= 0:
        return (x >= mean).astype(float)
    z = (np.asarray(x, dtype=float) - mean) / (std * math.sqrt(2.0))
    return 0.5 * (1.0 + np.vectorize(math.erf)(z))


@dataclass(frozen=True)
class FittedDistribution:
    """One fitted candidate: family name, parameters, KS distance."""

    family: str
    params: Dict[str, float]
    ks_statistic: float
    n_samples: int

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw from the fitted distribution."""
        params = self.params
        if self.family == "normal":
            return rng.normal(params["mean"], params["std"], size=size)
        if self.family == "lognormal":
            return rng.lognormal(params["mu"], params["sigma"], size=size)
        if self.family == "exponential":
            return rng.exponential(params["scale"], size=size)
        if self.family == "deterministic":
            value = params["value"]
            if size is None:
                return value
            return np.full(size, value)
        raise ValueError(f"unknown family {self.family!r}")

    def cdf(self, x) -> np.ndarray:
        """Evaluate the fitted CDF."""
        x = np.asarray(x, dtype=float)
        params = self.params
        if self.family == "normal":
            return _normal_cdf(x, params["mean"], params["std"])
        if self.family == "lognormal":
            result = np.zeros_like(x)
            positive = x > 0
            result[positive] = _normal_cdf(
                np.log(x[positive]), params["mu"], params["sigma"]
            )
            return result
        if self.family == "exponential":
            return np.where(x < 0, 0.0, 1.0 - np.exp(-x / params["scale"]))
        if self.family == "deterministic":
            return (x >= params["value"]).astype(float)
        raise ValueError(f"unknown family {self.family!r}")

    @property
    def mean(self) -> float:
        """Analytic mean of the fitted distribution."""
        params = self.params
        if self.family == "normal":
            return params["mean"]
        if self.family == "lognormal":
            return math.exp(params["mu"] + 0.5 * params["sigma"] ** 2)
        if self.family == "exponential":
            return params["scale"]
        if self.family == "deterministic":
            return params["value"]
        raise ValueError(f"unknown family {self.family!r}")


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """Kolmogorov–Smirnov distance between samples and a CDF callable.

    D = sup_x |F_n(x) − F(x)| computed at the sorted sample points (where
    the supremum of the step-function difference is attained).
    """
    samples = np.sort(np.asarray(samples, dtype=float))
    n = samples.size
    if n == 0:
        raise ValueError("need samples for a KS statistic")
    theoretical = np.asarray(cdf(samples), dtype=float)
    upper = np.arange(1, n + 1) / n - theoretical
    lower = theoretical - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def fit_normal(samples: np.ndarray) -> FittedDistribution:
    """MLE normal fit."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        raise ValueError("need >= 2 samples")
    mean = float(samples.mean())
    std = float(samples.std())
    fitted = FittedDistribution("normal", {"mean": mean, "std": std}, 0.0,
                                samples.size)
    return FittedDistribution(
        "normal", fitted.params, ks_statistic(samples, fitted.cdf), samples.size
    )


def fit_lognormal(samples: np.ndarray) -> FittedDistribution:
    """MLE lognormal fit (requires strictly positive samples)."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        raise ValueError("need >= 2 samples")
    if np.any(samples <= 0):
        raise ValueError("lognormal requires positive samples")
    logs = np.log(samples)
    params = {"mu": float(logs.mean()), "sigma": float(max(logs.std(), 1e-12))}
    fitted = FittedDistribution("lognormal", params, 0.0, samples.size)
    return FittedDistribution(
        "lognormal", params, ks_statistic(samples, fitted.cdf), samples.size
    )


def fit_exponential(samples: np.ndarray) -> FittedDistribution:
    """MLE exponential fit (requires non-negative samples)."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        raise ValueError("need >= 2 samples")
    if np.any(samples < 0):
        raise ValueError("exponential requires non-negative samples")
    params = {"scale": float(max(samples.mean(), 1e-12))}
    fitted = FittedDistribution("exponential", params, 0.0, samples.size)
    return FittedDistribution(
        "exponential", params, ks_statistic(samples, fitted.cdf), samples.size
    )


def fit_best(
    samples: np.ndarray,
    families: Sequence[str] = ("normal", "lognormal", "exponential"),
) -> FittedDistribution:
    """Fit every requested family and return the lowest-KS one.

    Families whose support excludes the samples (e.g. lognormal on
    non-positive data) are skipped.
    """
    fitters = {
        "normal": fit_normal,
        "lognormal": fit_lognormal,
        "exponential": fit_exponential,
    }
    best: Optional[FittedDistribution] = None
    for family in families:
        if family not in fitters:
            raise ValueError(f"unknown family {family!r}")
        try:
            candidate = fitters[family](samples)
        except ValueError:
            continue
        if best is None or candidate.ks_statistic < best.ks_statistic:
            best = candidate
    if best is None:
        raise ValueError("no candidate family admits these samples")
    return best
