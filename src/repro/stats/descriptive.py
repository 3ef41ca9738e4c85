"""Descriptive statistics helpers shared by the analyses."""

from __future__ import annotations


def relative_error(measured: float, reference: float) -> float:
    """|measured − reference| / |reference| (inf when reference is 0 and they differ)."""
    if reference == 0:
        return 0.0 if measured == 0 else float("inf")
    return abs(measured - reference) / abs(reference)


def within_factor(measured: float, reference: float, factor: float) -> bool:
    """True when measured is within a multiplicative ``factor`` of reference.

    Both quantities must be positive; this is the "same order, same
    winner" comparison EXPERIMENTS.md uses for paper-vs-measured rows.
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor!r}")
    if measured <= 0 or reference <= 0:
        return measured == reference
    ratio = measured / reference
    return 1.0 / factor <= ratio <= factor
