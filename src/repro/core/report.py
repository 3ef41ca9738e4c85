"""Plain-text rendering of experiment outputs.

Every experiment ends in a "paper vs measured" table printed to stdout
by ``repro-experiments``.  This module is the single place
that formats those tables, so all experiments report uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.stats.descriptive import relative_error, within_factor


@dataclass(frozen=True)
class ComparisonRow:
    """One paper-vs-measured quantity."""

    name: str
    paper: float
    measured: float
    unit: str = ""
    #: Multiplicative factor within which the row counts as reproduced.
    tolerance_factor: float = 1.5

    @property
    def ok(self) -> bool:
        """True when measured is within the tolerance factor of the paper."""
        return within_factor(self.measured, self.paper, self.tolerance_factor)

    @property
    def error(self) -> float:
        """Relative error vs the paper's value."""
        return relative_error(self.measured, self.paper)


def format_value(value: float) -> str:
    """Compact numeric formatting for table cells."""
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1e6:
        return f"{value:,.0f}"
    if magnitude >= 100:
        return f"{value:,.1f}"
    if magnitude >= 1:
        return f"{value:.2f}"
    return f"{value:.4f}"


def render_table(
    title: str,
    rows: Sequence[ComparisonRow],
    notes: Optional[Sequence[str]] = None,
) -> str:
    """Render a paper-vs-measured comparison as aligned plain text."""
    header = ("quantity", "paper", "measured", "err", "ok")
    body: List[tuple] = []
    for row in rows:
        body.append(
            (
                f"{row.name}{f' [{row.unit}]' if row.unit else ''}",
                format_value(row.paper),
                format_value(row.measured),
                f"{100.0 * row.error:.1f}%" if row.error != float("inf") else "inf",
                "yes" if row.ok else "NO",
            )
        )
    widths = [
        max(len(header[i]), *(len(line[i]) for line in body)) if body else len(header[i])
        for i in range(5)
    ]
    lines = [title, "-" * len(title)]
    lines.append(
        "  ".join(header[i].ljust(widths[i]) for i in range(5)).rstrip()
    )
    for line in body:
        lines.append("  ".join(line[i].ljust(widths[i]) for i in range(5)).rstrip())
    if notes:
        lines.append("")
        lines.extend(f"note: {note}" for note in notes)
    return "\n".join(lines)


def all_rows_ok(rows: Sequence[ComparisonRow]) -> bool:
    """True when every comparison row reproduces within tolerance."""
    return all(row.ok for row in rows)
