"""Streaming aggregation of per-server series and traces.

Facility-level answers need sums and merges over N servers without ever
holding N full per-server artifacts: a week of per-second series is
~20 MB per server, a busy packet window tens of millions of rows.  The
two accumulators here consume per-server results one at a time (in
server-index order — :func:`~repro.fleet.execution.shard_map_fold`
guarantees that) and keep only the running aggregate plus a bounded
fan-in buffer.

Determinism: :class:`FluidAccumulator` adds series in index order, and
:class:`TraceAccumulator` concatenates in index order with a *stable*
timestamp sort, so batching (any fan-in) and worker count cannot
change the result — ties between servers always resolve to the lower
server index, and ties within a server keep generation order.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.gameserver.fluid import FluidSeries
from repro.trace.trace import _COLUMNS, Trace


# ----------------------------------------------------------------------
# fluid series
# ----------------------------------------------------------------------
def sum_fluid_series(
    accumulator: Optional[FluidSeries], series: FluidSeries
) -> FluidSeries:
    """Fold step: add one server's series into the running aggregate.

    Series must share ``bin_size`` and ``start_time``; length differences
    (horizons rounding differently) are padded with zeros to the longer.
    """
    if accumulator is None:
        return series
    if series.bin_size != accumulator.bin_size:
        raise ValueError(
            f"bin_size mismatch: {series.bin_size!r} vs {accumulator.bin_size!r}"
        )
    if series.start_time != accumulator.start_time:
        raise ValueError(
            f"start_time mismatch: {series.start_time!r} vs "
            f"{accumulator.start_time!r}"
        )
    length = max(len(accumulator), len(series))

    def padded_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.zeros(length, dtype=np.float64)
        out[: a.size] += a
        out[: b.size] += b
        return out

    return FluidSeries(
        bin_size=accumulator.bin_size,
        start_time=accumulator.start_time,
        in_counts=padded_sum(accumulator.in_counts, series.in_counts),
        out_counts=padded_sum(accumulator.out_counts, series.out_counts),
        in_bytes=padded_sum(accumulator.in_bytes, series.in_bytes),
        out_bytes=padded_sum(accumulator.out_bytes, series.out_bytes),
    )


def merge_fluid_series(series: Iterable[FluidSeries]) -> FluidSeries:
    """Sum an iterable of per-server series into one facility series."""
    accumulator: Optional[FluidSeries] = None
    for item in series:
        accumulator = sum_fluid_series(accumulator, item)
    if accumulator is None:
        raise ValueError("no series to merge")
    return accumulator


class FluidAccumulator:
    """Streaming facility series: feed per-server series, read the sum."""

    def __init__(self) -> None:
        self._aggregate: Optional[FluidSeries] = None
        self.servers_added = 0

    def add(self, series: FluidSeries) -> "FluidAccumulator":
        """Fold one server in (returns self, so it works as a fold step)."""
        self._aggregate = sum_fluid_series(self._aggregate, series)
        self.servers_added += 1
        return self

    def result(self) -> FluidSeries:
        """The facility aggregate accumulated so far."""
        if self._aggregate is None:
            raise ValueError("no series accumulated")
        return self._aggregate


# ----------------------------------------------------------------------
# packet traces
# ----------------------------------------------------------------------
def kway_merge_traces(traces: List[Trace]) -> Trace:
    """One-pass k-way merge of time-sorted traces.

    Columns are concatenated in the given order and stably argsorted by
    timestamp, so equal timestamps keep source order (earlier list
    position first, generation order within a source).  The merged
    ``server_address`` is the common one when every non-empty input
    agrees, else ``None`` — a facility trace spanning several servers has
    no single vantage point.  The overhead model is taken from the first
    non-empty input.
    """
    non_empty = [t for t in traces if len(t)]
    if not non_empty:
        if traces:
            return traces[0]
        return Trace.empty()
    if len(non_empty) == 1:
        return non_empty[0]
    addresses = {t.server_address for t in non_empty}
    server_address = addresses.pop() if len(addresses) == 1 else None
    columns = {
        name: np.concatenate([getattr(t, name) for t in non_empty])
        for name in _COLUMNS
    }
    order = np.argsort(columns["timestamps"], kind="stable")
    columns = {name: col[order] for name, col in columns.items()}
    return Trace(
        server_address=server_address,
        overhead=non_empty[0].overhead,
        check_sorted=False,
        **columns,
    )


#: Per-server traces :class:`TraceAccumulator` buffers before one merge.
FANIN = 8


class TraceAccumulator:
    """Streaming facility trace with bounded fan-in.

    Feeding N per-server traces one at a time would either hold all N
    (flat k-way merge at the end) or re-sort the growing aggregate N
    times (pairwise merge).  This buffers up to :data:`FANIN` pending
    traces and collapses buffer + aggregate in one k-way merge, keeping
    at most :data:`FANIN` per-server traces alive while doing one sort
    over the aggregate per :data:`FANIN` servers.  Because the merge is
    stable and feeds arrive in server-index order, the result equals one
    flat k-way merge of every trace.
    """

    def __init__(self) -> None:
        self._aggregate: Optional[Trace] = None
        self._pending: List[Trace] = []
        self.servers_added = 0

    def add(self, trace: Trace) -> "TraceAccumulator":
        """Fold one server's trace in (returns self)."""
        self._pending.append(trace)
        self.servers_added += 1
        if len(self._pending) >= FANIN:
            self._collapse()
        return self

    def _collapse(self) -> None:
        batch = ([self._aggregate] if self._aggregate is not None else []) + (
            self._pending
        )
        self._pending = []
        self._aggregate = kway_merge_traces(batch)

    def result(self) -> Trace:
        """The merged facility trace accumulated so far."""
        if self._pending:
            self._collapse()
        if self._aggregate is None:
            raise ValueError("no traces accumulated")
        return self._aggregate
