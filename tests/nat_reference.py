"""Test oracle: NAT table upkeep, one ``touch`` per forwarded packet.

:func:`repro.router.nat._update_table` walks only the rows where a
binding can be missing.  This module keeps the loop it must reproduce
in its original form: for each forwarded packet in order, look up the
remote endpoint's binding, move its ``last_used`` if present, and call
``touch`` (which expires stale bindings first) if not.

``tests/`` is not a package: test modules import this file by name (the
test directory is on ``sys.path`` under pytest).
"""

from __future__ import annotations

import numpy as np

from repro.router.nat import NatTable
from repro.trace.packet import Direction
from repro.trace.trace import Trace


def reference_update_table(table: NatTable, trace: Trace, rows: np.ndarray) -> None:
    """Touch ``table`` for each of ``rows`` of ``trace``, one row at a time."""
    bindings = table._bindings
    for row in rows.tolist():
        if trace.directions[row] == np.int8(Direction.OUT):
            key = (int(trace.dst_addrs[row]), int(trace.dst_ports[row]))
        else:
            key = (int(trace.src_addrs[row]), int(trace.src_ports[row]))
        now = float(trace.timestamps[row])
        binding = bindings.get(key)
        if binding is None:
            table.touch(*key, now)
        else:
            binding.last_used = now
