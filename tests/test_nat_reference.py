"""Parity suite: NAT table upkeep vs the per-packet oracle.

``NatDevice.run`` updates its table only at rows where a binding can be
missing (first sightings, and re-sightings after an idle gap longer
than the timeout).  ``nat_reference.py`` keeps the one-``touch``-per-row
loop.  Each case compares the whole table afterwards: counters, the
next port, and every binding's fields, in the table's own order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nat_reference import reference_update_table
from repro.net.addresses import IPv4Address
from repro.router.nat import NatTable, NatTableFullError, _update_table
from repro.trace.packet import Direction
from repro.trace.trace import Trace

PUBLIC = IPv4Address("64.0.0.1")
SERVER = 0x0A000001


def _trace(rng, n, start, span, endpoints):
    """``n`` packets over ``span`` seconds between the server and a few
    remote endpoints; ties in time are common on the 0.25 s grid."""
    t = start + np.sort(rng.integers(0, max(1, int(span * 4)), n)) * 0.25
    outbound = rng.random(n) < 0.5
    remote = rng.integers(0, endpoints, n)
    # a handful of addresses and ports: keys share addresses and ports
    addrs = (0x0B000000 + remote // 3).astype(np.uint32)
    ports = (27000 + remote % 3).astype(np.uint16)
    return Trace(
        timestamps=t,
        directions=np.where(outbound, np.int8(Direction.OUT), np.int8(Direction.IN)),
        src_addrs=np.where(outbound, SERVER, addrs),
        dst_addrs=np.where(outbound, addrs, SERVER),
        src_ports=np.where(outbound, 27015, ports),
        dst_ports=np.where(outbound, ports, 27015),
        payload_sizes=np.full(n, 60),
    )


def _state(table):
    return (
        table.created_total,
        table.expired_total,
        table.peak_size,
        table._next_port,
        [
            (key, b.internal, b.mapped_port, b.created, b.last_used)
            for key, b in table._bindings.items()
        ],
    )


def _update_both(tables, trace, rows):
    """Run both updates; the outcome (or the error) must agree."""
    outcomes = []
    for table, update in zip(tables, (_update_table, reference_update_table)):
        try:
            update(table, trace, rows)
            outcomes.append(None)
        except NatTableFullError as error:
            outcomes.append(str(error))
    assert outcomes[0] == outcomes[1]
    assert _state(tables[0]) == _state(tables[1])
    return outcomes[0]


class TestUpkeepParity:
    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 600),
        endpoints=st.integers(1, 40),
        idle_timeout=st.sampled_from([0.25, 1.0, 3.0, 300.0]),
        capacity=st.sampled_from([4, 1024]),
        prepopulate=st.integers(0, 6),
        runs=st.integers(1, 3),
    )
    def test_sweep_matches_oracle(self, seed, n, endpoints, idle_timeout,
                                  capacity, prepopulate, runs):
        rng = np.random.default_rng(seed)
        tables = [NatTable(PUBLIC, capacity=capacity, idle_timeout=idle_timeout)
                  for _ in range(2)]
        # bindings already in the table, some stale by the first packet
        for k in range(min(prepopulate, capacity)):
            for table in tables:
                table.touch(0x0B000000 + k, 27000 + k % 3, float(k) * 0.5)
        start = 5.0
        for _ in range(runs):
            trace = _trace(rng, n, start, span=20.0, endpoints=endpoints)
            # dropped and suppressed packets never reach translation
            rows = np.flatnonzero(rng.random(n) < 0.9)
            if _update_both(tables, trace, rows) is not None:
                break
            start += 25.0

    def test_expiry_and_rebinding(self):
        rng = np.random.default_rng(4)
        tables = [NatTable(PUBLIC, idle_timeout=1.0) for _ in range(2)]
        trace = _trace(rng, 400, 0.0, span=60.0, endpoints=12)
        assert _update_both(tables, trace, np.arange(400)) is None
        # some of the 12 endpoints were bound again after expiring
        assert tables[0].expired_total > 0
        assert tables[0].created_total > 12

    def test_full_table_raises_at_the_same_row(self):
        rng = np.random.default_rng(5)
        tables = [NatTable(PUBLIC, capacity=3, idle_timeout=50.0) for _ in range(2)]
        trace = _trace(rng, 200, 0.0, span=20.0, endpoints=10)
        error = _update_both(tables, trace, np.arange(200))
        assert error is not None and "NAT table full" in error
