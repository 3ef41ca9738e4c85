"""Memory bounds of the paper analyses that held data nothing reads.

Fig 5's six-hour, 10 ms count window, Figs 12/13's packet-size
distributions and the week's per-second series once set the `paper`
reproduction's peak memory.  Each is
measured here with ``tracemalloc`` above a warmed seed-0 week (the
population, the default packet window and the per-second series that
every paper run shares), so the bounds hold the analysis's own
allocations only.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.experiments import fig1, fig5, fig12, table1, table2
from repro.workloads import scenarios
from repro.workloads.scenarios import (
    clear_scenario_cache,
    olygamer_packet_sizes,
    olygamer_scenario,
)

MB = 1 << 20


def _traced(call):
    """(peak, retained) bytes ``call()`` allocates above the current state."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        del result
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, retained


@pytest.fixture(scope="module")
def warm_week():
    clear_scenario_cache()
    for experiment in (table1, table2, fig1):
        experiment.run(0)
    yield
    clear_scenario_cache()


def test_fig5_peak(warm_week):
    peak, _ = _traced(lambda: fig5.run(0))
    assert peak <= 60 * MB, f"fig5 peaked {peak / MB:.1f} MB above the warm week"


def test_packet_sizes_retained(warm_week):
    scenarios._packet_size_cache.clear()
    _, retained = _traced(lambda: olygamer_packet_sizes(0))
    assert retained <= 1 * MB, (
        f"the packet-size analysis holds {retained / MB:.1f} MB"
    )


def test_fig12_peak(warm_week):
    scenarios._packet_size_cache.clear()
    peak, _ = _traced(lambda: fig12.run(0))
    assert peak <= 45 * MB, f"fig12 peaked {peak / MB:.1f} MB above the warm week"


def test_per_second_peak(warm_week):
    # the four returned columns are 18.5 MB of it
    per_second = olygamer_scenario(0).fluid_generator.per_second
    peak, _ = _traced(per_second)
    assert peak <= 35 * MB, (
        f"the per-second series peaked {peak / MB:.1f} MB above the warm week"
    )
