"""Golden pins of the paper analyses' outputs.

Every comparison row of the packet-window analyses (Tables II-IV,
Figs 5-8 and 11-15) is pinned here as ``repr(row.measured)`` at seed 0,
so a rewrite of an analysis (``NetworkUsage``, ``PacketSizeAnalysis``,
``PeriodicityAnalysis``, ``packet_load_series``/``interval_counts``,
``Trace.time_slice``, the fluid gap mask, the NAT replay) that moves a
single float bit fails here, naming the experiment and the row.  The
synthesis layers under them are pinned by ``test_paper_path_golden.py``.

If a change is *intentional*, regenerate the constants with
``repr(row.measured)`` over ``REGISTRY[id](0, RunConfig()).rows`` and
say so in the commit.
"""

from __future__ import annotations

import functools

import pytest

from repro.experiments.base import ExperimentOutput, RunConfig
from repro.experiments.runner import REGISTRY

GOLDEN_MEASURED = {
    'table2': {
        'mean packet load': '758.1636111111111',
        'mean packet load in': '411.61694444444447',
        'mean packet load out': '346.5466666666667',
        'mean bandwidth': '817.6229533333334',
        'mean bandwidth in': '308.5553155555556',
        'mean bandwidth out': '509.0676377777778',
        'total packets (extrapolated)': '474972064.59805554',
        'total bytes (extrapolated)': '64.02774686692584',
    },
    'table3': {
        'mean packet size': '80.80318452225022',
        'mean packet size in': '39.70220289765093',
        'mean packet size out': '129.62160379233836',
        'total app bytes (extrapolated)': '38.37925537863083',
        'app bytes in (extrapolated)': '10.23794943365722',
        'app bytes out (extrapolated)': '28.14130594497361',
    },
    'fig5': {
        'sub-tick H below 1/2': '1.0',
        'mid-regime H elevated above long-term': '1.0',
        'long-term H': '0.6919247828373434',
        'three-regime shape holds': '1.0',
    },
    'fig6': {
        'recovered tick period': '0.05',
        'peak 10ms packet load': '2300.0',
        'burst peak-to-mean ratio >= 2': '1.0',
    },
    'fig7': {
        'outbound much burstier than inbound (index ratio)': '15.823222320490904',
        'outbound peak 10ms load': '1700.0',
        'inbound peak well below outbound peak': '1.0',
    },
    'fig8': {
        '50ms series much smoother than 10ms (CV ratio)': '11.24727474825156',
        '50ms peak below 1500 pps': '1.0',
        'mean packet load': '657.2',
    },
    'fig12': {
        'mean payload in': '39.70220289765093',
        'mean payload out': '129.62160379233836',
        'fraction of packets under 200B': '0.9488834314199991',
        'outbound spread much wider than inbound (IQR ratio)': '11.285714285714286',
        'negligible mass beyond 500B truncation': '0.0',
    },
    'fig13': {
        'inbound packets under 60B': '0.999923742476318',
        'outbound packets under 300B': '0.9961525143318841',
        'outbound spread across 0-300B (p90 - p10)': '146.0',
        'game mean far below exchange-point mean': '1.0',
    },
    'fig11': {
        'modal flow bandwidth': '39.0',
        'fraction pegged at/below modem rates': '0.9836065573770492',
        'some flows exceed the 56kbps barrier': '1.0',
        'high-speed tail is a small minority': '1.0',
    },
    'table4': {
        'incoming loss rate': '0.011550817614788163',
        'outgoing loss rate': '0.00036822937158883406',
        'loss asymmetry (in/out)': '31.368539573442387',
        'clients->NAT packets': '718737.0',
        'server->NAT packets': '594738.0',
        'incoming loss within tolerable 1-2% band': '1.0',
    },
    'fig14': {
        'clients->NAT load relatively stable (CV)': '0.10813718342457543',
        'NAT->server shows drop-out seconds': '1.0',
        'drop-outs are frequent (several per map)': '1.0',
        'min forwarded rate dips well below offered': '1.0',
    },
    'fig15': {
        'freezes occurred': '1.0',
        'outgoing load dips during freezes (rate ratio)': '0.7635076766095803',
        'outgoing drop-outs correlated with inbound loss': '1.0',
        'outgoing loss stays tiny despite dips': '1.0',
    },
}


@functools.lru_cache(maxsize=None)
def _seed0(experiment_id: str) -> ExperimentOutput:
    return REGISTRY[experiment_id](0, RunConfig())


@pytest.mark.parametrize("experiment_id", sorted(GOLDEN_MEASURED))
def test_measured_values_pinned(experiment_id):
    output = _seed0(experiment_id)
    measured = {row.name: repr(row.measured) for row in output.rows}
    assert measured == GOLDEN_MEASURED[experiment_id]
