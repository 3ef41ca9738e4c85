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
from repro.workloads.scenarios import olygamer_packet_sizes

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


#: Every point of ``fig5``'s stitched variance-time plot at seed 0 as
#: ``(block_size, interval_seconds, repr(normalized_variance))``: a
#: one-ulp drift in one block variance can hide behind the fitted H
#: values above, not here.
GOLDEN_FIG5_PLOT = (
    (1, 0.01, '1.0'),
    (2, 0.02, '0.3975467163659622'),
    (3, 0.03, '0.19699586141848116'),
    (4, 0.04, '0.09668006450837285'),
    (6, 0.06, '0.05849142051591066'),
    (7, 0.07, '0.05910488635182809'),
    (10, 0.1, '0.02804379604041156'),
    (13, 0.13, '0.034088746235143415'),
    (18, 0.18, '0.02851908813072869'),
    (24, 0.24, '0.024824938876153085'),
    (32, 0.32, '0.023665330363294032'),
    (42, 0.42, '0.022491783146100428'),
    (56, 0.56, '0.02150320706589455'),
    (75, 0.75, '0.020940100571989972'),
    (100, 1.0, '0.020667382783250293'),
    (133, 1.33, '0.020267273715612964'),
    (178, 1.78, '0.019966083943748693'),
    (237, 2.37, '0.019793250504208076'),
    (316, 3.16, '0.01945052779607747'),
    (422, 4.22, '0.019138763227200303'),
    (562, 5.62, '0.018754900159178793'),
    (750, 7.5, '0.019112022520763515'),
    (1000, 10.0, '0.01833055635362997'),
    (1334, 13.34, '0.017406997086008826'),
    (1778, 17.78, '0.01712471215876823'),
    (2371, 23.71, '0.016753837230756706'),
    (3162, 31.62, '0.01635843535812551'),
    (4217, 42.17, '0.01608337346173606'),
    (5623, 56.230000000000004, '0.01580224259239154'),
    (7499, 74.99, '0.01539372022244255'),
    (10000, 100.0, '0.014959208407287952'),
    (13335, 133.35, '0.014505383844117961'),
    (17783, 177.83, '0.014009125939041711'),
    (23714, 237.14000000000001, '0.01268026115078545'),
    (31623, 316.23, '0.01241019225320404'),
    (42170, 421.7, '0.011791642734602908'),
    (56234, 562.34, '0.009839199032147035'),
    (74989, 749.89, '0.009152762550642115'),
    (100000, 1000.0, '0.0075966411549138494'),
    (133352, 1333.52, '0.0062946032351612795'),
    (177828, 1778.28, '0.005227773872603168'),
    (237137, 2371.37, '0.00442451730757399'),
    (316200, 3162.0, '0.005377153703595143'),
    (464200, 4642.0, '0.004259103883475699'),
    (681300, 6813.0, '0.003946649688285645'),
    (1000000, 10000.0, '0.0035664647092496127'),
    (1467800, 14678.0, '0.0030898699435059677'),
    (2154400, 21544.0, '0.003085608050356706'),
    (3162300, 31623.0, '0.002284257642450735'),
    (4641600, 46416.0, '0.0010194311673326038'),
    (6812900, 68129.0, '0.0003584807364657286'),
)


#: ``olygamer_packet_sizes(0)``, the analysis Figs 12 and 13 share:
#: ``repr`` of its three means and, per direction, the PDF's bin
#: counts, the CDF at ``CDF_POINTS`` bytes and the ``QUANTILES``.  The
#: rows above read only a few of these numbers; a change to the CDF's
#: representation must keep all of them.
CDF_POINTS = (0.0, 40.0, 100.0, 200.0, 500.0, 1500.0)
QUANTILES = (0.25, 0.5, 0.75, 0.99)
GOLDEN_PACKET_SIZES = {
    'means': ('80.80318452225022', '39.70220289765093', '129.62160379233836'),
    'total': {
        'pdf_counts': (
            1, 83, 51151, 708598, 746665, 104616, 58510, 65993, 73407, 79260,
            83022, 85529, 84622, 82326, 78401, 72156, 64711, 56976, 49124, 41054,
            33673, 27191, 21485, 16532, 12526, 9283, 6927, 4854, 3382, 2366, 1519,
            1132, 695, 426, 295, 182, 102, 59, 35, 17, 14, 12, 7, 0, 0, 0, 0, 0,
            470, 0,
        ),
        'cdf': (
            '3.663823661632695e-07', '0.3191366272817836', '0.694813747692249',
            '0.9488834314199991', '1.0', '1.0',
        ),
        'quantiles': ('39.0', '46.0', '118.0', '254.0'),
    },
    'inbound': {
        'pdf_counts': (
            0, 83, 44974, 676377, 705319, 54849, 219, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ),
        'cdf': ('0.0', '0.5593516355889139', '1.0', '1.0', '1.0', '1.0'),
        'quantiles': ('36.0', '40.0', '43.0', '52.0'),
    },
    'outbound': {
        'pdf_counts': (
            1, 0, 6177, 32221, 41346, 49767, 58291, 65993, 73407, 79260, 83022,
            85529, 84622, 82326, 78401, 72156, 64711, 56976, 49124, 41054, 33673,
            27191, 21485, 16532, 12526, 9283, 6927, 4854, 3382, 2366, 1519, 1132,
            695, 426, 295, 182, 102, 59, 35, 17, 14, 12, 7, 0, 0, 0, 0, 0, 470, 0,
        ),
        'cdf': (
            '8.015595141908096e-07', '0.03381699434419607', '0.3323233683454529',
            '0.8881688212586408', '1.0', '1.0',
        ),
        'quantiles': ('87.0', '125.0', '166.0', '275.0'),
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


def test_fig5_plot_pinned():
    plot = _seed0("fig5").extras["plot"]
    assert plot.base_interval == 0.01
    points = tuple(
        (p.block_size, p.interval_seconds, repr(p.normalized_variance))
        for p in plot.points
    )
    assert points == GOLDEN_FIG5_PLOT


def test_packet_sizes_pinned():
    analysis = olygamer_packet_sizes(0)
    means = (analysis.mean_total, analysis.mean_in, analysis.mean_out)
    assert tuple(repr(mean) for mean in means) == GOLDEN_PACKET_SIZES["means"]
    for name in ("total", "inbound", "outbound"):
        pdf = getattr(analysis, f"{name}_pdf")
        cdf = getattr(analysis, f"{name}_cdf")
        golden = GOLDEN_PACKET_SIZES[name]
        assert tuple(pdf.counts.tolist()) == golden["pdf_counts"]
        assert tuple(repr(cdf(x)) for x in CDF_POINTS) == golden["cdf"]
        assert tuple(repr(cdf.quantile(q)) for q in QUANTILES) == golden["quantiles"]
