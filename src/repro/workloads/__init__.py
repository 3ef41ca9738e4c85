"""Workload builders: the calibrated Olygamer week, last-mile link
catalogue, and background web traffic for the caching ablation."""

from repro.workloads.aggregation import (
    aggregate_servers,
    offered_pps,
    required_capacity_linear,
)
from repro.workloads.links import (
    LINK_CATALOGUE,
    LastMileLink,
    saturation_report,
)
from repro.workloads.scenarios import (
    DEFAULT_PACKET_WINDOW,
    Scenario,
    clear_scenario_cache,
    olygamer_scenario,
)
from repro.workloads.web import WebTrafficModel, generate_web_packets, interleave_streams

__all__ = [
    "DEFAULT_PACKET_WINDOW",
    "LINK_CATALOGUE",
    "LastMileLink",
    "Scenario",
    "WebTrafficModel",
    "aggregate_servers",
    "clear_scenario_cache",
    "offered_pps",
    "required_capacity_linear",
    "generate_web_packets",
    "interleave_streams",
    "olygamer_scenario",
    "saturation_report",
]
