"""Packet-trace storage: records, columnar container, pcap and compact formats.

The trace layer is the boundary between generation (:mod:`repro.gameserver`)
and analysis (:mod:`repro.core`): simulators produce :class:`Trace` objects
and every figure/table pipeline consumes them.  Real libpcap captures can
be ingested through :func:`read_pcap`, making the analysis side directly
reusable on actual server traces like the one the paper collected.
"""

from repro.trace.flows import FlowStats, extract_flows, flow_bandwidths
from repro.trace.format import TraceFormatError, load_trace, save_trace
from repro.trace.packet import Direction
from repro.trace.pcap import PcapFormatError, read_pcap, write_pcap
from repro.trace.trace import Trace, TraceBuilder

__all__ = [
    "Direction",
    "FlowStats",
    "PcapFormatError",
    "Trace",
    "TraceBuilder",
    "TraceFormatError",
    "extract_flows",
    "flow_bandwidths",
    "load_trace",
    "read_pcap",
    "save_trace",
    "write_pcap",
]
