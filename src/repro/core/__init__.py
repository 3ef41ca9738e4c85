"""The paper's analyses: summaries, time series, self-similarity,
packet sizes, per-flow bandwidth, periodicity, provisioning,
facility-level fleet envelopes, and the NAT-experiment accounting.

This package is generation-agnostic — every function takes a
:class:`~repro.trace.Trace`, a count series, or a population result, so
the same pipelines run on synthetic traffic or parsed pcaps.
"""

from repro.core.facility import (
    AdmissionStats,
    FacilityAnalysis,
    FacilityEnvelope,
    LatencyStats,
    MultiplexingGain,
    OccupancyStats,
    RecoveryStats,
    occupancy_rtt_frontier,
    oversubscribed_capacity,
    policy_multiplexing_gain,
)
from repro.core.natanalysis import NatAnalysis, NatFlowSeries
from repro.core.packetsize import FIGURE_TRUNCATION_BYTES, PacketSizeAnalysis
from repro.core.periodicity import PeriodicityAnalysis
from repro.core.provisioning import (
    CapacityPlan,
    LinearityResult,
    MODEM_RATE_BPS,
    PerPlayerModel,
    linearity_experiment,
)
from repro.core.report import (
    ComparisonRow,
    all_rows_ok,
    format_value,
    render_table,
)
from repro.core.selfsimilarity import (
    MAP_BOUNDARY,
    SelfSimilarityReport,
    TICK_BOUNDARY,
    stitch_variance_time,
    variance_time_from_counts,
)
from repro.core.sessions import ClientBandwidthAnalysis, MIN_FLOW_DURATION
from repro.core.sourcemodels import (
    DirectionModel,
    ModelValidation,
    SourceModel,
    fit_source_model,
    regenerate,
    validate_model,
)
from repro.core.summary import GeneralTraceInfo, NetworkUsage
from repro.core.timeseries import RateSeries, interval_counts, packet_load_series

__all__ = [
    "AdmissionStats",
    "CapacityPlan",
    "ClientBandwidthAnalysis",
    "ComparisonRow",
    "DirectionModel",
    "FacilityAnalysis",
    "FacilityEnvelope",
    "FIGURE_TRUNCATION_BYTES",
    "ModelValidation",
    "SourceModel",
    "GeneralTraceInfo",
    "LatencyStats",
    "LinearityResult",
    "MAP_BOUNDARY",
    "MIN_FLOW_DURATION",
    "MODEM_RATE_BPS",
    "MultiplexingGain",
    "NatAnalysis",
    "NatFlowSeries",
    "NetworkUsage",
    "OccupancyStats",
    "PacketSizeAnalysis",
    "PerPlayerModel",
    "RecoveryStats",
    "PeriodicityAnalysis",
    "RateSeries",
    "SelfSimilarityReport",
    "TICK_BOUNDARY",
    "all_rows_ok",
    "fit_source_model",
    "format_value",
    "occupancy_rtt_frontier",
    "oversubscribed_capacity",
    "policy_multiplexing_gain",
    "regenerate",
    "validate_model",
    "interval_counts",
    "linearity_experiment",
    "packet_load_series",
    "render_table",
    "stitch_variance_time",
    "variance_time_from_counts",
]
