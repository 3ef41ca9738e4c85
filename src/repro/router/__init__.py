"""Router and NAT device models for the Section IV experiments.

:mod:`repro.router.device` — pps-bound store-and-forward queueing engine;
:mod:`repro.router.nat` — NAPT table + full device (Table IV, Figs 14–15);
:mod:`repro.router.cache` — preferential route caching (§IV-B future work).
"""

from repro.router.ablation import (
    BufferSweepPoint,
    CapacitySweepPoint,
    DEVICE_DELAY_BUDGET_S,
    TOLERABLE_LATENCY_S,
    buffer_sweep,
    buffering_helps_loss_but_not_experience,
    capacity_sweep,
)
from repro.router.cache import (
    CacheStats,
    ClassLabels,
    EvictionPolicy,
    LookupCostModel,
    RouteCache,
    simulate_cache,
)
from repro.router.device import DeviceProfile, ForwardingEngine, ForwardingResult
from repro.router.livedevice import LiveDeviceStats, LiveForwardingDevice
from repro.router.nat import (
    NatBinding,
    NatDevice,
    NatExperimentResult,
    NatTable,
    NatTableFullError,
)

__all__ = [
    "BufferSweepPoint",
    "CacheStats",
    "CapacitySweepPoint",
    "ClassLabels",
    "DEVICE_DELAY_BUDGET_S",
    "DeviceProfile",
    "EvictionPolicy",
    "ForwardingEngine",
    "ForwardingResult",
    "LiveDeviceStats",
    "LiveForwardingDevice",
    "LookupCostModel",
    "NatBinding",
    "NatDevice",
    "NatExperimentResult",
    "NatTable",
    "NatTableFullError",
    "RouteCache",
    "TOLERABLE_LATENCY_S",
    "buffer_sweep",
    "buffering_helps_loss_but_not_experience",
    "capacity_sweep",
    "simulate_cache",
]
