"""Hierarchical facility network: racks → core → uplink packet pipeline.

§IV warns that "a significant, concentrated deployment of on-line game
servers will have the potential for overwhelming current networking
equipment".  :mod:`repro.fleet` sums the facility's demand;
this package pushes it through the facility's *shared queues* to find
where loss first appears.  Four layers:

* :mod:`repro.facilitynet.topology` — the declarative facility tree
  (rack switches, core fabric, Internet uplink) with per-hop pps/bps
  capacity, buffer depth and oversubscription ratio, plus deterministic
  placement of fleet servers into racks;
* :mod:`repro.facilitynet.hops` — trace-level hop engines over the
  shared :mod:`repro.kernels` queue kernels (the pps FIFO with its
  vectorised idle-period fast path, and the bps tail-drop link);
* :mod:`repro.facilitynet.pipeline` — the streaming executor: per-rack
  merged fleet windows (sharded, bounded fan-in) walked hop by hop,
  emitting per-hop loss/delay series;
* :mod:`repro.facilitynet.report` — loss-vs-oversubscription curves,
  first-dropping-tier identification and end-to-end latency budgets,
  provisioned via :mod:`repro.core.facility` envelopes.

The ``facilitynet`` experiment (``repro-experiments facilitynet``)
sweeps uplink oversubscription and reports the concentration point that
saturates first.

Exports resolve lazily (PEP 562): importing one submodule must not
drag in the others, or :mod:`repro.core` would come back into the
import and close a cycle (core → natanalysis → router).
"""

from importlib import import_module
from typing import Tuple

#: export name -> submodule that defines it
_EXPORTS = {
    "HopTraversal": "hops",
    "bps_hop": "hops",
    "pps_hop": "hops",
    "FabricTraversal": "pipeline",
    "HopReport": "pipeline",
    "PipelineResult": "pipeline",
    "finish_uplink": "pipeline",
    "rack_ingress_traces": "pipeline",
    "run_fabric": "pipeline",
    "run_hops": "pipeline",
    "LatencyBudget": "report",
    "OversubscriptionSweep": "report",
    "TIER_ORDER": "report",
    "first_dropping_tier": "report",
    "ingress_envelope": "report",
    "latency_budget": "report",
    "sweep_uplink_oversubscription": "report",
    "FacilityTopology": "topology",
    "LinkSpec": "topology",
    "RackSpec": "topology",
    "SwitchSpec": "topology",
    "TIER_CORE": "topology",
    "TIER_RACK": "topology",
    "TIER_UPLINK": "topology",
    "build_topology": "topology",
    "place_servers": "topology",
    "provision_from_envelope": "topology",
}

_SUBMODULES = ("hops", "pipeline", "report", "topology")

__all__ = sorted(_EXPORTS) + list(_SUBMODULES)


def __getattr__(name: str):
    if name in _EXPORTS:
        module = import_module(f"{__name__}.{_EXPORTS[name]}")
        value = getattr(module, name)
        globals()[name] = value  # cache: next access skips this hook
        return value
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> Tuple[str, ...]:
    return tuple(sorted(set(globals()) | set(__all__)))
