"""repro — reproduction of "Provisioning On-line Games: A Traffic
Analysis of a Busy Counter-Strike Server" (Feng, Chang, Feng, Walpole;
IMC 2002 / OGI CSE-02-005).

Top-level layout:

* :mod:`repro.sim` — discrete-event engine and random streams;
* :mod:`repro.net` — Ethernet/IPv4/UDP codecs and overhead accounting;
* :mod:`repro.trace` — packet records, columnar traces, pcap and compact
  formats, flow extraction;
* :mod:`repro.stats` — binning, histograms, regression, Hurst estimators;
* :mod:`repro.kernels` — vectorised packet-queue kernels (numpy-only):
  the pps store-and-forward FIFO with an idle-period block-decomposition
  fast path, and the bps tail-drop link; shared bit-identically by the
  router device and every facility hop;
* :mod:`repro.gameserver` — the calibrated Counter-Strike traffic model
  (session, count, and packet fidelity levels);
* :mod:`repro.router` — pps-bound NAT device and route-cache models;
* :mod:`repro.core` — the paper's analyses (summaries, self-similarity,
  packet sizes, per-flow bandwidth, provisioning, NAT accounting);
* :mod:`repro.workloads` — named scenarios, link catalogue, web traffic;
* :mod:`repro.fleet` — multi-server hosting-facility simulation:
  heterogeneous fleet profiles, sharded parallel execution with
  deterministic per-server seeding, streaming k-way aggregation, and a
  content-addressed disk cache for per-server results
  (``repro-experiments --cache-dir``);
* :mod:`repro.facilitynet` — hierarchical facility network pipeline:
  declarative rack/core/uplink topology, trace-level hop engines over
  the :mod:`repro.kernels` queue kernels, streaming per-rack execution,
  and per-hop loss/latency reports;
* :mod:`repro.matchmaking` — fleet-level closed loop: one shared,
  diurnally modulated player pool — each player carrying a region —
  assigned to servers by pluggable selection policies (random /
  least-loaded / sticky / capacity-aware admission control /
  lowest-RTT / latency-aware occupancy-vs-QoE scoring over a seeded
  region×server RTT matrix), making facility load endogenous to
  placement; one deterministic epoch engine
  (:mod:`repro.matchmaking.columnar`) that batches the loop at provable
  no-contention points and calls each policy's own ``select`` one
  attempt at a time elsewhere — plus sharded, cacheable per-server traffic
  synthesis over the assignments; the loop closes through the network
  when :class:`repro.matchmaking.QoeConfig` is enabled (RTT-sensitive
  session durations, refusal-escalated balking) and
  :mod:`repro.matchmaking.scenarios` scripts demand events (flash
  crowds, regional outages, patch-day storms) whose recovery
  trajectories :class:`repro.core.RecoveryStats` scores;
* :mod:`repro.obs` — passive observability threaded through every
  layer: a span tracer (no-op unless installed), a process-local
  metrics registry (cache hits, kernel fast-path vs fallback segments,
  admissions/balks, per-hop drops), streaming JSONL/npz artifact
  exporters with a per-run manifest (``repro-experiments
  --trace-dir``) and per-worker telemetry shipped back from sharded
  subprocess tasks on their futures; traced and untraced runs are
  bit-identical by construction; :mod:`repro.obs.analysis` (the
  ``repro-analyze`` CLI) loads finished trace directories back — span
  forests, per-phase rollups, occupancy heatmaps, cross-run comparison
  — from artifacts alone;
* :mod:`repro.experiments` — one module per table/figure plus the
  fleet provisioning, facility network and matchmaking experiments,
  with a CLI runner (``repro-experiments``, see EXPERIMENTS.md).

Quickstart::

    from repro.workloads import olygamer_scenario
    from repro.core import NetworkUsage

    scenario = olygamer_scenario(seed=0)
    trace = scenario.packet_window(3600.0, 7200.0)
    usage = NetworkUsage.from_trace(trace, duration=3600.0)
    print(f"{usage.mean_packet_load:.0f} pps, "
          f"{usage.mean_bandwidth_kbps:.0f} kbps")
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
