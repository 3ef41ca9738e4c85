"""Per-table/figure reproduction experiments.

One module per artifact of the paper's evaluation (Tables I–IV, Figures
1–15) plus the §IV-B future-work ablations (route caching, linearity).
Each exposes ``EXPERIMENT_ID``, ``TITLE`` and ``run(seed, config) ->
ExperimentOutput``; :mod:`repro.experiments.runner` holds the registry.
"""

from repro.experiments.base import ExperimentOutput

__all__ = ["ExperimentOutput"]
