"""Experiment outputs: the interface contract and the paper's numbers.

Each experiment module must expose a stable interface (id, title, run)
and produce well-formed outputs.  ``test_reproduces_paper`` runs every
registered experiment at seed 0 with the default configuration and
asserts each paper-vs-measured row is within tolerance; the four
experiments with a dedicated ``test_experiment_<id>.py`` module assert
that there instead.
"""

import functools
from pathlib import Path

import pytest

from repro.experiments.base import ExperimentOutput, RunConfig
from repro.experiments.runner import REGISTRY

#: Experiments whose paper rows are asserted (with more configurations
#: than the default) by their own ``test_experiment_<id>.py`` module.
DEDICATED = ("fleet", "facilitynet", "matchmaking", "churn")


class TestModuleContract:
    def test_ids_match_registry_keys(self):
        import importlib

        for experiment_id in REGISTRY:
            module = importlib.import_module(f"repro.experiments.{experiment_id}")
            assert module.EXPERIMENT_ID == experiment_id
            assert isinstance(module.TITLE, str) and module.TITLE
            assert callable(module.run)

    def test_registry_count(self):
        # 4 tables + 15 figures + 6 extension studies + fleet +
        # facilitynet + matchmaking + churn
        assert len(REGISTRY) == 29


#: Experiments whose paper rows ``test_reproduces_paper`` asserts.
PAPER_IDS = [i for i in REGISTRY if i not in DEDICATED]


@functools.lru_cache(maxsize=None)
def seed0_output(experiment_id: str) -> ExperimentOutput:
    """One default-configuration run per experiment, shared by the tests below."""
    return REGISTRY[experiment_id](0, RunConfig())


@pytest.mark.parametrize("experiment_id", PAPER_IDS)
def test_reproduces_paper(experiment_id):
    output = seed0_output(experiment_id)
    failing = [row.name for row in output.rows if not row.ok]
    assert output.passed, f"rows outside tolerance: {failing}"


@pytest.mark.parametrize("experiment_id", PAPER_IDS)
def test_output_is_wellformed(experiment_id):
    # ``passed`` is vacuously true for an output without rows
    output = seed0_output(experiment_id)
    assert isinstance(output, ExperimentOutput)
    assert output.experiment_id == experiment_id
    assert output.rows
    for row in output.rows:
        assert row.name
        assert row.tolerance_factor >= 1.0


@pytest.mark.parametrize("experiment_id", PAPER_IDS)
def test_render_includes_every_row(experiment_id):
    output = seed0_output(experiment_id)
    text = output.render()
    assert output.experiment_id in text
    for row in output.rows:
        assert row.name in text


def test_every_experiment_is_checked_against_the_paper():
    (mark,) = [
        m for m in test_reproduces_paper.pytestmark if m.name == "parametrize"
    ]
    parametrised = set(mark.args[1])
    assert parametrised.isdisjoint(DEDICATED)
    assert parametrised | set(DEDICATED) == set(REGISTRY)
    for experiment_id in DEDICATED:
        module = Path(__file__).with_name(f"test_experiment_{experiment_id}.py")
        assert "output.passed" in module.read_text(encoding="utf-8"), module
