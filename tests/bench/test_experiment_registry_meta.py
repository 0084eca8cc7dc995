"""Meta-tests over the experiment registry: every entry is well-formed."""

import re
from pathlib import Path

import pytest

import repro.bench.experiments
from repro.bench import all_ids, get


def test_every_experiment_has_paper_ref_and_title():
    for exp_id in all_ids():
        exp = get(exp_id)
        assert exp.title, exp_id
        assert exp.paper_ref, exp_id
        assert exp.id == exp_id


def test_extension_experiments_registered():
    ids = all_ids()
    for required in (
        "ablation_window", "ablation_nios", "ablation_bar1", "ablation_torus",
        "ablation_scaleout", "ablation_memcpy", "ablation_cache",
        "ext_bidir", "ext_hsg2d", "ext_get",
    ):
        assert required in ids, required


def test_runner_docstrings_exist():
    """Each runner documents what it reproduces."""
    for exp_id in all_ids():
        assert get(exp_id).runner.__doc__, f"{exp_id} runner lacks a docstring"


@pytest.mark.parametrize("exp_id", ["ext_get", "ablation_bar1"])
def test_cheap_extension_experiments_run(exp_id):
    result = get(exp_id).runner(True)
    assert result.rendered


def test_experiments_read_no_environment():
    """An experiment's rows depend only on what the result cache keys on
    (id, quick, calibration, version), so no experiment reads the
    environment."""
    root = Path(repro.bench.experiments.__file__).parent
    for path in sorted(root.rglob("*.py")):
        assert not re.search(r"\benviron\b|getenv", path.read_text()), path.name
