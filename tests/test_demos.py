"""The narrative demos run end to end against the current API.

Demo 04 runs a full 50-bee × 100-iteration colony search and is left out;
the tier1 CI job runs it on Python 3.11.
"""

import runpy
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "01_beam_cones_and_voxels",
        "02_subspace_segmentation",
        "03_subspace_metrics",
        "05_vsr_vs_detection_rate",
    ],
)
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # demos write their figures and tables to the cwd
    runpy.run_path(str(DEMO_DIR / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
