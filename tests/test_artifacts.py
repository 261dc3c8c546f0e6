"""Byte pins on every artifact the five commands write for one tiny scenario.

The scenario has an excluded box and two sensors, so every writer sees a
carved grid and more than one subspace.  Each file's SHA-256 is compared with
``PINS``, which were taken from outputs known to be good.  To regenerate them
after an intended change of output, run from the repository root::

    PYTHONPATH=src python tests/test_artifacts.py

and paste the printed dictionary over ``PINS``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from lidarplace.cli import main

SCENARIO = {
    "schema_version": 1,
    "roi": {
        "extent": [8.0, 6.0, 3.0],
        "resolution": [1.0, 1.0, 0.5],
        "excluded_boxes": [{"min": [3.0, 2.0, 0.0], "max": [5.0, 4.0, 1.5]}],
    },
    "models": {
        "b4": {"evenly_spaced": {"count": 4, "start": {"deg": -15.0}, "stop": {"deg": 15.0}}},
    },
    "lidars": [{"model": "b4", "count": 2}],
    "bounds": {
        "lower": [2.0, 1.5, 1.6, 0.0, 0.0, 0.0],
        "upper": [6.0, 4.5, 2.8, 0.0, 3.1, 0.6],
    },
    "abc": {"num_bees": 6, "max_iterations": 4, "abandonment_threshold": 10, "rng_seed": 11},
    "odr": {"object_dims": [1.0, 1.0, 1.0], "trials": 40, "threshold": 1},
}

POSES = [
    {"position": [2.5, 2.0, 2.0], "yaw": 0.0, "pitch": 0.3, "roll": 0.0},
    {"position": [5.5, 4.0, 2.6], "yaw": 0.0, "pitch": 1.2, "roll": 0.4},
]

PINS = {
    "evaluate/evaluation.json": "bba8a26ba1c5a8fe6b38a6c03195b1962afe8da3d1a3bb3968dfc8e0d15089f4",
    "export-voxels/voxels.csv": "6cad8cc60f5f9a6fc7601e3a661f593a42d8ac71784b17c49b9b99746d75ff2a",
    "export-voxels/voxels.ply": "da2fc707ff62daf5c378cb99e3a262895e314617d92645a4a2b9e9128869e063",
    "odr/odr.json": "2368eaef6ebbb68ac8938d8235e7666504d5d4908dcb68bfe969764afc5e28a7",
    "odr/vsr_odr.csv": "9f284ce0d0b051f612c9c6299befab6c3d2fc2c93d0c538a3d298c7e069848c6",
    "optimize-1/convergence.csv": "289f6e71fa84fe50c210be9908d9280279347ceb566728b5d70b9048019c9074",
    "optimize-1/results.json": "5e290ccf825d10e6ad3cf109f449bf790ff055a52bfd1bcdc20ec1d0ca25e976",
    "optimize-1/voxels.csv": "6cad8cc60f5f9a6fc7601e3a661f593a42d8ac71784b17c49b9b99746d75ff2a",
    "optimize-1/voxels.ply": "da2fc707ff62daf5c378cb99e3a262895e314617d92645a4a2b9e9128869e063",
    "optimize-2/convergence.csv": "289f6e71fa84fe50c210be9908d9280279347ceb566728b5d70b9048019c9074",
    "optimize-2/results.json": "5e290ccf825d10e6ad3cf109f449bf790ff055a52bfd1bcdc20ec1d0ca25e976",
    "optimize-2/voxels.csv": "6cad8cc60f5f9a6fc7601e3a661f593a42d8ac71784b17c49b9b99746d75ff2a",
    "optimize-2/voxels.ply": "da2fc707ff62daf5c378cb99e3a262895e314617d92645a4a2b9e9128869e063",
    "sweep/sweep.csv": "1a379bf57f543b2cf3c8c1a6c7ad70a578cc14e344802fe22ac106ddb7db30c0",
}


def artifact_digests(root: Path) -> dict:
    """Run every command under ``root``; SHA-256 of each file, keyed ``run/file``."""
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO), encoding="utf-8")
    poses = root / "poses.json"
    poses.write_text(json.dumps(POSES), encoding="utf-8")
    record = str(root / "optimize-1" / "results.json")
    runs = {
        "optimize-1": ["optimize", "--scenario", str(scenario), "--threads", "1"],
        "optimize-2": ["optimize", "--scenario", str(scenario), "--threads", "2"],
        "evaluate": ["evaluate", "--scenario", str(scenario), "--poses", str(poses)],
        "odr": ["odr", "--scenario", str(scenario), "--record", record, "--scatter", "2"],
        "export-voxels": ["export-voxels", "--record", record],
        "sweep": ["sweep", "--scenario", str(scenario), "--counts", "1,2", "--models", "b4"],
    }
    digests = {}
    for name, argv in runs.items():
        out = root / name
        with redirect_stdout(StringIO()):
            status = main([*argv, "--out", str(out)])
        assert status == 0, f"{name} exited {status}"
        for path in sorted(out.iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_every_artifact_matches_its_pin(tmp_path):
    assert artifact_digests(tmp_path) == PINS


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(artifact_digests(Path(tmp)), sys.stdout, indent=4, sort_keys=True)
        print()
