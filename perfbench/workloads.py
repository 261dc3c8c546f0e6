"""The benchmark's workloads, the inputs each seed generates, and artifact digests.

Every workload is a closed loop: one client runs one ``lidarplace`` command at
a time and starts the next only when the previous has exited.  The geometry is
a copy of the shipped ``av_rooftop_small`` / ``av_rooftop`` scenarios, so that
the benchmark's inputs do not change when the shipped files do; only the
colony length, the colony seed and (for ODR) the validated poses vary.

A seed selects one of ``VARIANTS`` input sets (``seed % VARIANTS``).  The bytes
of every artifact each input set produces are pinned in ``reference.json``, so
every run, traced or not, is checked byte for byte whatever seed it is given.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["VARIANTS", "Workload", "WORKLOADS", "digests", "mismatches"]

VARIANTS = 32

_BASE_SCENARIO = {
    "schema_version": 1,
    "roi": {
        "extent": [60.0, 20.0, 4.0],
        "resolution": None,
        "excluded_boxes": [{"min": [27.0, 8.0, 0.0], "max": [33.0, 12.0, 4.0]}],
    },
    "models": {
        "beam16": {"evenly_spaced": {"count": 16, "start": {"deg": -15.0}, "stop": {"deg": 15.0}}},
        "beam8": {"evenly_spaced": {"count": 8, "start": {"deg": -15.0}, "stop": {"deg": 15.0}}},
        "beam4": {"evenly_spaced": {"count": 4, "start": {"deg": -15.0}, "stop": {"deg": 15.0}}},
    },
    "lidars": None,
    "bounds": {
        "lower": [28.0, 9.0, 2.2, 0.0, 0.0, 0.0],
        "upper": [31.0, 11.0, 3.0, 3.1415, 3.1415, 0.0],
    },
    "abc": {"num_bees": None, "max_iterations": None, "abandonment_threshold": 100, "rng_seed": None},
    "odr": {"object_dims": [0.5, 0.5, 1.7], "trials": 1000, "threshold": 1},
}

# Shipped geometry per scale: (voxel resolution, beam16 sensor count).
_SCALES = {
    "small": ([2.0, 1.0, 0.4], 2),
    "full": ([1.0, 0.5, 0.2], 4),
}


@dataclass(frozen=True)
class Workload:
    """One command shape; ``write_inputs`` turns a seed into its input files."""

    name: str
    why: str
    scale: str
    command: str
    threads: int = 1
    num_bees: int = 50
    iterations: int = 1
    scatter: int = 0

    @property
    def sensors(self) -> int:
        return _SCALES[self.scale][1]

    def scenario(self, variant: int) -> dict:
        resolution, count = _SCALES[self.scale]
        data = copy.deepcopy(_BASE_SCENARIO)
        data["roi"]["resolution"] = resolution
        data["lidars"] = [{"model": "beam16", "count": count}]
        data["abc"].update(
            num_bees=self.num_bees, max_iterations=self.iterations, rng_seed=2024 + variant
        )
        return data

    def poses(self, variant: int) -> list[dict]:
        """Independent uniform poses inside the scenario's mounting bounds."""
        lower = np.asarray(_BASE_SCENARIO["bounds"]["lower"], dtype=float)
        upper = np.asarray(_BASE_SCENARIO["bounds"]["upper"], dtype=float)
        rng = np.random.default_rng([variant, 7])
        rows = rng.uniform(lower, upper, (self.sensors, 6))
        return [
            {"position": [float(v) for v in row[:3]], "yaw": float(row[3]),
             "pitch": float(row[4]), "roll": float(row[5])}
            for row in rows
        ]

    def write_inputs(self, directory: Path, variant: int) -> list[str]:
        """Write this variant's input files; returns the CLI arguments minus ``--out``."""
        directory.mkdir(parents=True, exist_ok=True)
        scenario_path = directory / "scenario.json"
        scenario_path.write_text(json.dumps(self.scenario(variant), indent=2), encoding="utf-8")
        argv = [self.command, "--scenario", str(scenario_path), "--threads", str(self.threads)]
        if self.command == "odr":
            poses_path = directory / "poses.json"
            poses_path.write_text(json.dumps(self.poses(variant), indent=2), encoding="utf-8")
            argv += ["--poses", str(poses_path), "--scatter", str(self.scatter)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="optimize-small",
            why="single-thread colony on av_rooftop_small: per-eval labelling and per-call "
            "Python overhead outweigh band digits; the plain baseline",
            scale="small",
            command="optimize",
            threads=1,
            num_bees=50,
            iterations=6,
        ),
        Workload(
            name="optimize-full",
            why="two-thread colony on av_rooftop: band digits dominate an eval and colony "
            "moves repeat the other sensors' poses; exercises pool dispatch and full writers",
            scale="full",
            command="optimize",
            threads=2,
            num_bees=8,
            iterations=6,
        ),
        Workload(
            name="odr-scatter-full",
            why="ODR validation on av_rooftop with independent random poses: no colony, "
            "so colony-only speedups should leave it unchanged",
            scale="full",
            command="odr",
            scatter=12,
        ),
    )
}


def digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file the command wrote, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
        if path.is_file()
    }


def mismatches(actual: dict[str, str], expected: dict[str, str]) -> list[str]:
    """Artifact names that are missing, unexpected, or differ from the pinned bytes."""
    return sorted(
        name
        for name in set(actual) | set(expected)
        if actual.get(name) != expected.get(name)
    )
