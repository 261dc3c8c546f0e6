"""Acceptance battery: one test per release criterion.

Each test prints a single ``[acceptance] criterion N PASS`` line with the
measured numbers (run pytest with ``-s`` to see them live).  Criteria with a
runtime budget assert it.  The exact-equality criteria compare against the
independent reference implementations in ``oracles.py`` with no tolerance.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import lidarplace as lp
from lidarplace.cli import main as cli_main
from grids import blob_metrics
from oracles import assert_valid_partition, brute_force_max_vsr, component_vsr, exposed_face_area

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

COARSE_EXTENT = (8.0, 8.0, 4.0)
COARSE_RES = (1.0, 1.0, 1.0)


def _grown_blob(rng, size):
    """Random connected-ish voxel set of exactly ``size`` unique triples."""
    cells = [(0, 0, 0)]
    seen = {cells[0]}
    while len(cells) < size:
        base = cells[rng.integers(0, len(cells))]
        step = rng.integers(-1, 2, 3)
        cand = (base[0] + int(step[0]), base[1] + int(step[1]), base[2] + int(step[2]))
        if cand not in seen:
            seen.add(cand)
            cells.append(cand)
    return np.array(cells, dtype=np.int64)


@pytest.fixture(scope="module")
def coarse_battery():
    """Fifty random coarse-scenario pose sets with production + oracle values.

    Shared by criteria 2, 3, and 9: every configuration is evaluated by the
    production pipeline and the brute-force reference, partition invariants
    are checked, and distinct-code counts are recorded against their bound.
    """
    rng = np.random.default_rng(20240811)
    records = []
    started = time.perf_counter()
    for trial in range(50):
        n_lidars = int(rng.integers(1, 3))
        n_beams = int(rng.integers(2, 5))
        pitches = np.sort(rng.uniform(-0.6, 0.6, n_beams))
        while np.any(np.diff(pitches) <= 0):
            pitches = np.sort(rng.uniform(-0.6, 0.6, n_beams))
        model = lp.LidarModel(beam_pitches=pitches)
        if trial % 2 == 0:
            boxes = (lp.Box(minimum=[3, 3, 0], maximum=[5, 5, 2]),)
            raw_boxes = (((3.0, 3.0, 0.0), (5.0, 5.0, 2.0)),)
        else:
            boxes, raw_boxes = (), ()
        roi = lp.RoiSpec(extent=COARSE_EXTENT, resolution=COARSE_RES, excluded_boxes=boxes)
        grid = lp.build_voxel_grid(roi)

        poses, raw_poses = [], []
        for _ in range(n_lidars):
            raw = (
                float(rng.uniform(2, 6)),
                float(rng.uniform(2, 6)),
                float(rng.uniform(2.5, 3.8)),
                0.0,
                float(rng.uniform(-0.6, 0.6)),
                float(rng.uniform(-0.3, 0.3)),
            )
            raw_poses.append(raw)
            poses.append(lp.PoseConfig(position=raw[:3], yaw=raw[3], pitch=raw[4], roll=raw[5]))
        models = [model] * n_lidars

        produced = lp.max_vsr(poses, models, grid)
        expected = brute_force_max_vsr(
            raw_poses, [pitches.tolist()] * n_lidars, COARSE_EXTENT, COARSE_RES, raw_boxes
        )

        labels = lp.first_level_labels(poses, models, grid)
        comp, count = lp.component_ids(labels, grid)
        assert_valid_partition(grid, labels, comp, count)

        records.append(
            {
                "produced": produced,
                "expected": expected,
                "distinct_codes": len({tuple(row) for row in labels.tolist()}),
                "code_bound": (n_beams + 1) ** n_lidars,
            }
        )
    return {"records": records, "elapsed": time.perf_counter() - started}


def test_criterion_1_surface_area_oracle_equivalence():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    checked = 0
    for _ in range(200):
        size = int(rng.integers(1, 501))
        blob = _grown_blob(rng, size)
        res = rng.uniform(0.1, 2.5, 3)
        _, produced_sa, produced_vsr = blob_metrics(blob, res)
        cells = list(map(tuple, blob.tolist()))
        assert produced_sa == exposed_face_area(cells, res), (
            f"surface area mismatch on a {size}-voxel set"
        )
        assert produced_vsr == component_vsr(cells, res), f"VSR mismatch on a {size}-voxel set"
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 10s"
    print(
        f"\n[acceptance] criterion 1 PASS: Algorithm-equals-oracle surface area on "
        f"{checked} random sets, exact, {elapsed:.1f}s"
    )


def test_criterion_2_end_to_end_pipeline_oracle(coarse_battery):
    records = coarse_battery["records"]
    elapsed = coarse_battery["elapsed"]
    assert len(records) >= 50
    for i, rec in enumerate(records):
        assert rec["produced"] == rec["expected"], (
            f"pose set {i}: pipeline {rec['produced']!r} != brute force {rec['expected']!r}"
        )
    assert elapsed < 30.0, f"criterion 2 runtime {elapsed:.1f}s exceeds 30s"
    print(
        f"\n[acceptance] criterion 2 PASS: max VSR equals brute-force reference on "
        f"{len(records)} random pose sets, exact, {elapsed:.1f}s"
    )


def test_criterion_3_partition_invariants(coarse_battery):
    # assert_valid_partition already ran inside the battery for every
    # configuration: volumes sum to the active ROI volume within 1e-9
    # relative and each active voxel sits in exactly one component.  Repeat
    # the check on a fresh excluded-box configuration to keep the criterion
    # independently visible.
    roi = lp.RoiSpec(
        extent=COARSE_EXTENT,
        resolution=COARSE_RES,
        excluded_boxes=(lp.Box(minimum=[2, 2, 0], maximum=[6, 6, 3]),),
    )
    grid = lp.build_voxel_grid(roi)
    model = lp.LidarModel.evenly_spaced(3, -0.4, 0.4)
    poses = [lp.PoseConfig(position=[4.0, 4.0, 3.5], pitch=0.3)]
    labels = lp.first_level_labels(poses, [model], grid)
    comp, count = lp.component_ids(labels, grid)
    assert_valid_partition(grid, labels, comp, count)
    configs_checked = len(coarse_battery["records"]) + 1
    print(
        f"\n[acceptance] criterion 3 PASS: partition invariants held on "
        f"{configs_checked} evaluated configurations"
    )


def test_criterion_4_colony_on_sphere_benchmark():
    def sphere(v):
        return float(v[0] * v[0] + v[1] * v[1])

    bounds = (np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
    started = time.perf_counter()
    hits = 0
    monotone = 0
    for seed in range(10):
        result = lp.optimize(
            sphere, bounds, lp.AbcParams(num_bees=30, max_iterations=200, rng_seed=seed)
        )
        hits += result.best_cost < 1e-3
        monotone += bool(np.all(np.diff(result.history[:, 0]) <= 0))
    elapsed = time.perf_counter() - started
    assert hits >= 9, f"only {hits}/10 seeds reached 1e-3"
    assert monotone == 10, f"best-cost curve rose in {10 - monotone} seeds"
    assert elapsed < 5.0, f"criterion 4 runtime {elapsed:.1f}s exceeds 5s"
    print(
        f"\n[acceptance] criterion 4 PASS: sphere benchmark {hits}/10 seeds below 1e-3, "
        f"monotone {monotone}/10, {elapsed:.1f}s"
    )


def test_criterion_5_scaled_convergence_shape():
    scenario = lp.load_scenario(SCENARIO_DIR / "av_rooftop_small.json")
    assert scenario.roi.resolution.tolist() == [2.0, 1.0, 0.4]
    assert scenario.abc.num_bees == 50 and scenario.abc.max_iterations == 100
    assert len(scenario.model_sequence()) == 2
    grid = lp.build_voxel_grid(scenario.roi)
    models = scenario.model_sequence()

    started = time.perf_counter()
    _, result = lp.search_placement(models, grid, scenario.bounds, scenario.abc)
    elapsed = time.perf_counter() - started

    best = result.history[:, 0]
    mean = result.history[:, 1]
    assert np.all(np.diff(best) <= 0), "best curve must never rise"
    assert mean[-1] <= 2.0 * best[-1], (
        f"final mean {mean[-1]:.4f} not within 2x of final best {best[-1]:.4f}"
    )
    assert elapsed < 300.0, f"criterion 5 runtime {elapsed:.1f}s exceeds 5 minutes"
    print(
        f"\n[acceptance] criterion 5 PASS: scaled run best {best[0]:.4f}->{best[-1]:.4f}, "
        f"final mean/best {mean[-1] / best[-1]:.2f}x, {elapsed:.1f}s"
    )


def test_criterion_6_more_sensors_help_less_and_less():
    scenario = lp.load_scenario(SCENARIO_DIR / "av_rooftop_small.json")
    grid = lp.build_voxel_grid(scenario.roi)
    model = scenario.models["beam16"]
    seeds = (101, 202, 303)

    started = time.perf_counter()
    medians = []
    for count in (1, 2, 3, 4):
        bests = []
        for seed in seeds:
            params = lp.AbcParams(
                num_bees=scenario.abc.num_bees,
                max_iterations=scenario.abc.max_iterations,
                abandonment_threshold=scenario.abc.abandonment_threshold,
                rng_seed=seed,
            )
            _, result = lp.search_placement([model] * count, grid, scenario.bounds, params)
            bests.append(result.best_cost)
        medians.append(float(np.median(bests)))
    elapsed = time.perf_counter() - started

    assert all(a >= b for a, b in zip(medians, medians[1:])), (
        f"median best VSR must not rise with sensor count: {medians}"
    )
    gain_1_2 = medians[0] - medians[1]
    gain_3_4 = medians[2] - medians[3]
    assert gain_3_4 < gain_1_2, (
        f"marginal improvement must decay: 1->2 {gain_1_2:.4f} vs 3->4 {gain_3_4:.4f}"
    )
    assert elapsed < 1800.0, f"criterion 6 runtime {elapsed:.0f}s exceeds 30 minutes"
    print(
        f"\n[acceptance] criterion 6 PASS: medians {[round(m, 4) for m in medians]}, "
        f"gain 1->2 {gain_1_2:.4f} > gain 3->4 {gain_3_4:.4f}, {elapsed:.0f}s"
    )


def test_criterion_7_vsr_anticorrelates_with_detection_rate():
    roi = lp.RoiSpec(extent=COARSE_EXTENT, resolution=COARSE_RES)
    grid = lp.build_voxel_grid(roi)
    model = lp.LidarModel.evenly_spaced(4, -0.5, 0.5)
    models = [model, model]
    bounds = lp.PoseBounds(
        lower=lp.PoseConfig(position=[2, 2, 2.5]),
        upper=lp.PoseConfig(position=[6, 6, 3.8], pitch=0.8, roll=0.3),
    )
    trial_settings = lp.OdrSettings(object_dims=[2.0, 2.0, 2.0], trials=500, threshold=1)

    started = time.perf_counter()
    points = lp.vsr_odr_scatter(models, grid, bounds, trial_settings, seed=7, samples=20)
    elapsed = time.perf_counter() - started

    rho = float(stats.spearmanr(*zip(*points)).statistic)
    assert rho < -0.3, f"Spearman correlation {rho:.3f} not below -0.3"
    assert elapsed < 600.0, f"criterion 7 runtime {elapsed:.1f}s exceeds 10 minutes"
    print(
        f"\n[acceptance] criterion 7 PASS: Spearman(max VSR, ODR) = {rho:.3f} "
        f"over 20 configurations, {elapsed:.1f}s"
    )


def test_criterion_8_commands_are_byte_deterministic(tmp_path):
    scenario = {
        "schema_version": 1,
        "roi": {"extent": [8.0, 8.0, 4.0], "resolution": [1.0, 1.0, 1.0]},
        "models": {"b3": {"beam_pitches": [{"deg": -15.0}, {"deg": 0.0}, {"deg": 15.0}]}},
        "lidars": [{"model": "b3", "count": 2}],
        "bounds": {
            "lower": [2.0, 2.0, 2.5, 0.0, 0.0, 0.0],
            "upper": [6.0, 6.0, 3.8, 0.0, 0.6, 0.2],
        },
        "abc": {"num_bees": 10, "max_iterations": 8, "abandonment_threshold": 20, "rng_seed": 77},
        "odr": {"object_dims": [2.0, 2.0, 2.0], "trials": 80, "threshold": 1},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")

    outputs = {}
    for name, threads in (("a", "1"), ("b", "4"), ("c", "2")):
        out = tmp_path / f"opt_{name}"
        code = cli_main(
            ["optimize", "--scenario", str(path), "--out", str(out), "--threads", threads]
        )
        assert code == 0
        record = out / "results.json"
        odr_out = tmp_path / f"odr_{name}"
        code = cli_main(
            [
                "odr", "--scenario", str(path), "--record", str(record),
                "--out", str(odr_out), "--scatter", "3", "--threads", threads,
            ]
        )
        assert code == 0
        outputs[name] = {
            p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()
        } | {f"odr_{p.name}": p.read_bytes() for p in sorted(odr_out.iterdir()) if p.is_file()}

    assert outputs["a"] == outputs["b"] == outputs["c"]
    n_files = len(outputs["a"])
    print(
        f"\n[acceptance] criterion 8 PASS: optimize+odr reruns byte-identical across "
        f"thread counts 1/2/4 ({n_files} files compared)"
    )


def test_criterion_9_code_count_bound(coarse_battery):
    for i, rec in enumerate(coarse_battery["records"]):
        assert rec["distinct_codes"] <= rec["code_bound"], f"pose set {i} exceeds the code bound"

    assert (16 + 1) ** 4 == 83521
    # a real 4 x 16-beam labeling also respects the bound
    roi = lp.RoiSpec(extent=COARSE_EXTENT, resolution=COARSE_RES)
    grid = lp.build_voxel_grid(roi)
    model = lp.LidarModel.evenly_spaced(16, math.radians(-15), math.radians(15))
    rng = np.random.default_rng(9)
    poses = [
        lp.PoseConfig(position=rng.uniform([2, 2, 2.5], [6, 6, 3.8]), pitch=rng.uniform(-0.5, 0.5))
        for _ in range(4)
    ]
    labels = lp.first_level_labels(poses, [model] * 4, grid)
    observed = len({tuple(row) for row in labels.tolist()})
    assert observed <= 83521
    worst = max(rec["distinct_codes"] / rec["code_bound"] for rec in coarse_battery["records"])
    print(
        f"\n[acceptance] criterion 9 PASS: distinct codes within (beams+1)^sensors on all "
        f"runs (max utilization {worst:.0%}); 4x16-beam bound 83521, observed {observed}"
    )
