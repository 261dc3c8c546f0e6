import contextlib
import copy
import errno
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import lidarplace as lp
from lidarplace import cli
from lidarplace.bees import MAX_BEES, MAX_ITERATIONS
from lidarplace.cli import main
from lidarplace.geometry import MAX_VOXELS
from lidarplace.odr import MAX_TRIALS
from lidarplace.scenario import MAX_SENSORS
from grids import voxel_centers
from oracles import brute_force_max_vsr, voxel_export_ref

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


TINY = {
    "schema_version": 1,
    "roi": {"extent": [8.0, 8.0, 4.0], "resolution": [1.0, 1.0, 1.0]},
    "models": {"b2": {"beam_pitches": [{"deg": -15.0}, {"deg": 15.0}]}},
    "lidars": [{"model": "b2", "count": 1}],
    "bounds": {
        "lower": [2.0, 2.0, 2.5, 0.0, 0.0, 0.0],
        "upper": [6.0, 6.0, 3.8, 0.0, 0.6, 0.2],
    },
    "abc": {"num_bees": 8, "max_iterations": 6, "abandonment_threshold": 20, "rng_seed": 5},
    "odr": {"object_dims": [2.0, 2.0, 2.0], "trials": 60, "threshold": 1},
}


@pytest.fixture
def tiny_scenario(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY), encoding="utf-8")
    return path


def read_all_bytes(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestOptimize:
    def test_writes_expected_files(self, tiny_scenario, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["optimize", "--scenario", str(tiny_scenario), "--out", str(out)]) == 0
        for name in ("results.json", "convergence.csv", "voxels.csv", "voxels.ply"):
            assert (out / name).exists()
        record = json.loads((out / "results.json").read_text())
        assert record["command"] == "optimize"
        assert record["objective"] > 0
        assert len(record["best_poses"]) == 1
        assert "duration" not in json.dumps(record)
        lines = (out / "convergence.csv").read_text().strip().splitlines()
        assert lines[0] == "iter,best,mean"
        assert len(lines) == 1 + TINY["abc"]["max_iterations"]
        best = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(a >= b for a, b in zip(best, best[1:]))
        assert "objective (max VSR)" in capsys.readouterr().out

    def test_reruns_are_byte_identical(self, tiny_scenario, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["optimize", "--scenario", str(tiny_scenario), "--out", str(out1)])
        main(["optimize", "--scenario", str(tiny_scenario), "--out", str(out2), "--threads", "3"])
        assert read_all_bytes(out1) == read_all_bytes(out2)

    def test_seed_override_changes_digest(self, tiny_scenario, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["optimize", "--scenario", str(tiny_scenario), "--out", str(out1)])
        main(["optimize", "--scenario", str(tiny_scenario), "--out", str(out2), "--seed", "99"])
        d1 = json.loads((out1 / "results.json").read_text())["scenario_digest"]
        d2 = json.loads((out2 / "results.json").read_text())["scenario_digest"]
        assert d1 != d2

    def test_missing_scenario_exits_4(self, tmp_path, capsys):
        code = main(["optimize", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 4
        assert "error[SCENARIO_MISSING]" in capsys.readouterr().err

    def test_schema_error_exits_3(self, tmp_path, capsys):
        bad = dict(TINY)
        bad["roi"] = {"extent": [8.0, 8.0, 4.0], "resolution": [3.0, 1.0, 1.0]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        code = main(["optimize", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "error[GRID_NOT_DIVISIBLE]" in capsys.readouterr().err

    def test_yaw_range_excluding_zero_fails_before_out_is_created(self, tmp_path, capsys):
        bad = copy.deepcopy(TINY)
        bad["bounds"]["lower"][3], bad["bounds"]["upper"][3] = 0.5, 1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["optimize", "--scenario", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "error[SCHEMA_INVALID]" in err and "yaw" in err
        assert not out.exists()

    def test_negative_seed_fails_before_out_is_created(self, tiny_scenario, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["--scenario", str(tiny_scenario), "--out", str(out), "--seed", "-1"]
        assert main(["optimize", *argv]) == 3
        assert "error[INVALID_VALUE]" in capsys.readouterr().err
        negative = dict(TINY, abc=dict(TINY["abc"], rng_seed=-1))
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(negative), encoding="utf-8")
        assert main(["optimize", "--scenario", str(path), "--out", str(out)]) == 3
        assert "error[SCHEMA_INVALID]" in capsys.readouterr().err
        record = tmp_path / "record.json"
        record.write_text(json.dumps({
            "best_poses": [{"position": [4.0, 4.0, 3.0]}],
            "scenario": lp.canonical_dict(lp.parse_scenario(TINY)),
        }), encoding="utf-8")
        assert main(["export-voxels", "--record", str(record), "--out", str(out), "--seed", "-1"]) == 3
        assert not out.exists()


class TestEvaluate:
    def write_poses(self, tmp_path, poses):
        path = tmp_path / "poses.json"
        path.write_text(json.dumps(poses), encoding="utf-8")
        return path

    def test_corner_pose_finite_objective(self, tiny_scenario, tmp_path):
        poses = self.write_poses(tmp_path, [{"position": [2.0, 2.0, 2.5]}])
        out = tmp_path / "ev"
        assert main([
            "evaluate", "--scenario", str(tiny_scenario), "--poses", str(poses), "--out", str(out)
        ]) == 0
        record = json.loads((out / "evaluation.json").read_text())
        assert math.isfinite(record["objective"]) and record["objective"] > 0

    def test_matches_brute_force_oracle(self, tiny_scenario, tmp_path):
        poses = self.write_poses(
            tmp_path, [{"position": [4.0, 4.0, 3.0], "pitch": 0.2, "roll": 0.1}]
        )
        out = tmp_path / "ev"
        main(["evaluate", "--scenario", str(tiny_scenario), "--poses", str(poses), "--out", str(out)])
        record = json.loads((out / "evaluation.json").read_text())
        expected = brute_force_max_vsr(
            [(4.0, 4.0, 3.0, 0.0, 0.2, 0.1)],
            [[math.radians(-15.0), math.radians(15.0)]],
            (8.0, 8.0, 4.0),
            (1.0, 1.0, 1.0),
        )
        assert record["objective"] == expected

    def test_duplicate_poses_match_single(self, tmp_path):
        doubled = dict(TINY, lidars=[{"model": "b2", "count": 2}])
        dbl_path = tmp_path / "dbl.json"
        dbl_path.write_text(json.dumps(doubled), encoding="utf-8")
        single_path = tmp_path / "single.json"
        single_path.write_text(json.dumps(TINY), encoding="utf-8")

        pose = {"position": [4.0, 4.0, 3.0], "pitch": 0.1}
        p1 = self.write_poses(tmp_path, [pose])
        main(["evaluate", "--scenario", str(single_path), "--poses", str(p1), "--out", str(tmp_path / "a")])
        p2 = tmp_path / "poses2.json"
        p2.write_text(json.dumps([pose, pose]), encoding="utf-8")
        main(["evaluate", "--scenario", str(dbl_path), "--poses", str(p2), "--out", str(tmp_path / "b")])
        obj1 = json.loads((tmp_path / "a" / "evaluation.json").read_text())["objective"]
        obj2 = json.loads((tmp_path / "b" / "evaluation.json").read_text())["objective"]
        assert obj1 == obj2

    def test_out_of_bounds_pose_warns_but_evaluates(self, tiny_scenario, tmp_path, capsys):
        poses = self.write_poses(tmp_path, [{"position": [7.5, 7.5, 3.9]}])
        code = main([
            "evaluate", "--scenario", str(tiny_scenario), "--poses", str(poses),
            "--out", str(tmp_path / "ev"),
        ])
        assert code == 0
        assert "warning[POSE_OUT_OF_BOUNDS]" in capsys.readouterr().err

    def test_pose_count_mismatch(self, tiny_scenario, tmp_path, capsys):
        poses = self.write_poses(tmp_path, [{"position": [3, 3, 3]}, {"position": [4, 4, 3]}])
        code = main([
            "evaluate", "--scenario", str(tiny_scenario), "--poses", str(poses),
            "--out", str(tmp_path / "ev"),
        ])
        assert code == 3
        assert "error[POSES_INVALID]" in capsys.readouterr().err


class TestSweep:
    def test_two_cell_sweep(self, tiny_scenario, tmp_path):
        out = tmp_path / "sw"
        assert main([
            "sweep", "--scenario", str(tiny_scenario), "--counts", "1,2", "--out", str(out)
        ]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "model,count,best_max_vsr"
        assert len(lines) == 3
        for line in lines[1:]:
            model, count, value = line.split(",")
            assert model == "b2" and count in {"1", "2"}
            assert float(value) > 0

    def test_empty_counts_usage_error(self, tiny_scenario, tmp_path, capsys):
        code = main(["sweep", "--scenario", str(tiny_scenario), "--counts", "", "--out", str(tmp_path)])
        assert code == 2
        assert "error[SWEEP_EMPTY]" in capsys.readouterr().err

    def test_unknown_model_rejected(self, tiny_scenario, tmp_path, capsys):
        code = main([
            "sweep", "--scenario", str(tiny_scenario), "--counts", "1",
            "--models", "ghost", "--out", str(tmp_path),
        ])
        assert code == 3
        assert "error[MODEL_UNKNOWN]" in capsys.readouterr().err

    def test_failing_cell_stops_the_sweep(self, tiny_scenario, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("search failed")

        monkeypatch.setattr(lp.cost, "search_placement", fail)
        out = tmp_path / "sw"
        code = main(["sweep", "--scenario", str(tiny_scenario), "--counts", "1,2", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert "error[INVALID_VALUE]: search failed" in err and "Traceback" not in err
        assert not (out / "sweep.csv").exists()


class TestOdr:
    def test_record_driven_odr(self, tiny_scenario, tmp_path):
        run = tmp_path / "run"
        main(["optimize", "--scenario", str(tiny_scenario), "--out", str(run)])
        out = tmp_path / "odr"
        assert main([
            "odr", "--scenario", str(tiny_scenario), "--record", str(run / "results.json"),
            "--out", str(out), "--scatter", "4",
        ]) == 0
        report = json.loads((out / "odr.json").read_text())
        assert 0.0 <= report["odr"] <= 1.0
        assert report["trials"] == TINY["odr"]["trials"]
        scatter = (out / "vsr_odr.csv").read_text().strip().splitlines()
        assert scatter[0] == "max_vsr,odr"
        assert len(scatter) == 5

    def test_scatter_seeds_are_built_per_sample(self, tiny_scenario, tmp_path, monkeypatch):
        # A million samples must not spawn a million seeds before the first
        # one: the first sample is reached with little memory allocated.
        class FirstSample(Exception):
            pass

        def first_sample(*args):
            raise FirstSample

        monkeypatch.setattr(lp.cost, "max_vsr", first_sample)
        poses = tmp_path / "poses.json"
        poses.write_text(json.dumps([{"position": [4.0, 4.0, 3.0]}]), encoding="utf-8")
        argv = ["odr", "--scenario", str(tiny_scenario), "--poses", str(poses), "--scatter", "1000000"]
        tracemalloc.start()
        try:
            with pytest.raises(FirstSample):
                main([*argv, "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_threshold_extremes(self, tmp_path):
        for threshold, expected in ((0, 1.0), (10_000, 0.0)):
            data = dict(TINY, odr={"object_dims": [2.0, 2.0, 2.0], "trials": 50, "threshold": threshold})
            path = tmp_path / f"t{threshold}.json"
            path.write_text(json.dumps(data), encoding="utf-8")
            poses = tmp_path / "poses.json"
            poses.write_text(json.dumps([{"position": [4.0, 4.0, 3.0]}]), encoding="utf-8")
            out = tmp_path / f"odr{threshold}"
            assert main([
                "odr", "--scenario", str(path), "--poses", str(poses), "--out", str(out)
            ]) == 0
            assert json.loads((out / "odr.json").read_text())["odr"] == expected

    def test_placement_region_ending_at_the_roi_face(self, tmp_path):
        # The grid's extent 3 * 0.3 is 0.8999999999999999, just under the
        # written 0.9; a region up to 0.9 - 0.3 still keeps the object inside.
        data = dict(
            TINY,
            roi={"extent": [0.9, 0.9, 0.9], "resolution": [0.3, 0.3, 0.3]},
            bounds={"lower": [0.3, 0.3, 0.3, 0, 0, 0], "upper": [0.6, 0.6, 0.6, 0, 0.5, 0.2]},
            odr={
                "object_dims": [0.3, 0.3, 0.3],
                "placement_region": {"min": [0, 0, 0], "max": [0.6, 0.6, 0.6]},
                "trials": 40,
            },
        )
        path = tmp_path / "small.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        poses = tmp_path / "poses.json"
        poses.write_text(json.dumps([{"position": [0.45, 0.45, 0.45]}]), encoding="utf-8")
        out = tmp_path / "odr"
        assert main(["odr", "--scenario", str(path), "--poses", str(poses), "--out", str(out)]) == 0
        assert json.loads((out / "odr.json").read_text())["trials"] == 40

    def test_requires_poses_or_record(self, tiny_scenario, tmp_path, capsys):
        code = main(["odr", "--scenario", str(tiny_scenario), "--out", str(tmp_path)])
        assert code == 2
        assert "error[POSES_MISSING]" in capsys.readouterr().err

    def test_malformed_record_is_named_error(self, tiny_scenario, tmp_path, capsys):
        path = tmp_path / "record.json"
        path.write_text("5", encoding="utf-8")
        code = main([
            "odr", "--scenario", str(tiny_scenario), "--record", str(path), "--out", str(tmp_path)
        ])
        assert code == 3
        assert "error[RECORD_INVALID]" in capsys.readouterr().err

    def test_non_json_poses_file_is_named_error(self, tiny_scenario, tmp_path, capsys):
        poses = tmp_path / "poses.json"
        poses.write_text("[{", encoding="utf-8")
        code = main([
            "odr", "--scenario", str(tiny_scenario), "--poses", str(poses), "--out", str(tmp_path)
        ])
        assert code == 3
        assert "error[POSES_INVALID]" in capsys.readouterr().err

    def test_deterministic(self, tiny_scenario, tmp_path):
        poses = tmp_path / "poses.json"
        poses.write_text(json.dumps([{"position": [4.0, 4.0, 3.0]}]), encoding="utf-8")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["odr", "--scenario", str(tiny_scenario), "--poses", str(poses), "--out", str(out)])
            outs.append(read_all_bytes(out))
        assert outs[0] == outs[1]


class TestExportVoxels:
    def test_single_voxel_roi(self, tmp_path):
        data = dict(TINY)
        data["roi"] = {"extent": [1.0, 1.0, 1.0], "resolution": [1.0, 1.0, 1.0]}
        data["bounds"] = {
            "lower": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            "upper": [1.0, 1.0, 1.0, 0.0, 0.6, 0.2],
        }
        data["odr"] = {"object_dims": [0.5, 0.5, 0.5], "trials": 10, "threshold": 1}
        path = tmp_path / "one.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        run = tmp_path / "run"
        main(["optimize", "--scenario", str(path), "--out", str(run)])
        out = tmp_path / "exp"
        assert main(["export-voxels", "--record", str(run / "results.json"), "--out", str(out)]) == 0
        csv_lines = (out / "voxels.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 2  # header + one voxel

    def test_ply_vertex_count_matches_csv(self, tiny_scenario, tmp_path):
        run = tmp_path / "run"
        main(["optimize", "--scenario", str(tiny_scenario), "--out", str(run)])
        out = tmp_path / "exp"
        main(["export-voxels", "--record", str(run / "results.json"), "--out", str(out)])
        csv_rows = len((out / "voxels.csv").read_text().strip().splitlines()) - 1
        ply_lines = (out / "voxels.ply").read_text().strip().splitlines()
        declared = next(int(l.split()[-1]) for l in ply_lines if l.startswith("element vertex"))
        vertex_rows = len(ply_lines) - ply_lines.index("end_header") - 1
        assert declared == csv_rows == vertex_rows == 256
        # export must be identical to what optimize itself wrote
        assert (out / "voxels.csv").read_bytes() == (run / "voxels.csv").read_bytes()
        assert (out / "voxels.ply").read_bytes() == (run / "voxels.ply").read_bytes()

    def test_missing_record_exits_4(self, tmp_path, capsys):
        code = main(["export-voxels", "--record", str(tmp_path / "no.json"), "--out", str(tmp_path)])
        assert code == 4
        assert "error[RECORD_MISSING]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        ["5", json.dumps({"best_poses": 5, "scenario": {}}), "{not json", b"\xff\xfe"],
        ids=["number", "best-poses-not-a-list", "not-json", "not-utf8"],
    )
    def test_malformed_record_is_named_error(self, tmp_path, capsys, content):
        path = tmp_path / "record.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        code = main(["export-voxels", "--record", str(path), "--out", str(tmp_path / "exp")])
        err = capsys.readouterr().err
        assert code == 3
        assert "error[RECORD_INVALID]" in err and "Traceback" not in err

    def test_full_scale_export_row_count(self, tmp_path):
        # a record is just poses + scenario, so exporting the full-scale grid
        # does not require running the optimizer first
        scenario = lp.load_scenario(SCENARIO_DIR / "av_rooftop.json")
        record = {
            "best_poses": [
                {"position": [28.5, 9.5, 2.6], "yaw": 0.0, "pitch": 0.2, "roll": 0.0},
                {"position": [30.5, 9.5, 2.6], "yaw": 0.0, "pitch": 1.4, "roll": 0.0},
                {"position": [28.5, 10.5, 2.6], "yaw": 0.0, "pitch": 1.8, "roll": 0.0},
                {"position": [30.5, 10.5, 2.6], "yaw": 0.0, "pitch": 3.0, "roll": 0.0},
            ],
            "scenario": lp.canonical_dict(scenario),
        }
        path = tmp_path / "record.json"
        path.write_text(json.dumps(record), encoding="utf-8")
        out = tmp_path / "exp"
        assert main(["export-voxels", "--record", str(path), "--out", str(out)]) == 0
        grid = lp.build_voxel_grid(scenario.roi)
        csv_rows = len((out / "voxels.csv").read_text().strip().splitlines()) - 1
        assert csv_rows == grid.num_active
        assert grid.num_voxels == 48000 and csv_rows < 48000


class TestInputsCheckedBeforeOut:
    @pytest.fixture
    def inputs(self, tiny_scenario, tmp_path):
        paths = {"scenario": str(tiny_scenario), "missing": str(tmp_path / "nope.json")}
        for name, content in {
            "poses": [{"position": [4.0, 4.0, 3.0]}],
            "not_a_list": {"position": [4.0, 4.0, 3.0]},
            "two_poses": [{"position": [3, 3, 3]}, {"position": [4, 4, 3]}],
            "bad_record": 5,
            "two_pose_record": {"best_poses": [{"position": [3, 3, 3]}] * 2, "scenario": {}},
        }.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(content), encoding="utf-8")
            paths[name] = str(path)
        return paths

    @pytest.mark.parametrize(
        "argv, code, exit_code",
        [
            (["evaluate", "--poses", "{missing}"], "POSES_MISSING", 4),
            (["evaluate", "--poses", "{not_a_list}"], "POSES_INVALID", 3),
            (["evaluate", "--poses", "{two_poses}"], "POSES_INVALID", 3),
            (["odr", "--poses", "{missing}"], "POSES_MISSING", 4),
            (["odr"], "POSES_MISSING", 2),
            (["odr", "--poses", "{not_a_list}"], "POSES_INVALID", 3),
            (["odr", "--poses", "{two_poses}"], "POSES_INVALID", 3),
            (["odr", "--record", "{bad_record}"], "RECORD_INVALID", 3),
            (["odr", "--record", "{missing}"], "RECORD_MISSING", 4),
            (["odr", "--record", "{two_pose_record}"], "RECORD_INVALID", 3),
            (["odr", "--poses", "{poses}", "--record", "{missing}"], "ARG_CONFLICT", 2),
            (["sweep", "--counts", ""], "SWEEP_EMPTY", 2),
            (["sweep", "--counts", f"1,{MAX_SENSORS + 1}"], "SWEEP_EMPTY", 2),
            (["sweep", "--counts", str(2**63)], "SWEEP_EMPTY", 2),
            (["sweep", "--counts", "1", "--models", "ghost"], "MODEL_UNKNOWN", 3),
            (["sweep", "--counts", "1", "--models", ","], "SWEEP_EMPTY", 2),
            (["sweep", "--counts", "1", "--models", ""], "SWEEP_EMPTY", 2),
            (["optimize", "--scenario", "{directory}"], "SCENARIO_MISSING", 4),
            (["evaluate", "--poses", "{directory}"], "POSES_MISSING", 4),
            (["odr", "--poses", "{directory}"], "POSES_MISSING", 4),
            (["odr", "--record", "{directory}"], "RECORD_MISSING", 4),
        ],
        ids=[
            "evaluate-poses-missing", "evaluate-poses-not-a-list", "evaluate-pose-count",
            "odr-poses-missing", "odr-no-poses", "odr-poses-not-a-list", "odr-pose-count",
            "odr-record-invalid", "odr-record-missing", "odr-record-pose-count",
            "odr-poses-and-record", "sweep-empty", "sweep-count-above-limit",
            "sweep-count-2**63", "sweep-unknown-model", "sweep-models-comma", "sweep-models-empty",
            "optimize-scenario-directory", "evaluate-poses-directory", "odr-poses-directory",
            "odr-record-directory",
        ],
    )
    def test_bad_input_leaves_no_out_dir(self, inputs, tmp_path, capsys, argv, code, exit_code):
        out = tmp_path / "o"
        inputs = dict(inputs, directory=str(tmp_path))
        argv = [arg.format(**inputs) for arg in argv]
        # a --scenario in argv comes later, so it wins over the default
        argv = [argv[0], "--scenario", inputs["scenario"], *argv[1:]]
        assert main([*argv, "--out", str(out)]) == exit_code
        err = capsys.readouterr().err
        assert f"error[{code}]" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "entry, reason",
        [
            ({"position": [4.0, float("nan"), 3.0]}, "finite"),
            ({"position": [4.0, 4.0]}, "3-element"),
            ({"position": [4.0, 4.0, 3.0], "yaw": "abc"}, "deg/rad suffix"),
            (5, "missing"),
        ],
        ids=["nan-coordinate", "two-element-position", "yaw-not-an-angle", "bare-number"],
    )
    @pytest.mark.parametrize(
        "argv, code, context",
        [
            (["evaluate", "--scenario", "{scenario}", "--poses", "{file}"], "POSES_INVALID", "poses[1]"),
            (["odr", "--scenario", "{scenario}", "--poses", "{file}"], "POSES_INVALID", "poses[1]"),
            (["odr", "--scenario", "{scenario}", "--record", "{file}"], "RECORD_INVALID",
             "record.best_poses[1]"),
            (["export-voxels", "--record", "{file}"], "RECORD_INVALID", "record.best_poses[1]"),
        ],
        ids=["evaluate-poses", "odr-poses", "odr-record", "export-voxels-record"],
    )
    def test_bad_pose_entry_gets_the_files_code(
        self, inputs, tmp_path, capsys, entry, reason, argv, code, context
    ):
        entries = [{"position": [4.0, 4.0, 3.0]}, entry]
        content = entries if code == "POSES_INVALID" else {"best_poses": entries, "scenario": {}}
        path = tmp_path / "entries.json"
        path.write_text(json.dumps(content), encoding="utf-8")
        out = tmp_path / "o"
        argv = [arg.format(file=path, **inputs) for arg in argv]
        assert main([*argv, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"error[{code}]" in err and "Traceback" not in err
        assert context in err and reason in err
        assert not out.exists()

    @pytest.mark.parametrize("count", [2**63, 1e300, MAX_SENSORS + 1], ids=["2**63", "1e300", "limit+1"])
    @pytest.mark.parametrize("command", ["evaluate", "odr"])
    def test_too_many_sensors_is_schema_invalid(self, inputs, tmp_path, capsys, command, count):
        path = tmp_path / "many.json"
        path.write_text(json.dumps(dict(TINY, lidars=[{"model": "b2", "count": count}])), encoding="utf-8")
        out = tmp_path / "o"
        argv = [command, "--scenario", str(path), "--poses", inputs["poses"], "--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "error[SCHEMA_INVALID]" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("count", [10**12, 1e300, None], ids=["10**12", "1e300", "limit+1"])
    @pytest.mark.parametrize(
        "section, key, limit",
        [("abc", "num_bees", MAX_BEES), ("abc", "max_iterations", MAX_ITERATIONS),
         ("odr", "trials", MAX_TRIALS)],
        ids=["num_bees", "max_iterations", "odr-trials"],
    )
    @pytest.mark.parametrize("command", ["evaluate", "odr"])
    def test_count_above_its_limit_is_schema_invalid(
        self, inputs, tmp_path, capsys, command, section, key, limit, count
    ):
        data = copy.deepcopy(TINY)
        data[section][key] = limit + 1 if count is None else count
        path = tmp_path / "big.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "o"
        argv = [command, "--scenario", str(path), "--poses", inputs["poses"], "--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "error[SCHEMA_INVALID]" in err and key in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("under", [False, True], ids=["out-is-a-file", "out-under-a-file"])
    def test_out_that_cannot_be_created_is_usage_error(self, inputs, tmp_path, capsys, under):
        blocker = tmp_path / "taken"
        blocker.write_text("keep", encoding="utf-8")
        out = blocker / "o" if under else blocker
        argv = ["evaluate", "--scenario", inputs["scenario"], "--poses", inputs["poses"]]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error[OUT_INVALID]" in err and "Traceback" not in err
        assert blocker.read_text(encoding="utf-8") == "keep"

    @staticmethod
    def _reading(role, path, inputs):
        """A command that reads ``path`` as its ``role`` JSON file."""
        return {
            "scenario": ["evaluate", "--scenario", str(path), "--poses", inputs["poses"]],
            "poses": ["evaluate", "--scenario", inputs["scenario"], "--poses", str(path)],
            "record": ["odr", "--scenario", inputs["scenario"], "--record", str(path)],
        }[role]

    @pytest.mark.parametrize("nested", [False, True], ids=["not-utf8", "nested-200000-deep"])
    @pytest.mark.parametrize(
        "role, code",
        [("scenario", "SCHEMA_INVALID"), ("poses", "POSES_INVALID"), ("record", "RECORD_INVALID")],
    )
    def test_unparsable_json_is_the_files_error(self, inputs, tmp_path, capsys, nested, role, code):
        path = tmp_path / "bad.json"
        path.write_bytes(b"[" * 200_000 + b"]" * 200_000 if nested else b"\xff\xfe")
        out = tmp_path / "o"
        assert main([*self._reading(role, path, inputs), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"error[{code}]" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "role, code",
        [("scenario", "SCHEMA_INVALID"), ("poses", "POSES_INVALID"), ("record", "RECORD_INVALID")],
    )
    def test_unreadable_file_is_the_files_error(
        self, inputs, tmp_path, capsys, monkeypatch, role, code
    ):
        # Permission bits do not stop a superuser from reading, so the read
        # itself is made to fail.
        path = tmp_path / "locked.json"
        path.write_text("{}", encoding="utf-8")
        read_text = Path.read_text

        def refuse(self, *args, **kwargs):
            if self == path:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", refuse)
        out = tmp_path / "o"
        assert main([*self._reading(role, path, inputs), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"error[{code}]: cannot read {path}: {os.strerror(errno.EACCES)}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, blocked",
        [
            (["evaluate", "--poses", "{poses}"], "evaluation.json"),
            (["optimize"], "convergence.csv"),
            (["optimize"], "voxels.ply"),
            (["odr", "--poses", "{poses}", "--scatter", "1"], "vsr_odr.csv"),
            (["sweep", "--counts", "1"], "sweep.csv"),
        ],
        ids=["json", "csv", "ply", "scatter", "sweep"],
    )
    def test_artifact_that_cannot_be_written_is_usage_error(
        self, inputs, tmp_path, capsys, argv, blocked
    ):
        # a directory in the artifact's place makes its write fail
        out = tmp_path / "o"
        (out / blocked).mkdir(parents=True)
        argv = [arg.format(**inputs) for arg in argv]
        assert main([*argv, "--scenario", inputs["scenario"], "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error[OUT_INVALID]" in err and blocked in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["odr", "--poses", "{poses}", "--scatter", "-1"],
            ["odr", "--poses", "{poses}", "--threads", "0"],
            ["evaluate", "--poses", "{poses}", "--threads", "-2"],
            ["optimize", "--threads", "0"],
            ["sweep", "--counts", "1", "--threads", "-1"],
            ["optimize", "--threads", str(cli.MAX_THREADS + 1)],
            ["odr", "--poses", "{poses}", "--threads", "1000000000"],
        ],
        ids=["odr-scatter", "odr-threads", "evaluate-threads", "optimize-threads", "sweep-threads",
             "optimize-threads-above-cap", "odr-threads-10**9"],
    )
    def test_count_out_of_range_is_usage_error(self, inputs, tmp_path, capsys, argv):
        out = tmp_path / "o"
        argv = [arg.format(**inputs) for arg in argv]
        assert main([*argv, "--scenario", inputs["scenario"], "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error[ARG_RANGE]" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize"],
            ["evaluate", "--poses", "{poses}"],
            ["sweep", "--counts", "1"],
            ["odr", "--poses", "{poses}"],
            ["export-voxels", "--record", "{record}"],
        ],
        ids=["optimize", "evaluate", "sweep", "odr", "export-voxels"],
    )
    def test_roi_without_active_voxels(self, inputs, tmp_path, capsys, argv):
        roi = {
            "extent": [4.0, 4.0, 2.0],
            "resolution": [1.0, 1.0, 1.0],
            "excluded_boxes": [{"min": [0, 0, 0], "max": [4.0, 4.0, 2.0]}],
        }
        data = dict(TINY, roi=roi)
        paths = {"poses": inputs["poses"], "scenario": tmp_path / "empty.json",
                 "record": tmp_path / "record.json"}
        paths["scenario"].write_text(json.dumps(data), encoding="utf-8")
        record = {"best_poses": [{"position": [2.0, 2.0, 1.0]}], "scenario": data}
        paths["record"].write_text(json.dumps(record), encoding="utf-8")
        argv = [arg.format(**paths) for arg in argv]
        if argv[0] != "export-voxels":
            argv += ["--scenario", str(paths["scenario"])]
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        code = "RECORD_INVALID" if argv[0] == "export-voxels" else "SCHEMA_INVALID"
        assert f"error[{code}]" in err and "every voxel center" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize"],
            ["evaluate", "--poses", "{poses}"],
            ["sweep", "--counts", "1"],
            ["odr", "--poses", "{poses}"],
            ["export-voxels", "--record", "{record}"],
        ],
        ids=["optimize", "evaluate", "sweep", "odr", "export-voxels"],
    )
    def test_grid_over_the_voxel_limit(self, inputs, tmp_path, capsys, argv):
        # 10^12 voxels would need terabytes; the count is checked before allocating
        roi = {"extent": [10000.0, 10000.0, 10000.0], "resolution": [1.0, 1.0, 1.0]}
        data = dict(TINY, roi=roi)
        paths = {"poses": inputs["poses"], "scenario": tmp_path / "huge.json",
                 "record": tmp_path / "record.json"}
        paths["scenario"].write_text(json.dumps(data), encoding="utf-8")
        record = {"best_poses": [{"position": [4.0, 4.0, 3.0]}], "scenario": data}
        paths["record"].write_text(json.dumps(record), encoding="utf-8")
        argv = [arg.format(**paths) for arg in argv]
        if argv[0] != "export-voxels":
            argv += ["--scenario", str(paths["scenario"])]
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        code = "RECORD_INVALID" if argv[0] == "export-voxels" else "GRID_TOO_LARGE"
        assert f"error[{code}]" in err and f"limit of {MAX_VOXELS}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_export_voxels_pose_count_checked(self, tmp_path, capsys):
        record = tmp_path / "record.json"
        record.write_text(json.dumps({"best_poses": [], "scenario": TINY}), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["export-voxels", "--record", str(record), "--out", str(out)]) == 3
        assert "error[RECORD_INVALID]" in capsys.readouterr().err
        assert not out.exists()

    def test_export_voxels_thread_count_checked(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["export-voxels", "--record", str(tmp_path / "no.json"), "--threads", "0"]
        code = main([*argv, "--out", str(out)])
        assert code == 2
        assert "error[ARG_RANGE]" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_scatter_writes_no_scatter_file(self, inputs, tmp_path):
        out = tmp_path / "o"
        argv = ["odr", "--scenario", inputs["scenario"], "--poses", inputs["poses"], "--scatter", "0"]
        assert main([*argv, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["odr.json"]


class TestOneGridBuildPerCommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--threads", "2"],
            ["evaluate", "--poses", "{poses}"],
            ["sweep", "--counts", "1,2"],
            ["odr", "--poses", "{poses}", "--scatter", "2"],
            ["export-voxels", "--record", "{record}"],
        ],
        ids=["optimize", "evaluate", "sweep", "odr", "export-voxels"],
    )
    def test_grid_is_built_once(self, tiny_scenario, tmp_path, argv):
        poses = tmp_path / "poses.json"
        poses.write_text(json.dumps([{"position": [4.0, 4.0, 3.0]}]), encoding="utf-8")
        run = tmp_path / "run"
        assert main(["optimize", "--scenario", str(tiny_scenario), "--out", str(run)]) == 0
        paths = {"poses": poses, "record": run / "results.json"}
        argv = [arg.format(**paths) for arg in argv]
        if argv[0] != "export-voxels":
            argv += ["--scenario", str(tiny_scenario)]
        counted = mock.Mock(wraps=lp.build_voxel_grid)
        with contextlib.ExitStack() as patches:
            # every module attribute the builder can be looked up under
            for module in (lp, lp.geometry, lp.scenario, lp.cli, lp.cost, lp.odr, lp.segmentation):
                if hasattr(module, "build_voxel_grid"):
                    patches.enter_context(mock.patch.object(module, "build_voxel_grid", counted))
            assert main([*argv, "--out", str(tmp_path / "o")]) == 0
        assert counted.call_count == 1


class TestRuntimeDependencies:
    def test_a_command_loads_no_scipy(self, tiny_scenario, tmp_path):
        # numpy is the one runtime dependency; scipy serves only the tests
        poses = tmp_path / "poses.json"
        poses.write_text(json.dumps([{"position": [4.0, 4.0, 3.0]}]), encoding="utf-8")
        script = (
            "import sys\n"
            "from lidarplace.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        argv = ["evaluate", "--scenario", str(tiny_scenario), "--poses", str(poses)]
        src = str(Path(lp.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", script, *argv, "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True, timeout=300, check=False,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or not os.confstr("CS_GNU_LIBC_VERSION"),
        reason="the allocator thresholds are set on glibc only",
    )
    def test_objective_calls_reuse_freed_pages(self):
        # An av_rooftop evaluation frees a few MB of temporaries; faulting
        # them back in on each call cost 600-1100 minor faults before the
        # command fixed the allocator's thresholds, and ~50 after.
        script = (
            "import resource, sys\n"
            "import numpy as np\n"
            "import lidarplace as lp\n"
            "from lidarplace import cli, cost\n"
            "cli._keep_freed_memory()\n"
            "scenario = lp.load_scenario(sys.argv[1])\n"
            "models, grid = scenario.model_sequence(), scenario.grid\n"
            "lower, upper = cost.decision_bounds(scenario.bounds, len(models))\n"
            "rng = np.random.default_rng(0)\n"
            "configs = [cost.poses_from_vector(rng.uniform(lower, upper), len(models))\n"
            "           for _ in range(7)]\n"
            "cost.max_vsr(configs[0], models, grid)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for config in configs[1:]:\n"
            "    cost.max_vsr(config, models, grid)\n"
            "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 6)\n"
        )
        src = str(Path(lp.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", script, str(SCENARIO_DIR / "av_rooftop.json")],
            env=env, capture_output=True, text=True, timeout=300, check=False,
        )
        assert done.returncode == 0, done.stderr
        assert float(done.stdout.splitlines()[-1]) < 300


def _evaluated(roi, poses, models):
    """The grid, every active voxel's code, and the placement report."""
    grid = lp.build_voxel_grid(roi)
    labels = lp.first_level_labels(poses, models, grid)
    return grid, labels, lp.evaluate_placement(poses, models, grid)


WIDE = lp.LidarModel(beam_pitches=np.radians(np.linspace(-20.0, 20.0, 9)))


class TestVoxelWriters:
    @pytest.mark.parametrize(
        "extent, resolution",
        [([3.0, 2.0, 1.2], [0.3, 0.1, 0.4]), ([6.0, 2.1, 1.5], [0.3, 0.3, 0.1])],
    )
    @pytest.mark.parametrize("block", [7, 4096])
    def test_matches_per_voxel_formatter(self, tmp_path, extent, resolution, block):
        roi = lp.RoiSpec(
            extent=extent,
            resolution=resolution,
            excluded_boxes=[lp.Box(minimum=[1.0, 0.5, 0.0], maximum=[1.9, 1.2, 0.9])],
        )
        poses = [
            lp.PoseConfig(position=[0.9, 0.7, 1.1], pitch=0.3),
            lp.PoseConfig(position=[2.1, 1.4, 0.8], roll=-0.4),
            lp.PoseConfig(position=[1.5, 0.2, 1.0], pitch=-0.2, roll=0.5),
        ]
        grid, labels, report = _evaluated(roi, poses, [WIDE, WIDE, WIDE])
        assert report.vsr.size > 50 and grid.num_active < grid.num_voxels
        with mock.patch.object(cli, "_WRITE_BLOCK", block):
            cli._write_voxel_export(tmp_path, grid, report)
        csv_text, ply_text = voxel_export_ref(voxel_centers(grid), labels, report.component_ids)
        assert (tmp_path / "voxels.csv").read_bytes() == csv_text.encode("utf-8")
        assert (tmp_path / "voxels.ply").read_bytes() == ply_text.encode("utf-8")

    def test_full_scale_matches_per_voxel_formatter(self, tmp_path):
        scenario = lp.load_scenario(SCENARIO_DIR / "av_rooftop.json")
        models = scenario.model_sequence()
        lower, upper = lp.decision_bounds(scenario.bounds, len(models))
        vector = np.random.default_rng(8).uniform(lower, upper)
        poses = lp.poses_from_vector(vector, len(models))
        grid, labels, report = _evaluated(scenario.roi, poses, models)
        assert report.vsr.size > 1000
        cli._write_voxel_export(tmp_path, grid, report)
        csv_text, ply_text = voxel_export_ref(voxel_centers(grid), labels, report.component_ids)
        assert (tmp_path / "voxels.csv").read_bytes() == csv_text.encode("utf-8")
        assert (tmp_path / "voxels.ply").read_bytes() == ply_text.encode("utf-8")


class TestBundledScenarios:
    def test_full_scale_fixture_parses_and_builds(self):
        scenario = lp.load_scenario(SCENARIO_DIR / "av_rooftop.json")
        grid = lp.build_voxel_grid(scenario.roi)
        assert grid.num_voxels == 48000
        assert grid.num_active < 48000  # vehicle box carved out
        # one full-scale evaluation stays cheap even though optimizing is not
        bounds_lo = scenario.bounds.lower
        poses = [
            lp.PoseConfig(position=bounds_lo.position, pitch=0.1)
            for _ in range(scenario.num_lidars)
        ]
        objective = lp.max_vsr(poses, scenario.model_sequence(), grid)
        assert math.isfinite(objective) and objective > 0
