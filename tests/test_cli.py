import json
import math
from pathlib import Path

import pytest

import lidarplace as lp
from lidarplace.cli import main
from oracles import brute_force_max_vsr

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

    def test_requires_poses_or_record(self, tiny_scenario, tmp_path, capsys):
        code = main(["odr", "--scenario", str(tiny_scenario), "--out", str(tmp_path)])
        assert code == 2
        assert "error[POSES_MISSING]" in capsys.readouterr().err

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
