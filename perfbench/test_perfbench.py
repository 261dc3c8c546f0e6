"""Tests of the benchmark's own machinery.

Run from the root of a lidarplace checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from tracing import Patches, PoseRepeatCounter, Span, Tracer, account, union_length  # noqa: E402
from workloads import VARIANTS, WORKLOADS, digests, mismatches  # noqa: E402

from lidarplace import LidarModel, PoseConfig  # noqa: E402


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.7)]) == 4.0


def test_self_time_of_nested_spans():
    spans = [
        Span(0, None, "root", 1, 0.0, 10.0),
        Span(1, 0, "a", 1, 1.0, 4.0),
        Span(2, 1, "a.inner", 1, 2.0, 3.0),
        Span(3, 0, "b", 1, 5.0, 9.0),
    ]
    acc = account(spans, -1.0, 11.0)
    assert acc["self"] == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert acc["self_sum"] == 10.0
    assert acc["overlap"] == 0.0
    assert acc["uncovered"] == 2.0
    assert acc["residual"] == 0.0


def test_self_time_with_children_overlapping_across_two_threads():
    # Two pool threads run children of the main-thread span at the same time.
    spans = [
        Span(0, None, "optimize", 1, 0.0, 10.0),
        Span(1, 0, "eval", 2, 1.0, 6.0),
        Span(2, 0, "eval", 3, 2.0, 8.0),
        Span(3, 1, "labels", 2, 1.0, 2.0),
        Span(4, 2, "labels", 3, 3.0, 8.0),
    ]
    acc = account(spans, 0.0, 10.0)
    # The root loses the union [1, 8] of its children, not their 11 s sum.
    assert acc["self"] == {0: 3.0, 1: 4.0, 2: 1.0, 3: 1.0, 4: 5.0}
    assert acc["overlap"] == 4.0
    assert acc["self_sum"] - acc["overlap"] + acc["uncovered"] == 10.0
    assert acc["residual"] == 0.0


def test_tracer_parents_pool_spans_to_the_dispatching_span():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda x: time.sleep(0.01) or x)

    def dispatch():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, range(6)))

    traced_dispatch = tracer.wrap("dispatch", dispatch)
    start = time.monotonic()
    assert traced_dispatch() == list(range(6))
    end = time.monotonic()
    (root,) = [s for s in tracer.spans if s.name == "dispatch"]
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 6 and all(s.parent == root.sid for s in leaves)
    assert len({s.thread for s in leaves} - {root.thread}) >= 1
    assert abs(account(tracer.spans, start, end)["residual"]) < 1e-9


def _snapshot(modules):
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}


def _small_evaluate_args(tmp_path: Path) -> list[str]:
    scenario = WORKLOADS["optimize-small"].scenario(0)
    (tmp_path / "scenario.json").write_text(json.dumps(scenario), encoding="utf-8")
    poses = [{"position": [29.0, 10.0, 2.5], "pitch": 0.2}, {"position": [30.0, 9.5, 2.8]}]
    (tmp_path / "poses.json").write_text(json.dumps(poses), encoding="utf-8")
    return ["evaluate", "--scenario", str(tmp_path / "scenario.json"),
            "--poses", str(tmp_path / "poses.json"), "--out", str(tmp_path / "out")]


def _command(tmp_path: Path, traced: bool, name: str) -> run.Command:
    report = tmp_path / f"{name}.json"
    spawn = time.monotonic()
    assert worker.run(report, traced, _small_evaluate_args(tmp_path), ROOT / "src") == 0
    end = time.monotonic()
    command = run.Command(traced=traced, spawn=spawn, end=end,
                          report=json.loads(report.read_text(encoding="utf-8")))
    command.spans = [Span.from_list(row) for row in command.report["spans"]]
    command.accounting = account(command.spans, spawn, end)
    return command


def test_wrappers_are_restored_after_traced_and_untraced_runs(tmp_path):
    import lidarplace
    from lidarplace import bees, cli, cost, geometry, odr, scenario, segmentation

    modules = [lidarplace, bees, cli, cost, geometry, odr, scenario, segmentation]
    before = _snapshot(modules)
    traced = _command(tmp_path, True, "traced")
    untraced = _command(tmp_path, False, "untraced")
    assert _snapshot(modules) == before
    names = {row[2] for row in traced.report["spans"]}
    # Calls are seen at the names the callers look up.
    assert {"cli.main", "cost.evaluate_placement", "segmentation.first_level_labels",
            "geometry.world_to_lidar", "segmentation.beam_digits"} <= names
    assert untraced.report["first_call"] is not None and not untraced.report["spans"]


def test_metric_sets_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

    traced = [_command(tmp_path, True, "t")]
    untraced = [_command(tmp_path, False, "u")]
    layers = run.per_layer(traced, untraced, threads=1, attempted=2, failed=0)
    assert list(layers) == [name for name, _, _ in run.PER_LAYER]
    assert layers["workload.active_voxels"] == 5840
    assert layers["workload.sensors"] == 2
    e2e = run.end_to_end(untraced)
    assert list(e2e) == [name for name, _ in run.END_TO_END]
    # ``evaluate`` makes no objective call, so only its eval_ms may be 0.
    assert e2e["wall_s"] > e2e["setup_s"] > 0 and e2e["peak_rss_mb"] > 0


def test_digest_check_flags_a_one_byte_change(tmp_path):
    (tmp_path / "results.json").write_bytes(b'{"objective": 0.25}\n')
    (tmp_path / "convergence.csv").write_bytes(b"iter,best,mean\n0,1.0,2.0\n")
    pinned = digests(tmp_path)
    assert mismatches(digests(tmp_path), pinned) == []

    data = bytearray((tmp_path / "results.json").read_bytes())
    data[15] ^= 0x01
    (tmp_path / "results.json").write_bytes(bytes(data))
    assert mismatches(digests(tmp_path), pinned) == ["results.json"]

    (tmp_path / "results.json").unlink()
    (tmp_path / "extra.csv").write_bytes(b"")
    assert mismatches(digests(tmp_path), pinned) == ["extra.csv", "results.json"]


def test_pose_repeat_share_on_a_hand_built_sequence():
    beam16 = LidarModel.evenly_spaced(16, -0.26, 0.26)
    beam4 = LidarModel.evenly_spaced(4, -0.26, 0.26)
    a = PoseConfig(position=[29.0, 10.0, 2.5], pitch=0.1)
    b = PoseConfig(position=[30.0, 10.0, 2.5], pitch=0.1)
    c = PoseConfig(position=[29.0, 10.0, 2.5], pitch=0.2)
    counter = PoseRepeatCounter()
    assert counter.observe((a, b), (beam16, beam16)) == (2, 0)
    # A single-coordinate move of sensor 1: sensor 0's pose repeats.
    assert counter.observe((a, c), (beam16, beam16)) == (2, 1)
    # The same poses on swapped sensors of one model are still repeats.
    assert counter.observe((c, a), (beam16, beam16)) == (2, 2)
    # An equal pose on another model is a new input.
    assert counter.observe((a,), (beam4,)) == (1, 0)
    # Equal values in a fresh object are a repeat.
    assert counter.observe((PoseConfig(position=[30.0, 10.0, 2.5], pitch=0.1),), (beam16,)) == (1, 1)


def test_pose_repeat_counter_is_thread_safe():
    model = LidarModel.evenly_spaced(4, -0.2, 0.2)
    poses = [PoseConfig(position=[float(i), 0.0, 0.0]) for i in range(200)]
    counter = PoseRepeatCounter()
    totals = []
    lock = threading.Lock()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work(_):
            seen = sum(counter.observe((p,), (model,))[1] for p in poses)
            with lock:
                totals.append(seen)

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(work, range(4)))
    finally:
        sys.setswitchinterval(old)
    # Every pose is new exactly once across all threads.
    assert sum(totals) == 4 * 200 - 200


def test_patches_reach_every_namespace_and_restore():
    import types

    def original():
        return "original"

    one, two = types.ModuleType("one"), types.ModuleType("two")
    one.f = original
    two.alias = original
    patches = Patches([one, two])
    assert patches.replace(original, lambda: "wrapped") == 2
    assert one.f() == two.alias() == "wrapped"
    patches.restore()
    assert one.f is original and two.alias is original


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_input_set(tmp_path, name):
    workload = WORKLOADS[name]
    first = workload.write_inputs(tmp_path / "a", 3)
    again = workload.write_inputs(tmp_path / "b", 3)
    other = workload.write_inputs(tmp_path / "c", 4)
    files = [p.name for p in sorted((tmp_path / "a").iterdir())]
    for file in files:
        assert (tmp_path / "a" / file).read_bytes() == (tmp_path / "b" / file).read_bytes()
    assert any(
        (tmp_path / "a" / file).read_bytes() != (tmp_path / "c" / file).read_bytes()
        for file in files
    )
    assert len(first) == len(again) == len(other)
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    assert sorted(reference[name], key=int) == [str(v) for v in range(VARIANTS)]
