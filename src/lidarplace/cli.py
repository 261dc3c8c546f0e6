"""Scenario-driven command line.

Subcommands::

    lidarplace optimize      --scenario S.json --out DIR [--seed N] [--threads N]
    lidarplace evaluate      --scenario S.json --poses P.json --out DIR
    lidarplace sweep         --scenario S.json --counts 1,2,3 [--models a,b] --out DIR
    lidarplace odr           --scenario S.json (--poses P.json | --record results.json)
                             [--scatter N] --out DIR
    lidarplace export-voxels --record results.json --out DIR

Result files are deterministic: rerunning any command with the same scenario
and seed reproduces them byte for byte, regardless of ``--threads``.  Timing
is printed to stdout only, never written into result files.  Errors exit
nonzero and print ``error[CODE]: message`` on stderr; see the README for the
code list.
"""

from __future__ import annotations

import argparse
import colorsys
import contextlib
import ctypes
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import cost
from .geometry import PoseConfig
from .odr import estimate_odr, vsr_odr_scatter
from .scenario import (
    MAX_SENSORS,
    Scenario,
    ScenarioError,
    canonical_dict,
    load_scenario,
    parse_pose,
    parse_scenario,
    read_json,
    scenario_digest,
    with_seed,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_MISSING = 4

# Voxel rows formatted per write, which bounds the exporter's memory.
_WRITE_BLOCK = 4096

# Most objective threads a command may start.  A fixed cap gives the same
# error on every machine; a colony's pool would otherwise start one thread
# per trial of a phase, up to ``--threads``.
MAX_THREADS = 64

# glibc mallopt parameters and the values a command runs with: blocks up to
# 16 MiB come from the heap, and up to 256 MiB of free heap top is kept.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD_BYTES = 256 * 2**20
_MMAP_THRESHOLD_BYTES = 16 * 2**20


class CliError(Exception):
    def __init__(self, code: str, message: str, exit_code: int = EXIT_INVALID):
        self.code = code
        self.exit_code = exit_code
        super().__init__(message)


def _fmt(value: float) -> str:
    """Shortest round-trip decimal form; identical on every run."""
    return repr(float(value))


def _pose_dict(pose: PoseConfig) -> dict:
    return {
        "position": [float(c) for c in pose.position],
        "yaw": float(pose.yaw),
        "pitch": float(pose.pitch),
        "roll": float(pose.roll),
    }


def _subspace_rows(report: cost.PlacementReport) -> list[dict]:
    """One row per subspace, adding ``3 * vsr`` as the inscribed-radius estimate."""
    columns = (report.codes, report.voxel_count, report.volume, report.surface_area, report.vsr)
    return [
        {
            "component": component,
            "code": code,
            "voxel_count": voxel_count,
            "volume": volume,
            "surface_area": surface_area,
            "vsr": vsr,
            "inscribed_radius_estimate": 3.0 * vsr,
        }
        for component, (code, voxel_count, volume, surface_area, vsr) in enumerate(
            zip(*(column.tolist() for column in columns))
        )
    ]


@contextlib.contextmanager
def _output(path: Path):
    """Report an ``OSError`` while creating or writing ``path`` as ``OUT_INVALID``."""
    try:
        yield
    except OSError as exc:
        message = f"cannot write {exc.filename or path}: {exc.strerror or exc}"
        raise CliError("OUT_INVALID", message, EXIT_USAGE) from exc


def _write_text(path: Path, text: str) -> None:
    with _output(path):
        path.write_text(text, encoding="utf-8")


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_convergence_csv(path: Path, history: np.ndarray) -> None:
    rows = (f"{i},{_fmt(best)},{_fmt(mean)}" for i, (best, mean) in enumerate(history.tolist()))
    _write_text(path, "\n".join(["iter,best,mean", *rows]) + "\n")


def _component_color(component: int) -> tuple[int, int, int]:
    """Deterministic, well-spread RGB for a component id (golden-angle hue)."""
    rgb = colorsys.hsv_to_rgb((component * 0.6180339887498949) % 1.0, 0.65, 0.95)
    return tuple(int(round(255 * c)) for c in rgb)


def _write_voxel_export(out_dir: Path, grid, report: cost.PlacementReport) -> tuple[Path, Path]:
    csv_path = out_dir / "voxels.csv"
    ply_path = out_dir / "voxels.ply"
    n = grid.num_active

    # Each string is formatted once: a voxel's center coordinate on an axis
    # is that axis's coordinate at its index, and every voxel of a component
    # carries the component's code and color.
    xs, ys, zs = ([_fmt(c) for c in axis] for axis in grid.axis_centers)
    comp = report.component_ids
    codes = ["-".join(map(str, row)) for row in report.codes.tolist()]
    colors = [" ".join(map(str, _component_color(c))) for c in range(len(codes))]

    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {n}",
        "property float x",
        "property float y",
        "property float z",
        "property uchar red",
        "property uchar green",
        "property uchar blue",
        "end_header",
    ]
    with _output(out_dir), open(csv_path, "w", encoding="utf-8") as csv_file, open(
        ply_path, "w", encoding="utf-8"
    ) as ply_file:
        csv_file.write("x,y,z,code,component\n")
        ply_file.write("\n".join(header) + "\n")
        for start in range(0, n, _WRITE_BLOCK):
            block = slice(start, start + _WRITE_BLOCK)
            rows = [
                (xs[i], ys[j], zs[k], c)
                for (i, j, k), c in zip(grid.active_indices[block].tolist(), comp[block].tolist())
            ]
            csv_file.write("".join(f"{x},{y},{z},{codes[c]},{c}\n" for x, y, z, c in rows))
            ply_file.write("".join(f"{x} {y} {z} {colors[c]}\n" for x, y, z, c in rows))
    return csv_path, ply_path


def _print_pose_table(poses) -> None:
    print(f"{'lidar':>5} {'x':>8} {'y':>8} {'z':>8} {'yaw':>8} {'pitch':>8} {'roll':>8}")
    for i, pose in enumerate(poses):
        x, y, z = pose.position
        print(
            f"{i:>5} {x:>8.3f} {y:>8.3f} {z:>8.3f} {pose.yaw:>8.3f} {pose.pitch:>8.3f} {pose.roll:>8.3f}"
        )


def _load_effective_scenario(args) -> Scenario:
    path = Path(args.scenario)
    if not path.is_file():
        raise CliError("SCENARIO_MISSING", f"scenario file not found: {path}", EXIT_MISSING)
    return with_seed(load_scenario(path), args.seed)


def _out_dir(args) -> Path:
    out = Path(args.out)
    with _output(out):
        out.mkdir(parents=True, exist_ok=True)
    return out


def _load_poses_file(path_str: str) -> tuple[PoseConfig, ...]:
    path = Path(path_str)
    if not path.is_file():
        raise CliError("POSES_MISSING", f"poses file not found: {path}", EXIT_MISSING)
    data = read_json(path, "POSES_INVALID")
    if not isinstance(data, list) or not data:
        raise CliError("POSES_INVALID", "poses file must hold a non-empty JSON list of poses")
    return _parse_poses(data, "poses", "POSES_INVALID")


def _parse_poses(entries: list, context: str, code: str) -> tuple[PoseConfig, ...]:
    """Poses of a file's ``entries``; a malformed one raises ``CliError`` with the file's ``code``."""
    try:
        return tuple(parse_pose(entry, f"{context}[{i}]") for i, entry in enumerate(entries))
    except ScenarioError as exc:
        raise CliError(code, str(exc)) from exc


def _check_pose_count(poses, models, code: str) -> None:
    if len(poses) != len(models):
        raise CliError(code, f"scenario places {len(models)} sensors but got {len(poses)} poses")


def _warn_out_of_bounds(poses, bounds) -> None:
    for i, pose in enumerate(poses):
        if not bounds.contains(pose):
            print(
                f"warning[POSE_OUT_OF_BOUNDS]: pose {i} lies outside the scenario "
                "bounds; evaluating anyway",
                file=sys.stderr,
            )


def cmd_optimize(args) -> int:
    scenario = _load_effective_scenario(args)
    out = _out_dir(args)
    digest = scenario_digest(scenario)
    grid = scenario.grid
    models = scenario.model_sequence()

    started = time.perf_counter()
    poses, result = cost.search_placement(
        models, grid, scenario.bounds, scenario.abc, threads=args.threads
    )
    duration = time.perf_counter() - started

    report = cost.evaluate_placement(poses, models, grid)
    csv_path, ply_path = _write_voxel_export(out, grid, report)
    _write_convergence_csv(out / "convergence.csv", result.history)
    _write_json(
        out / "results.json",
        {
            "command": "optimize",
            "scenario_digest": digest,
            "scenario": canonical_dict(scenario),
            "seed": scenario.abc.rng_seed,
            "objective": float(result.best_cost),
            "best_poses": [_pose_dict(p) for p in poses],
            "subspaces": _subspace_rows(report),
            "files": {
                "convergence": "convergence.csv",
                "voxels_csv": csv_path.name,
                "voxels_ply": ply_path.name,
            },
        },
    )

    print(f"scenario digest: {digest}")
    print(f"objective (max VSR): {result.best_cost:.6f} m over {report.vsr.size} subspaces")
    _print_pose_table(poses)
    print(f"wrote results to {out} in {duration:.1f} s")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    scenario = _load_effective_scenario(args)
    poses = _load_poses_file(args.poses)
    models = scenario.model_sequence()
    _check_pose_count(poses, models, "POSES_INVALID")
    out = _out_dir(args)
    _warn_out_of_bounds(poses, scenario.bounds)

    report = cost.evaluate_placement(poses, models, scenario.grid)
    rows = _subspace_rows(report)
    _write_json(
        out / "evaluation.json",
        {
            "command": "evaluate",
            "scenario_digest": scenario_digest(scenario),
            "scenario": canonical_dict(scenario),
            "poses": [_pose_dict(p) for p in poses],
            "objective": report.objective,
            "subspaces": rows,
        },
    )
    print(f"objective (max VSR): {report.objective:.6f} m over {len(rows)} subspaces")
    worst = rows[int(np.argmax(report.vsr))]
    print(
        f"worst subspace: component {worst['component']} code "
        f"{'-'.join(str(d) for d in worst['code'])} with {worst['voxel_count']} voxels"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario = _load_effective_scenario(args)
    counts = [part for part in (args.counts or "").split(",") if part != ""]
    if not counts:
        raise CliError("SWEEP_EMPTY", "--counts must list at least one sensor count", EXIT_USAGE)
    try:
        counts = [int(c) for c in counts]
    except ValueError as exc:
        raise CliError("SWEEP_EMPTY", f"--counts entries must be integers: {exc}", EXIT_USAGE)
    if any(not 1 <= c <= MAX_SENSORS for c in counts):
        raise CliError("SWEEP_EMPTY", f"--counts entries must lie in [1, {MAX_SENSORS}]", EXIT_USAGE)

    if args.models is None:
        model_names = sorted(scenario.models)
    else:
        model_names = [m for m in args.models.split(",") if m]
        if not model_names:
            raise CliError("SWEEP_EMPTY", "--models must name at least one model", EXIT_USAGE)
    for name in model_names:
        if name not in scenario.models:
            raise CliError("MODEL_UNKNOWN", f"--models references unknown model {name!r}")
    out = _out_dir(args)

    rows = ["model,count,best_max_vsr"]
    for name in model_names:
        best_by_count = []
        for count in counts:
            cell = replace(scenario, lidars=((name, count),))
            _, result = cost.search_placement(
                cell.model_sequence(), cell.grid, cell.bounds, cell.abc, threads=args.threads
            )
            rows.append(f"{name},{count},{_fmt(result.best_cost)}")
            best_by_count.append((count, result.best_cost))
            print(f"{name} x{count}: best max VSR {result.best_cost:.6f}")
        # more sensors are expected to help; a rise is worth a look, not a stop
        ordered = sorted(best_by_count)
        for (c_a, v_a), (c_b, v_b) in zip(ordered, ordered[1:]):
            if v_b > v_a:
                print(
                    f"warning[SWEEP_NON_MONOTONE]: {name} best max VSR rose from "
                    f"{v_a:.6f} at count {c_a} to {v_b:.6f} at count {c_b}",
                    file=sys.stderr,
                )
    _write_text(out / "sweep.csv", "\n".join(rows) + "\n")
    print(f"wrote {out / 'sweep.csv'}")
    return EXIT_OK


def _poses_from_record(path_str: str) -> tuple[tuple[PoseConfig, ...], dict]:
    path = Path(path_str)
    if not path.is_file():
        raise CliError("RECORD_MISSING", f"run record not found: {path}", EXIT_MISSING)
    record = read_json(path, "RECORD_INVALID")
    if (
        not isinstance(record, dict)
        or not isinstance(record.get("best_poses"), list)
        or "scenario" not in record
    ):
        raise CliError("RECORD_INVALID", f"{path} is not an optimize result record")
    poses = _parse_poses(record["best_poses"], "record.best_poses", "RECORD_INVALID")
    return poses, record["scenario"]


def cmd_odr(args) -> int:
    if args.poses is not None and args.record is not None:
        raise CliError("ARG_CONFLICT", "odr takes --poses or --record, not both", EXIT_USAGE)
    scenario = _load_effective_scenario(args)
    models = scenario.model_sequence()
    settings = scenario.odr
    seed = scenario.abc.rng_seed

    if args.poses:
        poses, code = _load_poses_file(args.poses), "POSES_INVALID"
    elif args.record:
        poses, code = _poses_from_record(args.record)[0], "RECORD_INVALID"
    else:
        raise CliError("POSES_MISSING", "odr needs --poses or --record", EXIT_USAGE)
    _check_pose_count(poses, models, code)
    out = _out_dir(args)
    grid = scenario.grid

    report = estimate_odr(poses, models, grid, settings, np.random.default_rng(seed))
    payload = {
        "command": "odr",
        "scenario_digest": scenario_digest(scenario),
        "seed": seed,
        "trials": report.trials,
        "detections": report.detections,
        "odr": report.odr,
        "threshold": report.threshold,
        "poses": [_pose_dict(p) for p in poses],
    }

    if args.scatter:
        points = vsr_odr_scatter(models, grid, scenario.bounds, settings, seed, args.scatter)
        rows = ["max_vsr,odr", *(f"{_fmt(vsr)},{_fmt(odr)}" for vsr, odr in points)]
        _write_text(out / "vsr_odr.csv", "\n".join(rows) + "\n")
        payload["files"] = {"scatter": "vsr_odr.csv"}
        print(f"wrote {args.scatter}-point VSR/ODR scatter to {out / 'vsr_odr.csv'}")

    _write_json(out / "odr.json", payload)
    print(
        f"ODR: {report.odr:.4f} ({report.detections}/{report.trials} detections, "
        f"threshold {report.threshold})"
    )
    return EXIT_OK


def cmd_export_voxels(args) -> int:
    poses, scenario_data = _poses_from_record(args.record)
    try:
        scenario = parse_scenario(scenario_data)
    except ScenarioError as exc:
        raise CliError("RECORD_INVALID", f"record scenario invalid: {exc}") from exc
    scenario = with_seed(scenario, args.seed)
    models = scenario.model_sequence()
    _check_pose_count(poses, models, "RECORD_INVALID")
    out = _out_dir(args)
    grid = scenario.grid
    report = cost.evaluate_placement(poses, models, grid)
    csv_path, ply_path = _write_voxel_export(out, grid, report)
    print(f"exported {grid.num_active} voxels over {report.vsr.size} subspaces")
    print(f"wrote {csv_path} and {ply_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lidarplace",
        description="Multi-LiDAR placement: minimize the worst blind-spot VSR.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_required=True):
        if scenario_required:
            p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--seed", type=int, default=None, help="override the scenario RNG seed (>= 0)")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        threads_help = "objective evaluation threads (read by optimize and sweep only)"
        p.add_argument("--threads", type=int, default=1, help=threads_help)

    p = sub.add_parser("optimize", help="search for the best sensor poses")
    common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("evaluate", help="score user-supplied poses without optimizing")
    common(p)
    p.add_argument("--poses", required=True, help="JSON file with one pose per sensor")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="optimize over sensor counts and models")
    common(p)
    p.add_argument("--counts", required=True, help="comma-separated sensor counts, e.g. 1,2,3,4")
    p.add_argument("--models", default=None, help="comma-separated model names (default: all)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("odr", help="estimate object detection rate for poses")
    common(p)
    p.add_argument("--poses", default=None, help="JSON file with one pose per sensor (or --record)")
    p.add_argument("--record", default=None, help="results.json from an optimize run (or --poses)")
    p.add_argument(
        "--scatter",
        type=int,
        default=0,
        metavar="N",
        help="also sample N random configurations and export a VSR/ODR scatter CSV",
    )
    p.set_defaults(func=cmd_odr)

    p = sub.add_parser("export-voxels", help="export voxel labels from a run record")
    common(p, scenario_required=False)
    p.add_argument("--record", required=True, help="results.json from an optimize run")
    p.set_defaults(func=cmd_export_voxels)

    return parser


def _check_ranges(args) -> None:
    """Reject thread and scatter counts out of range before any command runs."""
    if not 1 <= args.threads <= MAX_THREADS:
        raise CliError(
            "ARG_RANGE", f"--threads must lie in [1, {MAX_THREADS}], got {args.threads}", EXIT_USAGE
        )
    if getattr(args, "scatter", 0) < 0:
        raise CliError("ARG_RANGE", f"--scatter must be >= 0, got {args.scatter}", EXIT_USAGE)


def _keep_freed_memory() -> None:
    """Let freed arrays stay mapped so that each objective call reuses the last one's pages.

    By default glibc maps large blocks separately and trims the heap top,
    with thresholds that move with the allocation history (imports, path
    lengths), so an evaluation's few MB of temporaries were faulted back in
    on every call, some 600 to 1 100 page faults, or none, from one process
    to the next.  Fixed thresholds make every call after the first reuse
    the pages it freed.  Does nothing on other C libraries.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_ranges(args)
        return args.func(args)
    except CliError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except ScenarioError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        print(f"error[INVALID_VALUE]: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
