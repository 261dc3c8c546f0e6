"""Scenario-driven command line.

Subcommands::

    lidarplace optimize      --scenario S.json --out DIR [--seed N]
    lidarplace evaluate      --scenario S.json --poses P.json --out DIR
    lidarplace sweep         --scenario S.json --counts 1,2,3 [--models a,b] --out DIR
    lidarplace odr           --scenario S.json (--poses P.json | --record results.json)
                             [--scatter N] --out DIR
    lidarplace export-voxels --record results.json --out DIR

Every command evaluates on one thread.  Each also accepts
``--threads N`` and checks its range, but none reads it, so no result depends
on it.  Result files are deterministic: rerunning any command with the same
scenario and seed reproduces them byte for byte.  Timing is printed to stdout
only, never written into result files.  Errors exit nonzero and print
``error[CODE]: message`` on stderr; see the README for the code list.
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
    pose_dict,
    read_json,
    scenario_digest,
    with_seed,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_MISSING = 4

# Rows formatted per write by the voxel and subspace writers, which bounds
# the text they hold at once.
_WRITE_BLOCK = 1024

# Largest ``--threads`` a command accepts.  No command reads the flag; the
# fixed range gives every out-of-range value the same error on every machine.
MAX_THREADS = 64

# Most configurations ``odr --scatter`` may sample, as many as an estimate's
# trials: every sample's point and CSV row are held until the CSV is written,
# some 300 bytes a sample, so a scatter holds at most ~300 MiB.
MAX_SCATTER = 2**20

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


def _write_json(path: Path, payload: dict, report: cost.PlacementReport | None = None) -> None:
    """Write ``payload`` as ``json.dumps(payload, sort_keys=True, indent=2)`` plus a newline.

    With ``report``, its subspace table is ``payload["subspaces"]``, adding
    ``3 * vsr`` as the inscribed-radius estimate.  Its rows are formatted
    from one template per ``_WRITE_BLOCK`` rows and written between the
    halves of the stdlib dump of the rest, split at a ``"subspaces": []``
    placeholder, so neither row dicts nor the whole text are ever held.
    """
    if report is None:
        _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return
    text = json.dumps({**payload, "subspaces": []}, sort_keys=True, indent=2)
    head, _, tail = text.partition('\n  "subspaces": []')
    code = ",".join(["\n        %d"] * report.codes.shape[1])
    template = (
        '\n    {\n      "code": [' + code + '\n      ],\n      "component": %d,'
        '\n      "inscribed_radius_estimate": %r,\n      "surface_area": %r,'
        '\n      "volume": %r,\n      "voxel_count": %d,\n      "vsr": %r\n    }'
    )
    count = report.vsr.size
    with _output(path), open(path, "w", encoding="utf-8") as file:
        file.write(head + '\n  "subspaces": [')
        for start in range(0, count, _WRITE_BLOCK):
            block = slice(start, min(start + _WRITE_BLOCK, count))
            vsr = report.vsr[block]
            columns = (
                *report.codes[block].T, np.arange(block.start, block.stop), 3.0 * vsr,
                report.surface_area[block], report.volume[block], report.voxel_count[block], vsr,
            )
            rows = ",".join([template % row for row in zip(*(c.tolist() for c in columns))])
            file.write("," + rows if start else rows)
        file.write("\n  ]" + tail + "\n")


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
    ny = grid.dims[1]

    # A row is three pieces, each formatted once: the x and y of its (i, j)
    # column, the z of its layer, and the code or color of its component.
    xs, ys, zs = ([_fmt(c) for c in axis] for axis in grid.axis_centers)

    def pieces(sep: str, tails: list[str]) -> list[np.ndarray]:
        columns = [f"{x}{sep}{y}{sep}" for x in xs for y in ys]
        layers = [f"{z}{sep}" for z in zs]
        return [np.array(piece, dtype=object) for piece in (columns, layers, tails)]

    codes = ["-".join(map(str, code)) for code in report.codes.tolist()]
    csv_pieces = pieces(",", [f"{code},{c}\n" for c, code in enumerate(codes)])
    colors = [" ".join(map(str, _component_color(c))) for c in range(len(codes))]
    ply_pieces = pieces(" ", [f"{color}\n" for color in colors])

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
            i, j, k = grid.active_indices[block].T
            keys = (i * ny + j, k, report.component_ids[block])
            for file, parts in ((csv_file, csv_pieces), (ply_file, ply_pieces)):
                rows = np.stack([part[key] for part, key in zip(parts, keys)], axis=1)
                file.write("".join(rows.ravel().tolist()))
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
    poses, result = cost.search_placement(models, grid, scenario.bounds, scenario.abc)
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
            "best_poses": [pose_dict(p) for p in poses],
            "files": {
                "convergence": "convergence.csv",
                "voxels_csv": csv_path.name,
                "voxels_ply": ply_path.name,
            },
        },
        report,
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
    _write_json(
        out / "evaluation.json",
        {
            "command": "evaluate",
            "scenario_digest": scenario_digest(scenario),
            "scenario": canonical_dict(scenario),
            "poses": [pose_dict(p) for p in poses],
            "objective": report.objective,
        },
        report,
    )
    print(f"objective (max VSR): {report.objective:.6f} m over {report.vsr.size} subspaces")
    worst = int(np.argmax(report.vsr))
    print(
        f"worst subspace: component {worst} code "
        f"{'-'.join(str(d) for d in report.codes[worst].tolist())} "
        f"with {report.voxel_count[worst]} voxels"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario = _load_effective_scenario(args)
    counts = [part for part in (args.counts or "").split(",") if part != ""]
    if not counts:
        raise CliError("SWEEP_EMPTY", "--counts must list at least one sensor count", EXIT_USAGE)
    try:
        counts = [_integer(c) for c in counts]
    except argparse.ArgumentTypeError as exc:
        message = f"--counts entries must be digits 0-9: {args.counts!r}"
        raise CliError("SWEEP_EMPTY", message, EXIT_USAGE) from exc
    if any(not 1 <= c <= MAX_SENSORS for c in counts):
        raise CliError("SWEEP_EMPTY", f"--counts entries must lie in [1, {MAX_SENSORS}]", EXIT_USAGE)

    if args.models is None:
        model_names = sorted(scenario.models)
    else:
        model_names = [m.strip() for m in args.models.split(",") if m.strip()]
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
            _, result = cost.search_placement(cell.model_sequence(), cell.grid, cell.bounds, cell.abc)
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

    if args.poses is not None:
        poses, code = _load_poses_file(args.poses), "POSES_INVALID"
    elif args.record is not None:
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
        "poses": [pose_dict(p) for p in poses],
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


def _integer(text: str) -> int:
    """Integer written in ASCII as digits 0-9, with an optional minus sign and spaces around.

    ``int()`` alone would also read ``1_0`` as 10 and non-ASCII digits, so a
    typo could pick a value.
    """
    digits = text.strip()
    if not (text.isascii() and digits.removeprefix("-").isdigit()):
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}")
    return int(digits)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as ``error[ARG_INVALID]``, like every other error."""

    def error(self, message):
        raise CliError("ARG_INVALID", message, EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="lidarplace",
        description="Multi-LiDAR placement: minimize the worst blind-spot VSR.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_required=True):
        if scenario_required:
            p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--seed", type=_integer, default=None, help="override the scenario RNG seed (>= 0)")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        threads_help = f"unused, checked to lie in [1, {MAX_THREADS}]; every command runs on one thread"
        p.add_argument("--threads", type=_integer, default=1, help=threads_help)

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
        type=_integer,
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
    if not 0 <= getattr(args, "scatter", 0) <= MAX_SCATTER:
        raise CliError(
            "ARG_RANGE", f"--scatter must lie in [0, {MAX_SCATTER}], got {args.scatter}", EXIT_USAGE
        )


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
    try:
        args = build_parser().parse_args(argv)
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
