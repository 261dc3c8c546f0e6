"""Benchmark runner: end-to-end and per-layer numbers for lidarplace.

Usage, from the root of a lidarplace checkout::

    python3 perfbench/run.py --workload optimize-small --seed 1 --seconds 30 --trace 0

Each run writes its seeded inputs under ``.perfbench/``, byte-compiles the
package so no command pays that one-time cost, then runs commands one after
another (a closed loop with one client) until ``--seconds`` have passed.  Every command is a fresh process
(``worker.py``) that calls ``lidarplace.cli.main``, so imports, scenario parse
and grid build are paid, and measured as set-up, on every command.  The bytes
of every artifact are compared with ``reference.json``.

With ``--trace 0`` the last line reports the end-to-end metrics, medians over
the run's commands.  With ``--trace 1`` traced and untraced commands alternate
and the last line reports the per-layer metrics from the traced ones.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import Span, account  # noqa: E402
from workloads import VARIANTS, WORKLOADS, digests, mismatches  # noqa: E402

# Hard cap on one run, below the 180 s a run may take.
RUN_DEADLINE_S = 170.0

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("eval_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

# (name, unit, better)
PER_LAYER = [
    ("geometry.build_voxel_grid.busy_s", "s", "lower"),
    ("scenario.load_scenario.busy_s", "s", "lower"),
    ("geometry.world_to_lidar.calls", "count", "lower"),
    ("geometry.world_to_lidar.busy_s", "s", "lower"),
    ("segmentation.beam_digits.calls", "count", "lower"),
    ("segmentation.beam_digits.busy_s", "s", "lower"),
    ("segmentation.beam_digits.ns_per_voxel", "ns", "lower"),
    ("segmentation.first_level_labels.calls", "count", "lower"),
    ("segmentation.first_level_labels.busy_s", "s", "lower"),
    ("segmentation.first_level_labels.pose_repeat_share", "share", "higher"),
    ("segmentation.component_ids.calls", "count", "lower"),
    ("segmentation.component_ids.busy_s", "s", "lower"),
    ("segmentation.component_ids.ms_p50", "ms", "lower"),
    ("segmentation.component_ids.ms_p95", "ms", "lower"),
    ("segmentation.component_ids.components_mean", "count", "lower"),
    ("cost.max_vsr.calls", "count", "lower"),
    ("cost.max_vsr.self_s", "s", "lower"),
    ("cost.max_vsr.ms_p50", "ms", "lower"),
    ("cost.max_vsr.ms_p95", "ms", "lower"),
    ("cost.evaluate_placement.busy_s", "s", "lower"),
    ("bees.optimize.busy_s", "s", "lower"),
    ("bees.optimize.self_s", "s", "lower"),
    ("bees.objective_utilization", "share", "higher"),
    ("odr.estimate_odr.calls", "count", "lower"),
    ("odr.estimate_odr.self_s", "s", "lower"),
    ("odr.estimate_odr.us_per_trial", "us", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.overlap_s", "s", "lower"),
    ("trace.uncovered_s", "s", "lower"),
    ("workload.active_voxels", "count", "lower"),
    ("workload.sensors", "count", "lower"),
    ("workload.odr_trials", "count", "lower"),
    ("fail_share", "share", "lower"),
]


@dataclass
class Command:
    """One finished command: its timing, probe report and check outcome."""

    traced: bool
    spawn: float
    end: float
    report: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    bytes_written: int = 0
    problems: list[str] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)
    accounting: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.spawn

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def setup(self) -> float:
        """Spawn to the first labelling call: imports, scenario parse, grid build."""
        return self.report["first_call"] - self.spawn

    @property
    def eval_ms(self) -> float:
        """Milliseconds per objective evaluation.

        Inside ``bees.optimize`` when the command optimizes (colony
        bookkeeping and pool waiting included), else the mean ``max_vsr``
        call.
        """
        r = self.report
        if r["objective_calls"]:
            return 1e3 * r["optimize_s"] / r["objective_calls"]
        return 1e3 * _ratio(r["max_vsr_s"], r["max_vsr_calls"])


def run_command(root, run_dir, argv, index, traced, expected, deadline) -> Command:
    """Run one command in a fresh worker process; ``expected=None`` skips the byte check."""
    out = run_dir / f"out-{index}"
    report_path = run_dir / f"report-{index}.json"
    err_path = run_dir / f"stderr-{index}.txt"
    cmd = [
        sys.executable, str(HERE / "worker.py"), str(report_path), "1" if traced else "0",
        "--", *argv, "--out", str(out),
    ]
    with open(err_path, "wb") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.DEVNULL, stderr=err)
        try:
            proc.wait(timeout=max(1.0, deadline - spawn))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        end = time.monotonic()
    command = Command(traced=traced, spawn=spawn, end=end)
    if proc.returncode != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
        command.problems.append(f"exit {proc.returncode}: {' | '.join(tail)}")
        return command
    command.report = json.loads(report_path.read_text(encoding="utf-8"))
    command.digests = digests(out)
    command.bytes_written = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    bad = [] if expected is None else mismatches(command.digests, expected)
    if bad:
        command.problems.append(f"artifacts differ from pinned bytes: {', '.join(bad)}")
    if traced:
        command.spans = [Span.from_list(row) for row in command.report["spans"]]
        command.accounting = account(command.spans, spawn, end)
        residual = command.accounting["residual"]
        if abs(residual) > 1e-6:
            command.problems.append(f"span accounting off by {residual:.3g} s")
    shutil.rmtree(out, ignore_errors=True)
    return command


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(commands: list[Command]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(c.wall for c in commands),
        "setup_s": statistics.median(c.setup for c in commands),
        "eval_ms": statistics.median(c.eval_ms for c in commands),
        "peak_rss_mb": statistics.median(c.report["maxrss_kb"] / 1024.0 for c in commands),
    }


def _empty_row() -> dict:
    return {"calls": 0, "busy": 0.0, "self": 0.0, "durations": [], "extra": {}}


def layer_table(command: Command) -> dict[str, dict]:
    """Per-function calls, busy and self time, durations and extra counts."""
    table: dict[str, dict] = {}
    for span in command.spans:
        row = table.setdefault(span.name, _empty_row())
        row["calls"] += 1
        row["busy"] += span.end - span.start
        row["self"] += command.accounting["self"][span.sid]
        row["durations"].append(span.end - span.start)
        for key, value in (span.extra or {}).items():
            row["extra"][key] = row["extra"].get(key, 0) + value
    return table


def per_layer(traced: list[Command], untraced: list[Command], threads: int, attempted: int,
              failed: int) -> dict[str, float]:
    tables = [layer_table(c) for c in traced]

    def rows(name):
        return [t.get(name) or _empty_row() for t in tables]

    def med(name, key):
        return statistics.median(r[key] for r in rows(name))

    def total(name, key):
        return sum(r[key] for r in rows(name))

    def extra(name, key):
        return sum(r["extra"].get(key, 0) for r in rows(name))

    def pct(name, q):
        durations = [d for r in rows(name) for d in r["durations"]]
        return 1e3 * float(np.percentile(durations, q)) if durations else 0.0

    out = {}
    for name in ("geometry.build_voxel_grid", "scenario.load_scenario", "geometry.world_to_lidar",
                 "segmentation.beam_digits", "segmentation.first_level_labels",
                 "segmentation.component_ids", "cost.evaluate_placement", "bees.optimize"):
        out[f"{name}.busy_s"] = med(name, "busy")
    for name in ("geometry.world_to_lidar", "segmentation.beam_digits",
                 "segmentation.first_level_labels", "segmentation.component_ids",
                 "cost.max_vsr", "odr.estimate_odr"):
        out[f"{name}.calls"] = med(name, "calls")
    for name in ("cost.max_vsr", "bees.optimize", "odr.estimate_odr", "cli.main"):
        out[f"{name}.self_s"] = med(name, "self")
    for name in ("segmentation.component_ids", "cost.max_vsr"):
        out[f"{name}.ms_p50"] = pct(name, 50)
        out[f"{name}.ms_p95"] = pct(name, 95)

    beam = "segmentation.beam_digits"
    out[f"{beam}.ns_per_voxel"] = 1e9 * _ratio(total(beam, "busy"), extra(beam, "voxels"))
    labels = "segmentation.first_level_labels"
    out[f"{labels}.pose_repeat_share"] = _ratio(extra(labels, "repeats"), extra(labels, "inputs"))
    comps = "segmentation.component_ids"
    out[f"{comps}.components_mean"] = _ratio(extra(comps, "components"), total(comps, "calls"))
    odr = "odr.estimate_odr"
    out[f"{odr}.us_per_trial"] = 1e6 * _ratio(total(odr, "self"), extra(odr, "trials"))
    out["bees.objective_utilization"] = _ratio(
        total("cost.max_vsr", "busy"), threads * total("bees.optimize", "busy")
    )
    out["cli.bytes_written"] = statistics.median(c.bytes_written for c in traced)
    out["trace.overhead_share"] = (
        statistics.median(c.wall for c in traced) / statistics.median(c.wall for c in untraced)
        - 1.0
    )
    # The wall-time decomposition of the median traced command, so the terms add up.
    mid = sorted(traced, key=lambda c: c.wall)[(len(traced) - 1) // 2]
    acc = mid.accounting
    out["trace.wall_s"] = mid.wall
    out["trace.self_sum_s"] = acc["self_sum"]
    out["trace.overlap_s"] = acc["overlap"]
    out["trace.uncovered_s"] = acc["uncovered"]
    out["workload.active_voxels"] = _ratio(
        extra("geometry.build_voxel_grid", "active"), total("geometry.build_voxel_grid", "calls")
    )
    out["workload.sensors"] = _ratio(extra(labels, "inputs"), total(labels, "calls"))
    out["workload.odr_trials"] = statistics.median(r["extra"].get("trials", 0) for r in rows(odr))
    out["fail_share"] = _ratio(failed, attempted)
    return {name: out[name] for name, _, _ in PER_LAYER}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = root / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text(encoding="utf-8").strip()
    return f"unknown ({ref[5:]})"


def provenance(root: Path) -> dict:
    import scipy

    source = hashlib.sha256()
    for path in sorted((root / "src" / "lidarplace").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(root),
        "source_sha256": source.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running command is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "lidarplace" / "__init__.py").is_file():
        print("error: run from the root of a lidarplace checkout (no src/lidarplace)",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    variant = args.seed % VARIANTS
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    expected = reference[workload.name][str(variant)]

    scratch = root / ".perfbench"
    run_dir = scratch / f"{workload.name}-{args.seed}-{args.trace}-{os.getpid()}"
    load_before = os.getloadavg()
    machine = provenance(root)
    compileall.compile_dir(root / "src" / "lidarplace", quiet=1)
    commands = []
    try:
        argv_cmd = workload.write_inputs(run_dir / "inputs", variant)
        loop_start = time.monotonic()
        while time.monotonic() - loop_start < args.seconds and time.monotonic() < deadline:
            traced = bool(args.trace) and len(commands) % 2 == 1
            commands.append(
                run_command(root, run_dir, argv_cmd, len(commands), traced, expected, deadline)
            )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    load_after = os.getloadavg()

    failed = [c for c in commands if not c.ok]
    untraced = [c for c in commands if c.ok and not c.traced]
    traced = [c for c in commands if c.ok and c.traced]
    for c in failed:
        print(f"command failed: {'; '.join(c.problems)}", file=sys.stderr)
    if not untraced or (args.trace and not traced):
        print("error: no successful measured command", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer(traced, untraced, workload.threads, len(commands), len(failed))
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = end_to_end(untraced)
        units = dict(END_TO_END)

    properties = {
        "workload": workload.name,
        "seed": args.seed,
        "input_set": variant,
        "sensors": workload.sensors,
        "threads": workload.threads,
        "evaluations_per_command": untraced[0].report["objective_calls"]
        or untraced[0].report["max_vsr_calls"],
        "commands": {"untraced": len(untraced), "traced": len(traced)},
    }
    record = {
        "provenance": {**machine, "loadavg_before": load_before, "loadavg_after": load_after},
        "properties": properties,
        "commands": [
            {"traced": c.traced, "wall_s": c.wall, "problems": c.problems}
            | ({} if c.traced or not c.ok else {"setup_s": c.setup, "eval_ms": c.eval_ms})
            for c in commands
        ],
        "metrics": metrics,
    }
    scratch.mkdir(exist_ok=True)
    record_path = scratch / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"provenance: {json.dumps(record['provenance'])}")
    print(f"properties: {json.dumps(properties)}")
    for name, value in metrics.items():
        print(f"{name:52s} {value:14.6g} {units[name]}")
    print(f"run record: {record_path.relative_to(root)} ({time.monotonic() - started:.1f} s)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(commands),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
