"""Run one lidarplace command through ``lidarplace.cli.main`` and report on it.

Usage (from the root of a lidarplace checkout)::

    python3 perfbench/worker.py REPORT.json TRACE -- <lidarplace arguments>

The package is imported from ``./src``.  With ``TRACE`` 0 only three probes
are installed: a first-call stamp on ``first_level_labels`` (the end of
set-up), a timer and evaluation counter around ``bees.optimize``, and a timer
around ``cost.max_vsr``.  With ``TRACE`` 1 every public function of the
package's modules is wrapped in a span.  The report JSON holds the exit code,
peak RSS, the probe values and, when traced, the spans.
"""

from __future__ import annotations

import json
import resource
import sys
import threading
import time
from pathlib import Path

from tracing import Patches, PoseRepeatCounter, Tracer

TRACED_MODULES = ("geometry", "segmentation", "cost", "bees", "odr", "scenario", "cli")


class Probes:
    """The few timers an untraced run needs for its end-to-end metrics."""

    def __init__(self):
        self.first_call = None
        self.optimize_s = 0.0
        self.objective_calls = 0
        self.max_vsr_s = 0.0
        self.max_vsr_calls = 0
        self._lock = threading.Lock()

    def install(self, patches: Patches, segmentation, bees, cost) -> None:
        labels, optimize, max_vsr = segmentation.first_level_labels, bees.optimize, cost.max_vsr

        def stamped_labels(*args, **kwargs):
            if self.first_call is None:
                self.first_call = time.monotonic()
            return labels(*args, **kwargs)

        def timed_optimize(objective, *args, **kwargs):
            def counted(vector):
                with self._lock:
                    self.objective_calls += 1
                return objective(vector)

            start = time.perf_counter()
            try:
                return optimize(counted, *args, **kwargs)
            finally:
                self.optimize_s += time.perf_counter() - start

        def timed_max_vsr(*args, **kwargs):
            start = time.perf_counter()
            try:
                return max_vsr(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with self._lock:
                    self.max_vsr_s += elapsed
                    self.max_vsr_calls += 1

        patches.replace(labels, stamped_labels)
        patches.replace(optimize, timed_optimize)
        patches.replace(max_vsr, timed_max_vsr)

    def report(self) -> dict:
        return {
            "first_call": self.first_call,
            "optimize_s": self.optimize_s,
            "objective_calls": self.objective_calls,
            "max_vsr_s": self.max_vsr_s,
            "max_vsr_calls": self.max_vsr_calls,
        }


def span_measures(repeats: PoseRepeatCounter) -> dict:
    """Work counts recorded on the spans of selected functions."""

    def labels(args, kwargs, result):
        inputs, seen = repeats.observe(args[0], args[1])
        return {"inputs": inputs, "repeats": seen}

    return {
        "geometry.build_voxel_grid": lambda a, k, r: {"active": int(r.num_active)},
        "segmentation.beam_digits": lambda a, k, r: {"voxels": int(len(r))},
        "segmentation.first_level_labels": labels,
        "segmentation.component_ids": lambda a, k, r: {"components": int(r[1])},
        "odr.estimate_odr": lambda a, k, r: {"trials": int(r.trials)},
    }


def run(report_path: Path, traced: bool, argv: list[str], src: Path) -> int:
    """Run ``lidarplace.cli.main(argv)`` as imported from ``src``; write the report."""
    import importlib

    import lidarplace

    if Path(lidarplace.__file__).resolve().parent != (src / "lidarplace").resolve():
        print(f"lidarplace imported from {lidarplace.__file__}, not {src}", file=sys.stderr)
        return 2
    modules = [importlib.import_module(f"lidarplace.{name}") for name in TRACED_MODULES]
    namespaces = [lidarplace, *modules]
    from lidarplace import bees, cli, cost, segmentation

    patches = Patches(namespaces)
    probes = Probes()
    tracer = Tracer()
    if traced:
        tracer.install(modules, patches, span_measures(PoseRepeatCounter()))
    else:
        probes.install(patches, segmentation, bees, cost)
    try:
        code = cli.main(argv)
    finally:
        patches.restore()
    report = {
        "code": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        **probes.report(),
        "spans": [span.as_list() for span in tracer.spans],
    }
    report_path.write_text(json.dumps(report), encoding="utf-8")
    return code


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    return run(Path(sys.argv[1]), sys.argv[2] == "1", sys.argv[4:], src)


if __name__ == "__main__":
    sys.exit(main())
