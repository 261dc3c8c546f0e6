"""Pin the artifact digests of every workload and input set into reference.json.

Usage, from the root of a lidarplace checkout whose outputs are known good::

    python3 perfbench/pin.py [WORKLOAD ...]

Each input set is run once, untraced.  Workloads not named keep their pins.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

from run import HERE, run_command
from workloads import VARIANTS, WORKLOADS


def main(names: list[str]) -> int:
    root = Path.cwd()
    path = HERE / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        pins = {}
        for variant in range(VARIANTS):
            run_dir = root / ".perfbench" / f"pin-{name}-{variant}"
            try:
                argv = workload.write_inputs(run_dir / "inputs", variant)
                command = run_command(root, run_dir, argv, 0, False, None, time.monotonic() + 600)
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            if not command.ok:
                print(f"{name} input set {variant}: {'; '.join(command.problems)}", file=sys.stderr)
                return 1
            pins[str(variant)] = command.digests
            print(f"{name} input set {variant}: {command.wall:.2f} s", flush=True)
        reference[name] = pins
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
