"""The bee-colony minimizer, on a benchmark and on a real placement.

First the colony chases the 2-D sphere function to (near) zero, then it
searches mounting poses for two 16-beam sensors on a coarsened ROI.  The
best-so-far curve never rises; the population mean converging toward it is
the usual signature of the swarm settling into good basins.

Run from the repository root:  python3 demos/04_bee_colony_search.py
"""

import math
import time

import numpy as np

import lidarplace as lp

# Benchmark: sphere function on [-5, 5]^2.
result = lp.optimize(
    lambda x: float(np.sum(np.asarray(x) ** 2)),
    (np.array([-5.0, -5.0]), np.array([5.0, 5.0])),
    lp.AbcParams(num_bees=30, max_iterations=200, rng_seed=1),
)
print(f"sphere benchmark: best cost {result.best_cost:.2e} at {result.best_solution.round(6)}")

# Placement search on the scaled-down rooftop scenario.
scenario = lp.load_scenario("scenarios/av_rooftop_small.json")
grid = scenario.grid
models = scenario.model_sequence()
print(f"\nplacement search: {len(models)} sensors, grid {grid.dims}, "
      f"{scenario.abc.num_bees} bees x {scenario.abc.max_iterations} iterations")

start = time.perf_counter()
poses, result = lp.search_placement(models, grid, scenario.bounds, scenario.abc)
print(f"finished in {time.perf_counter() - start:.1f} s")
print(f"best max VSR: {result.best_cost:.4f} m")
for i, pose in enumerate(poses):
    x, y, z = pose.position
    print(f"  sensor {i}: x={x:.2f} y={y:.2f} z={z:.2f} "
          f"pitch={math.degrees(pose.pitch):.1f}deg roll={math.degrees(pose.roll):.1f}deg")

best, mean = result.history[:, 0], result.history[:, 1]
print(f"best curve: {best[0]:.4f} -> {best[-1]:.4f} (never rises: "
      f"{bool(np.all(np.diff(best) <= 0))})")
print(f"population mean: {mean[0]:.4f} -> {mean[-1]:.4f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4))
    ax.plot(best, label="best max VSR")
    ax.plot(mean, label="population mean")
    ax.set_xlabel("iteration")
    ax.set_ylabel("max VSR [m]")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo_convergence.png", dpi=120)
    print("wrote demo_convergence.png")
except ImportError:
    print("matplotlib not available; skipping the convergence plot")
