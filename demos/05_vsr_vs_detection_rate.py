"""Why minimize VSR?  Because it tracks the object detection rate.

Samples random in-bounds placements, scores each with the max-VSR objective,
and estimates its detection rate by dropping a test object at random spots.
The two measures are strongly anti-correlated: smaller worst-case blind spots
mean more detections.

Run from the repository root:  python3 demos/05_vsr_vs_detection_rate.py
"""

import numpy as np
from scipy import stats

import lidarplace as lp

roi = lp.RoiSpec(extent=[8, 8, 4], resolution=[1, 1, 1])
grid = lp.build_voxel_grid(roi)
model = lp.LidarModel.evenly_spaced(4, -0.5, 0.5)
models = [model, model]
bounds = lp.PoseBounds(
    lower=lp.PoseConfig(position=[2, 2, 2.5]),
    upper=lp.PoseConfig(position=[6, 6, 3.8], pitch=0.8, roll=0.3),
)
test_object = lp.ObjectSpec(dims=[2.0, 2.0, 2.0])
trial_settings = lp.OdrSettings(obj=test_object, trials=500, threshold=1)

seeds = np.random.SeedSequence(7).spawn(21)
config_rng = np.random.default_rng(seeds[0])
lower, upper = lp.decision_bounds(bounds, len(models))

print(f"{'config':>6} {'max VSR':>9} {'ODR':>7}")
vsrs, odrs = [], []
for i in range(20):
    poses = lp.poses_from_vector(config_rng.uniform(lower, upper), len(models))
    objective = lp.max_vsr(poses, models, grid)
    rng = np.random.default_rng(seeds[i + 1])
    report = lp.estimate_odr(poses, models, grid, trial_settings, rng)
    vsrs.append(objective)
    odrs.append(report.odr)
    print(f"{i:>6} {objective:>9.4f} {report.odr:>7.3f}")

rho = stats.spearmanr(vsrs, odrs).statistic
print(f"\nSpearman rank correlation: {rho:.3f} (strongly negative)")

with open("demo_vsr_odr.csv", "w", encoding="utf-8") as fh:
    fh.write("max_vsr,odr\n")
    for v, o in zip(vsrs, odrs):
        fh.write(f"{v!r},{o!r}\n")
print("wrote demo_vsr_odr.csv")
