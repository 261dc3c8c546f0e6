"""Why minimize VSR?  Because it tracks the object detection rate.

Samples random in-bounds placements, scores each with the max-VSR objective,
and estimates its detection rate by dropping a test object at random spots.
The two measures are strongly anti-correlated: smaller worst-case blind spots
mean more detections.

Run from the repository root:  python3 demos/05_vsr_vs_detection_rate.py
"""

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
trial_settings = lp.OdrSettings(object_dims=[2.0, 2.0, 2.0], trials=500, threshold=1)

points = lp.vsr_odr_scatter(models, grid, bounds, trial_settings, seed=7, samples=20)

print(f"{'config':>6} {'max VSR':>9} {'ODR':>7}")
for i, (objective, odr) in enumerate(points):
    print(f"{i:>6} {objective:>9.4f} {odr:>7.3f}")

rho = stats.spearmanr(*zip(*points)).statistic
print(f"\nSpearman rank correlation: {rho:.3f} (strongly negative)")

with open("demo_vsr_odr.csv", "w", encoding="utf-8") as fh:
    fh.write("max_vsr,odr\n")
    for v, o in points:
        fh.write(f"{v!r},{o!r}\n")
print("wrote demo_vsr_odr.csv")
