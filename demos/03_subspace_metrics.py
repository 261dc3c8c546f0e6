"""Scoring subspaces: volume, surface area, and VSR.

The volume-to-surface-area ratio stands in for "how big a blind spot is":
3 * VSR approximates the radius of the largest inscribed sphere, so the
placement objective is to make the worst subspace's VSR small.

Run from the repository root:  python3 demos/03_subspace_metrics.py
"""

import math

import numpy as np

import lidarplace as lp

# Warm-up on a hand-checkable shape: a 1 x 1 x 2 voxel grid whose lower voxel
# is component 0 and upper voxel component 1, then both as one component.
warmup = lp.build_voxel_grid(lp.RoiSpec(extent=[1.0, 0.5, 0.4], resolution=[1.0, 0.5, 0.2]))
for label, comp in (("single voxels", [0, 1]), ("two stacked  ", [0, 0])):
    comp = np.array(comp)
    _, vol, sa, ratio = lp.component_metrics(comp, comp.max() + 1, warmup)
    print(f"{label}: volume {vol[0]:.3f}  surface {sa[0]:.3f}  vsr {ratio[0]:.6f}")

# Now a real placement: two 16-beam sensors on the vehicle roof.
roi = lp.RoiSpec(
    extent=[60, 20, 4],
    resolution=[2.0, 1.0, 0.4],
    excluded_boxes=(lp.Box(minimum=[27, 8, 0], maximum=[33, 12, 4]),),
)
vlp16 = lp.LidarModel.evenly_spaced(16, math.radians(-15), math.radians(15))
poses = [
    lp.PoseConfig(position=[28.2, 9.3, 2.9], pitch=math.radians(25)),
    lp.PoseConfig(position=[30.8, 10.7, 2.9], pitch=math.radians(155)),
]

grid = lp.build_voxel_grid(roi)
report = lp.evaluate_placement(poses, [vlp16, vlp16], grid)
print(f"\n{len(report.subspaces)} subspaces; objective (max VSR) = {report.objective:.4f} m")
print("worst blind spot radius estimate:",
      round(report.worst.inscribed_radius_estimate, 3), "m")

print("\nten largest subspaces by VSR:")
print(f"{'component':>9} {'voxels':>7} {'volume':>9} {'surface':>9} {'vsr':>8}")
for rec in sorted(report.subspaces, key=lambda r: -r.vsr)[:10]:
    print(f"{rec.component_id:>9} {rec.voxel_count:>7} {rec.volume:>9.2f} "
          f"{rec.surface_area:>9.2f} {rec.vsr:>8.4f}")

# Volumes always add back up to the active ROI volume.
total = sum(rec.volume for rec in report.subspaces)
print(f"\nvolume conservation: {total:.6f} == {grid.num_active * grid.voxel_volume:.6f}")
