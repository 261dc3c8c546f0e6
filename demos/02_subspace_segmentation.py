"""Segmenting the ROI into non-detectable subspaces.

Every voxel gets one digit per sensor saying which inter-beam band its center
falls in; equal digit vectors are then split into face-connected components.
Each component is a region no beam surface crosses: a blind spot for static
objects.  Optionally renders a 3-D scatter colored by component.

Run from the repository root:  python3 demos/02_subspace_segmentation.py
"""

import math

import numpy as np

import lidarplace as lp

roi = lp.RoiSpec(
    extent=[60, 20, 4],
    resolution=[2.0, 1.0, 0.4],
    excluded_boxes=(lp.Box(minimum=[27, 8, 0], maximum=[33, 12, 4]),),
)
grid = lp.build_voxel_grid(roi)
beam4 = lp.LidarModel.evenly_spaced(4, math.radians(-15), math.radians(15))

poses = [
    lp.PoseConfig(position=[28.5, 9.5, 2.8], pitch=math.radians(12)),
    lp.PoseConfig(position=[31.5, 10.5, 2.8], pitch=math.radians(170)),
]
models = [beam4, beam4]

labels = lp.first_level_labels(poses, models, grid)
distinct_codes = {tuple(row) for row in labels.tolist()}
bound = (beam4.num_beams + 1) ** len(poses)
print(f"first level: {len(distinct_codes)} distinct codes (at most {bound})")

comp, count = lp.component_ids(labels, grid)
print(f"second level: {count} face-connected subspaces")
sizes = np.bincount(comp, minlength=count)
largest = int(np.argmax(sizes))
code = tuple(int(d) for d in labels[np.flatnonzero(comp == largest)[0]])
print(f"largest subspace: component {largest}, code {code}, {sizes[largest]} voxels")

# The subspaces tile the active voxels exactly.
total = int(sizes.sum())
assert total == grid.num_active
print(f"partition check: {total} voxels across all subspaces == active count")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig = plt.figure(figsize=(9, 4))
    ax = fig.add_subplot(projection="3d")
    c = np.column_stack([axis[i] for axis, i in zip(grid.axis_centers, grid.active_indices.T)])
    ax.scatter(c[:, 0], c[:, 1], c[:, 2], c=comp, s=3, cmap="tab20")
    ax.set_xlabel("x [m]")
    ax.set_ylabel("y [m]")
    ax.set_zlabel("z [m]")
    ax.set_title("non-detectable subspaces (color = component)")
    fig.tight_layout()
    fig.savefig("demo_subspaces.png", dpi=120)
    print("wrote demo_subspaces.png")
except ImportError:
    print("matplotlib not available; skipping the scatter plot")
