"""Beam cones, pose transforms, and ROI voxelization.

Walks through the geometric building blocks: a spinning LiDAR's beam cones,
moving points between the world frame and the sensor frame, and chopping the
region of interest into voxels with the vehicle footprint carved out.

Run from the repository root:  python3 demos/01_beam_cones_and_voxels.py
"""

import math

import numpy as np

import lidarplace as lp

# A 16-beam unit with pitches evenly spread over [-15 deg, +15 deg], the
# workhorse sensor used throughout these demos.
vlp16 = lp.LidarModel.evenly_spaced(16, math.radians(-15), math.radians(15))
print(f"16-beam model, pitches {np.degrees(vlp16.beam_pitches).round(1)} deg")

# Each beam sweeps a cone: its surface height tan(pitch) * r grows linearly
# with radial distance r from the sensor axis.
print("\ncone height of the steepest beam at increasing radius:")
for radius in (1.0, 5.0, 10.0, 30.0):
    z = vlp16.beam_tangents[-1] * radius
    print(f"  r = {radius:5.1f} m -> z = {z:6.3f} m")

# Poses combine a mounting position with yaw/pitch/roll.  The transform into
# the sensor frame and back is a lossless round trip.
pose = lp.PoseConfig(position=[29.5, 10.0, 2.6], pitch=math.radians(8), roll=math.radians(-3))
point = np.array([45.0, 12.0, 1.0])
local = lp.world_to_lidar(pose, point)
back = lp.lidar_to_world(pose, local)
print(f"\nworld point {point} -> sensor frame {local.round(4)} -> back {back.round(12)}")
print(f"rotation determinant: {np.linalg.det(lp.rotation_matrix(pose)):.12f}")

# The ROI is a 60 x 20 x 4 m box around the vehicle; the vehicle body itself
# is excluded so its interior never counts as a blind spot.
roi = lp.RoiSpec(
    extent=[60, 20, 4],
    resolution=[1.0, 0.5, 0.2],
    excluded_boxes=(lp.Box(minimum=[27, 8, 0], maximum=[33, 12, 4]),),
)
grid = lp.build_voxel_grid(roi)
print(f"\nvoxel grid {grid.dims} = {grid.num_voxels} voxels")
print(f"active (outside the vehicle box): {grid.num_active}")
print(f"voxel volume: {grid.voxel_volume} m^3")
# Each axis stores its voxel layers' centers once; a voxel's center reads
# its three index columns from them.
centers = np.column_stack([axis[i] for axis, i in zip(grid.axis_centers, grid.active_indices.T)])
print(f"first three active centers:\n{centers[:3]}")
