import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lidarplace as lp
from grids import voxel_centers
from lidarplace.geometry import MAX_VOXELS, GridTooLargeError
from oracles import voxel_grid_ref, world_to_lidar_ref


def random_pose(rng):
    return lp.PoseConfig(
        position=rng.uniform(-10, 10, 3),
        yaw=rng.uniform(-math.pi, math.pi),
        pitch=rng.uniform(-math.pi, math.pi),
        roll=rng.uniform(-math.pi, math.pi),
    )


class TestRotationMatrix:
    def test_zero_angles_give_identity(self):
        r = lp.rotation_matrix(lp.PoseConfig(position=[0, 0, 0]))
        assert np.array_equal(r, np.eye(3))

    def test_quarter_turn_yaw_first_row(self):
        r = lp.rotation_matrix(lp.PoseConfig(position=[0, 0, 0], yaw=math.pi / 2))
        assert np.allclose(r[0], [0.0, -1.0, 0.0], atol=1e-12)

    def test_determinant_is_plus_one(self):
        # Regression pin for the yaw-pitch-roll sign convention.
        rng = np.random.default_rng(11)
        for _ in range(500):
            r = lp.rotation_matrix(random_pose(rng))
            assert abs(np.linalg.det(r) - 1.0) < 1e-9

    def test_orthonormal(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            r = lp.rotation_matrix(random_pose(rng))
            assert np.abs(r.T @ r - np.eye(3)).max() < 1e-9


class TestTransforms:
    def test_identity_pose_is_identity_map(self):
        p = lp.world_to_lidar(lp.PoseConfig(position=[0, 0, 0]), [1.0, 2.0, 3.0])
        assert np.array_equal(p, [1.0, 2.0, 3.0])

    def test_pure_translation(self):
        pose = lp.PoseConfig(position=[1, 0, 0])
        assert np.array_equal(lp.world_to_lidar(pose, [1.0, 0.0, 0.0]), [0.0, 0.0, 0.0])

    def test_round_trip_many_random_poses(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            pose = random_pose(rng)
            point = rng.uniform(-50, 50, 3)
            back = lp.lidar_to_world(pose, lp.world_to_lidar(pose, point))
            assert np.abs(back - point).max() < 1e-9

    def test_batch_matches_scalar_reference(self):
        rng = np.random.default_rng(14)
        pose = random_pose(rng)
        pts = rng.uniform(-20, 20, (64, 3))
        batch = lp.world_to_lidar(pose, pts)
        for i in range(len(pts)):
            ref = world_to_lidar_ref(
                tuple(pose.position), pose.yaw, pose.pitch, pose.roll, tuple(pts[i])
            )
            assert batch[i].tolist() == list(ref)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            lp.PoseConfig(position=[0, 0, float("nan")])
        with pytest.raises(ValueError):
            lp.PoseConfig(position=[0, 0, 0], pitch=float("inf"))


class TestBeamSurface:
    """The cone surface ``tan(pitch) * r`` as :func:`beam_digits` applies it: on it counts as above."""

    @staticmethod
    def cone_height(pitch, x, y):
        # ``beam_digits``'s product, checked to be the boundary between digits 0 and 1
        model = lp.LidarModel(beam_pitches=[pitch])
        height = model.beam_tangents[0] * math.sqrt(x * x + y * y)
        assert lp.beam_digits(model, [[x, y, height]]).tolist() == [1]
        assert lp.beam_digits(model, [[x, y, np.nextafter(height, -math.inf)]]).tolist() == [0]
        return height

    def test_flat_beam_is_zero(self):
        assert self.cone_height(0.0, 12.3, -4.5) == 0.0

    def test_unit_slope_on_345_triangle(self):
        assert math.isclose(self.cone_height(math.pi / 4, 3.0, 4.0), 5.0, rel_tol=1e-12)

    def test_downward_beam(self):
        assert abs(self.cone_height(math.radians(-15.0), 1.0, 0.0) - (-0.26795)) < 1e-4

    def test_rotation_invariance_about_vertical(self):
        # Off the cones, the digit depends on (x, y) only through r.
        rng = np.random.default_rng(15)
        for _ in range(100):
            model = lp.LidarModel(beam_pitches=np.sort(rng.uniform(-1.2, 1.2, 3)))
            radius = rng.uniform(0.1, 30.0)
            angles = rng.uniform(0, 2 * math.pi, 8)
            heights = model.beam_tangents * radius
            # below every cone, midway between neighbouring cones, above every cone
            off_cones = [heights[0] - radius, *0.5 * (heights[:-1] + heights[1:]), heights[-1] + radius]
            for band, z in enumerate(off_cones):
                points = [[radius * math.cos(a), radius * math.sin(a), z] for a in angles]
                assert lp.beam_digits(model, points).tolist() == [band] * 8

    def test_vertical_pitch_rejected(self):
        with pytest.raises(ValueError):
            lp.LidarModel(beam_pitches=[math.pi / 2])


class TestLidarModel:
    def test_requires_strictly_increasing(self):
        with pytest.raises(ValueError):
            lp.LidarModel(beam_pitches=[0.1, 0.1])
        with pytest.raises(ValueError):
            lp.LidarModel(beam_pitches=[0.3, -0.3])

    def test_rejects_out_of_range_pitch(self):
        with pytest.raises(ValueError):
            lp.LidarModel(beam_pitches=[-math.pi / 2])

    def test_evenly_spaced_matches_linspace(self):
        model = lp.LidarModel.evenly_spaced(16, math.radians(-15), math.radians(15))
        assert model.num_beams == 16
        assert np.allclose(np.diff(model.beam_pitches), math.radians(2.0))
        assert model.beam_pitches[0] == math.radians(-15)
        assert model.beam_pitches[-1] == math.radians(15)

    def test_tangents_cached(self):
        model = lp.LidarModel(beam_pitches=[-0.2, 0.0, 0.3])
        assert model.beam_tangents.tolist() == [math.tan(-0.2), 0.0, math.tan(0.3)]


class TestVoxelGrid:
    def test_reference_grid_dimensions(self):
        roi = lp.RoiSpec(extent=[60, 20, 4], resolution=[1, 0.5, 0.2])
        grid = lp.build_voxel_grid(roi)
        assert grid.dims == (60, 40, 20)
        assert grid.num_voxels == 48000
        assert grid.num_active == 48000

    def test_single_voxel_roi(self):
        grid = lp.build_voxel_grid(lp.RoiSpec(extent=[1, 1, 1], resolution=[1, 1, 1]))
        assert grid.num_voxels == 1 and grid.num_active == 1
        assert voxel_centers(grid).tolist() == [[0.5, 0.5, 0.5]]

    def test_exclusion_matches_center_in_box_scan(self):
        roi = lp.RoiSpec(
            extent=[60, 20, 4],
            resolution=[1, 0.5, 0.2],
            excluded_boxes=(lp.Box(minimum=[27, 8, 0], maximum=[33, 12, 4]),),
        )
        grid = lp.build_voxel_grid(roi)
        expected_active = 0
        for i in range(60):
            cx = (i + 0.5) * 1.0
            for j in range(40):
                cy = (j + 0.5) * 0.5
                for k in range(20):
                    cz = (k + 0.5) * 0.2
                    inside = 27 <= cx <= 33 and 8 <= cy <= 12 and 0 <= cz <= 4
                    expected_active += not inside
        assert grid.num_active == expected_active
        assert grid.num_active + (grid.num_voxels - grid.num_active) == grid.num_voxels

    def test_rejects_non_divisible_resolution(self):
        with pytest.raises(ValueError):
            lp.RoiSpec(extent=[10, 10, 4], resolution=[3, 1, 1])

    def test_voxel_count_limit_checked_before_allocation(self):
        # at the limit the spec is accepted (and not built here)
        roi = lp.RoiSpec(extent=[MAX_VOXELS, 1, 1], resolution=[1, 1, 1])
        assert roi.grid_dims == (MAX_VOXELS, 1, 1)
        for extent in ([MAX_VOXELS + 1, 1, 1], [1e4, 1e4, 1e4], [1e300, 1e300, 1e300]):
            with pytest.raises(GridTooLargeError, match=str(MAX_VOXELS)):
                lp.RoiSpec(extent=extent, resolution=[1, 1, 1])

    def test_excluded_box_must_fit(self):
        with pytest.raises(ValueError):
            lp.RoiSpec(
                extent=[4, 4, 4],
                resolution=[1, 1, 1],
                excluded_boxes=(lp.Box(minimum=[0, 0, 0], maximum=[5, 1, 1]),),
            )

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_per_voxel_builder(self, data):
        dims = [data.draw(st.integers(1, 7)) for _ in range(3)]
        res = [data.draw(st.sampled_from([0.1, 0.25, 0.3, 0.5, 1.0, 1.7])) for _ in range(3)]
        extent = [d * r for d, r in zip(dims, res)]
        boxes = []
        for _ in range(data.draw(st.integers(0, 3))):
            # faces on centers, between centers, or on the ROI faces
            faces = [
                sorted(
                    data.draw(
                        st.sampled_from([(i + 0.5) * r for i in range(n)] + [0.0, e])
                        | st.floats(0.0, e)
                    )
                    for _ in range(2)
                )
                for n, r, e in zip(dims, res, extent)
            ]
            boxes.append(([f[0] for f in faces], [f[1] for f in faces]))
        roi = lp.RoiSpec(
            extent=extent,
            resolution=res,
            excluded_boxes=tuple(lp.Box(minimum=lo, maximum=hi) for lo, hi in boxes),
        )
        grid = lp.build_voxel_grid(roi)
        # the written extent may differ from dims * resolution in the last bit
        ref = voxel_grid_ref(roi.grid_dims, res, [(b.minimum, b.maximum) for b in roi.excluded_boxes])
        for got, want in zip((grid.active_indices, voxel_centers(grid)), ref):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        for a, axis in enumerate(grid.axis_centers):
            assert axis.shape == (grid.dims[a],)
        sx, sy, sz = grid.padded_strides
        index = grid.active_indices
        assert np.array_equal(grid.padded_cells, index[:, 0] * sx + index[:, 1] * sy + index[:, 2] * sz)

    def test_box_faces_on_centers_exclude_those_centers(self):
        roi = lp.RoiSpec(
            extent=[0.9, 0.9, 0.9],
            resolution=[0.3, 0.3, 0.3],
            excluded_boxes=(lp.Box(minimum=[0.15, 0.15, 0.15], maximum=[0.45, 0.45, 0.45]),),
        )
        grid = lp.build_voxel_grid(roi)
        ref = voxel_grid_ref((3, 3, 3), [0.3, 0.3, 0.3], [([0.15] * 3, [0.45] * 3)])
        assert not (grid.active_indices < 2).all(axis=1).any() and grid.num_active == 27 - 8
        for got, want in zip((grid.active_indices, voxel_centers(grid)), ref):
            assert np.array_equal(got, want)

    def test_centers_and_masks_are_read_only(self):
        grid = lp.build_voxel_grid(lp.RoiSpec(extent=[2, 2, 2], resolution=[1, 1, 1]))
        for arr in (
            *grid.axis_centers, grid.active_indices, grid.resolution, grid.padded_cells,
        ):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestBounds:
    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            lp.PoseBounds(
                lower=lp.PoseConfig(position=[1, 0, 0]),
                upper=lp.PoseConfig(position=[0, 0, 0]),
            )

    def test_contains(self):
        bounds = lp.PoseBounds(
            lower=lp.PoseConfig(position=[0, 0, 0]),
            upper=lp.PoseConfig(position=[1, 1, 1], pitch=0.5),
        )
        assert bounds.contains(lp.PoseConfig(position=[0.5, 0.5, 0.5], pitch=0.2))
        assert not bounds.contains(lp.PoseConfig(position=[0.5, 0.5, 0.5], pitch=0.7))
        assert not bounds.contains(lp.PoseConfig(position=[2, 0.5, 0.5]))
