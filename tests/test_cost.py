import math

import numpy as np
import pytest

import lidarplace as lp
from grids import blob_grid, blob_metrics, single_component_metrics
from oracles import (
    assert_valid_partition,
    brute_force_max_vsr,
    component_vsr,
    exposed_face_area,
)

RES = np.array([1.0, 0.5, 0.2])


def random_blob(rng, max_size=60):
    """A random set of unique voxel index triples, loosely clustered."""
    size = int(rng.integers(1, max_size + 1))
    seen = {(0, 0, 0)}
    while len(seen) < size:
        base = list(seen)[int(rng.integers(0, len(seen)))]
        step = rng.integers(-1, 2, 3)
        seen.add((base[0] + int(step[0]), base[1] + int(step[1]), base[2] + int(step[2])))
    return np.array(sorted(seen), dtype=np.int64)


class TestVolume:
    def test_single_voxel(self):
        assert blob_metrics([[0, 0, 0]], RES)[0] == pytest.approx(0.1, rel=1e-12)

    def test_full_reference_block(self):
        grid = lp.build_voxel_grid(lp.RoiSpec(extent=[60, 20, 4], resolution=RES))
        assert single_component_metrics(grid)[0] == pytest.approx(4800.0, rel=1e-12)

    def test_unit_cube(self):
        idx = np.array([(i, j, k) for i in range(3) for j in range(3) for k in range(3)])
        assert blob_metrics(idx, [1, 1, 1])[0] == 27.0

    def test_empty_rejected(self):
        # component ids must cover every active voxel; an empty labelling does not
        grid = blob_grid([[0, 0, 0]], RES)
        with pytest.raises(ValueError):
            lp.component_metrics(np.empty(0, dtype=np.int64), 0, grid)


class TestSurfaceArea:
    def test_two_stacked_voxels_by_axis(self):
        # Stacked along z the pair is a 1 x 0.5 x 0.4 box: xy faces 1.0 m^2,
        # xz faces 0.8 m^2, yz faces 0.4 m^2.  Along y and x it is a
        # 1 x 1 x 0.2 and a 2 x 0.5 x 0.2 box.
        for axis, (a, b, c) in ((2, (1, 0.5, 0.4)), (1, (1, 1.0, 0.2)), (0, (2, 0.5, 0.2))):
            stack = np.zeros((2, 3), dtype=np.int64)
            stack[1, axis] = 1
            assert blob_metrics(stack, RES)[1] == pytest.approx(
                2 * (a * b + a * c + b * c), rel=1e-12
            )
        assert blob_metrics([[0, 0, 0], [0, 0, 1]], RES)[1] == pytest.approx(
            1.0 + 0.8 + 0.4, rel=1e-12
        )

    def test_single_voxel_closed_form(self):
        one = np.array([[4, 2, 7]])
        assert blob_metrics(one, RES)[1] == pytest.approx(
            2 * (1 * 0.5 + 1 * 0.2 + 0.5 * 0.2), rel=1e-12
        )

    def test_full_reference_block_closed_form(self):
        grid = lp.build_voxel_grid(lp.RoiSpec(extent=[60, 20, 4], resolution=RES))
        assert single_component_metrics(grid)[1] == pytest.approx(
            2 * (60 * 20 + 60 * 4 + 20 * 4), rel=1e-12
        )

    def test_matches_exposed_face_oracle_exactly(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            blob = random_blob(rng)
            res = rng.uniform(0.1, 2.0, 3)
            assert blob_metrics(blob, res)[1] == exposed_face_area(
                map(tuple, blob.tolist()), res
            )

    @pytest.mark.parametrize("dims", [(1, 2, 3), (3, 1, 4), (4, 3, 1), (1, 1, 5), (3, 3, 3)])
    def test_every_id_matches_the_oracle_on_thin_grids(self, dims):
        # Ids spread over the grid, so same-id voxels that are neighbours only
        # in flat order ((i, j, nz-1) then (i, j+1, 0)) must count as exposed.
        rng = np.random.default_rng(sum(dims))
        grid = lp.build_voxel_grid(lp.RoiSpec(extent=np.array(dims) * RES, resolution=RES))
        for _ in range(5):
            _, comp = np.unique(rng.integers(0, 3, grid.num_active), return_inverse=True)
            count = int(comp.max()) + 1
            _, _, sa, _ = lp.component_metrics(comp, count, grid)
            for c in range(count):
                cells = map(tuple, grid.active_indices[comp == c].tolist())
                assert sa[c] == exposed_face_area(cells, RES)

    def test_voxel_order_is_irrelevant(self):
        rng = np.random.default_rng(32)
        blob = random_blob(rng)
        shuffled = blob.copy()
        rng.shuffle(shuffled)
        assert blob_metrics(blob, RES) == blob_metrics(shuffled, RES)
        # Component ids are arbitrary labels too: relabelling the components
        # permutes the metric rows and changes no value.
        grid = blob_grid(blob, RES)
        comp = rng.integers(0, 3, grid.num_active)
        comp[:3] = [0, 1, 2]
        relabel = np.array([2, 0, 1])
        direct = lp.component_metrics(comp, 3, grid)
        relabelled = lp.component_metrics(relabel[comp], 3, grid)
        for old, new in zip(direct, relabelled):
            assert np.array_equal(new[relabel], old)


class TestVsr:
    def test_single_voxel(self):
        assert blob_metrics([[0, 0, 0]], RES)[2] == pytest.approx(0.0625, rel=1e-12)

    def test_full_block_and_inscribed_radius(self):
        grid = lp.build_voxel_grid(lp.RoiSpec(extent=[60, 20, 4], resolution=RES))
        model = lp.LidarModel(beam_pitches=[math.radians(5), math.radians(15)])
        pose = lp.PoseConfig(position=[30.0, 10.0, 4.5])  # every cone clears the ROI
        (rec,) = lp.evaluate_placement([pose], [model], grid).subspaces
        assert rec.vsr == pytest.approx(4800.0 / 3040.0, rel=1e-12)
        assert rec.inscribed_radius_estimate == pytest.approx(3 * 4800.0 / 3040.0, rel=1e-12)
        assert rec.vsr > 0

    def test_metrics_fields_consistent(self):
        rng = np.random.default_rng(33)
        blob = random_blob(rng)
        vol, sa, ratio = blob_metrics(blob, RES)
        assert ratio == vol / sa


class TestMaxVsr:
    def test_matches_brute_force_on_coarse_grid(self):
        roi = lp.RoiSpec(extent=[8, 8, 4], resolution=[1, 1, 1])
        grid = lp.build_voxel_grid(roi)
        model = lp.LidarModel(beam_pitches=[0.0])
        pose = lp.PoseConfig(position=[4.0, 4.0, 4.0], pitch=0.1)
        got = lp.max_vsr([pose], [model], grid)
        expected = brute_force_max_vsr(
            [(4.0, 4.0, 4.0, 0.0, 0.1, 0.0)], [[0.0]], (8.0, 8.0, 4.0), (1.0, 1.0, 1.0)
        )
        assert got == expected

    def test_all_beams_above_roi_degenerate_single_subspace(self):
        roi = lp.RoiSpec(extent=[8, 8, 4], resolution=[1, 1, 1])
        grid = lp.build_voxel_grid(roi)
        model = lp.LidarModel(beam_pitches=[math.radians(5), math.radians(15)])
        pose = lp.PoseConfig(position=[4.0, 4.0, 4.5])  # mounted above the ROI ceiling
        report = lp.evaluate_placement([pose], [model], grid)
        assert len(report.subspaces) == 1
        assert report.objective == component_vsr(
            list(map(tuple, grid.active_indices.tolist())), grid.resolution
        )

    def test_duplicate_lidar_changes_nothing(self):
        roi = lp.RoiSpec(extent=[8, 8, 4], resolution=[1, 1, 1])
        grid = lp.build_voxel_grid(roi)
        model = lp.LidarModel(beam_pitches=[math.radians(-10), math.radians(10)])
        pose = lp.PoseConfig(position=[3.0, 5.0, 3.0], pitch=0.2)
        single = lp.max_vsr([pose], [model], grid)
        double = lp.max_vsr([pose, pose], [model, model], grid)
        assert single == double

    def test_deterministic_bitwise(self):
        roi = lp.RoiSpec(extent=[8, 8, 4], resolution=[1, 1, 1])
        grid = lp.build_voxel_grid(roi)
        model = lp.LidarModel.evenly_spaced(4, -0.3, 0.3)
        poses = [lp.PoseConfig(position=[2.7, 4.1, 3.3], pitch=0.21, roll=-0.05)]
        values = {lp.max_vsr(poses, [model], grid) for _ in range(5)}
        assert len(values) == 1

    def test_volume_conservation_and_membership(self):
        roi = lp.RoiSpec(
            extent=[8, 8, 4],
            resolution=[1, 1, 1],
            excluded_boxes=(lp.Box(minimum=[3, 3, 0], maximum=[5, 5, 2]),),
        )
        grid = lp.build_voxel_grid(roi)
        rng = np.random.default_rng(34)
        model = lp.LidarModel(beam_pitches=[-0.2, 0.2])
        for _ in range(5):
            poses = [
                lp.PoseConfig(position=rng.uniform([1, 1, 2], [7, 7, 4]), pitch=rng.uniform(-0.4, 0.4))
            ]
            labels = lp.first_level_labels(poses, [model], grid)
            comp, count = lp.component_ids(labels, grid)
            assert_valid_partition(grid, labels, comp, count)

    def test_refinement_nests_inside_coarser_partition(self):
        # Adding a sensor only splits components, never merges them.
        roi = lp.RoiSpec(extent=[6, 6, 3], resolution=[1, 1, 1])
        grid = lp.build_voxel_grid(roi)
        model = lp.LidarModel(beam_pitches=[-0.3, 0.1])
        rng = np.random.default_rng(35)
        for _ in range(10):
            pose_a = lp.PoseConfig(position=rng.uniform([1, 1, 1], [5, 5, 3]))
            pose_b = lp.PoseConfig(position=rng.uniform([1, 1, 1], [5, 5, 3]), pitch=0.3)
            labels_one = lp.first_level_labels([pose_a], [model], grid)
            labels_two = lp.first_level_labels([pose_a, pose_b], [model, model], grid)
            comp_one, _ = lp.component_ids(labels_one, grid)
            comp_two, count_two = lp.component_ids(labels_two, grid)
            for cid in range(count_two):
                parents = set(comp_one[comp_two == cid].tolist())
                assert len(parents) == 1

    def test_report_rows_align_with_objective(self):
        roi = lp.RoiSpec(extent=[8, 8, 4], resolution=[1, 1, 1])
        model = lp.LidarModel(beam_pitches=[-0.2, 0.2])
        pose = lp.PoseConfig(position=[4.0, 4.0, 3.0])
        grid = lp.build_voxel_grid(roi)
        report = lp.evaluate_placement([pose], [model], grid)
        assert report.objective == max(rec.vsr for rec in report.subspaces)
        assert report.worst.vsr == report.objective
        total = sum(rec.voxel_count for rec in report.subspaces)
        assert total == grid.num_active
        for rec in report.subspaces:
            assert rec.vsr > 0
            assert rec.inscribed_radius_estimate == 3.0 * rec.vsr


class TestDecisionVector:
    def test_round_trip(self):
        vec = np.array([1, 2, 3, 0.4, -0.1, 5, 6, 7, 0.0, 0.2])
        poses = lp.poses_from_vector(vec, 2)
        assert len(poses) == 2
        assert poses[0].position.tolist() == [1, 2, 3]
        assert poses[0].pitch == 0.4 and poses[0].roll == -0.1
        assert poses[1].yaw == 0.0
        assert poses[1].pitch == 0.0 and poses[1].roll == 0.2

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            lp.poses_from_vector(np.zeros(7), 1)

    def test_bounds_tile_and_skip_yaw(self):
        bounds = lp.PoseBounds(
            lower=lp.PoseConfig(position=[28, 9, 2.2]),
            upper=lp.PoseConfig(position=[31, 11, 3], yaw=3.1415, pitch=3.1415, roll=0.0),
        )
        lo, hi = lp.decision_bounds(bounds, 2)
        assert lo.tolist() == [28, 9, 2.2, 0, 0] * 2
        assert hi.tolist() == [31, 11, 3, 3.1415, 0.0] * 2

    def test_objective_closure(self):
        roi = lp.RoiSpec(extent=[4, 4, 2], resolution=[1, 1, 1])
        grid = lp.build_voxel_grid(roi)
        model = lp.LidarModel(beam_pitches=[0.0])
        objective = lp.make_objective([model], grid)
        vec = np.array([2.0, 2.0, 1.5, 0.0, 0.0])
        assert objective(vec) == lp.max_vsr(lp.poses_from_vector(vec, 1), [model], grid)
