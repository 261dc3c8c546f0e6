import math

import numpy as np
import pytest

import lidarplace as lp
from oracles import assert_valid_partition, beam_digit_ref, flood_fill_components

TWO_BEAM = lp.LidarModel(beam_pitches=[math.radians(-15), math.radians(15)])


def grid_of(extent, resolution, boxes=()):
    return lp.build_voxel_grid(
        lp.RoiSpec(extent=extent, resolution=resolution, excluded_boxes=boxes)
    )


def digit(model, point):
    return int(lp.beam_digits(model, np.asarray([point], dtype=float))[0])


class TestBeamDigit:
    def test_between_the_beams(self):
        assert digit(TWO_BEAM, [1.0, 0.0, 0.0]) == 1

    def test_above_the_top_beam(self):
        assert digit(TWO_BEAM, [1.0, 0.0, 1.0]) == 2

    def test_below_the_bottom_beam(self):
        assert digit(TWO_BEAM, [1.0, 0.0, -1.0]) == 0

    def test_on_the_vertical_axis(self):
        # Every cone height is zero at r = 0; the sign of z decides alone.
        assert digit(TWO_BEAM, [0.0, 0.0, -0.1]) == 0
        assert digit(TWO_BEAM, [0.0, 0.0, 0.0]) == TWO_BEAM.num_beams
        assert digit(TWO_BEAM, [0.0, 0.0, 0.1]) == TWO_BEAM.num_beams

    def test_matches_interval_rule_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            n_beams = int(rng.integers(1, 9))
            pitches = np.sort(rng.uniform(-1.2, 1.2, n_beams))
            while np.any(np.diff(pitches) <= 0):
                pitches = np.sort(rng.uniform(-1.2, 1.2, n_beams))
            model = lp.LidarModel(beam_pitches=pitches)
            point = rng.uniform(-10, 10, 3)
            expected = beam_digit_ref(model.beam_tangents.tolist(), *point)
            assert digit(model, point) == expected

    def test_monotone_in_z(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            x, y = rng.uniform(-5, 5, 2)
            zs = np.sort(rng.uniform(-5, 5, 20))
            digits = lp.beam_digits(TWO_BEAM, [[x, y, z] for z in zs]).tolist()
            assert all(a <= b for a, b in zip(digits, digits[1:]))

    def test_vectorized_agrees_with_scalar(self):
        # the whole batch at once agrees with the scalar interval-rule reference
        rng = np.random.default_rng(23)
        pts = rng.uniform(-5, 5, (200, 3))
        vec = lp.beam_digits(TWO_BEAM, pts)
        tangents = TWO_BEAM.beam_tangents.tolist()
        assert vec.tolist() == [beam_digit_ref(tangents, *p) for p in pts]


class TestFirstLevelLabels:
    def test_single_beam_partitions_grid_exhaustively(self):
        grid = grid_of([8, 8, 4], [1, 1, 1])
        model = lp.LidarModel(beam_pitches=[0.0])
        pose = lp.PoseConfig(position=[4.0, 4.0, 4.0])
        labels = lp.first_level_labels([pose], [model], grid)
        assert set(np.unique(labels[:, 0])) <= {0, 1}
        for row in range(grid.num_active):
            local = lp.world_to_lidar(pose, grid.active_centers[row])
            assert labels[row, 0] == beam_digit_ref(model.beam_tangents.tolist(), *local)

    def test_code_space_bounds(self):
        assert (16 + 1) ** 2 == 289
        assert (16 + 1) ** 4 == 83521

    def test_observed_codes_within_bound(self):
        grid = grid_of([8, 8, 4], [1, 1, 1])
        models = [TWO_BEAM, TWO_BEAM]
        poses = [
            lp.PoseConfig(position=[2.5, 2.5, 3.0], pitch=0.2),
            lp.PoseConfig(position=[5.5, 5.5, 3.0], roll=0.1),
        ]
        labels = lp.first_level_labels(poses, models, grid)
        distinct = {tuple(row) for row in labels.tolist()}
        assert len(distinct) <= (TWO_BEAM.num_beams + 1) ** 2

    def test_length_mismatch_rejected(self):
        grid = grid_of([2, 2, 2], [1, 1, 1])
        with pytest.raises(ValueError):
            lp.first_level_labels([lp.PoseConfig(position=[1, 1, 1])], [], grid)


def component_sets(comp, count, grid):
    """Each component as the frozenset of its voxel index triples, by id."""
    cells = [set() for _ in range(count)]
    for row, c in enumerate(comp.tolist()):
        cells[c].add(tuple(grid.active_indices[row].tolist()))
    return [frozenset(c) for c in cells]


class TestConnectedComponents:
    def test_edge_contact_is_not_adjacency(self):
        # Diagonal neighbors in the x-y plane share only an edge: 4 components.
        grid = grid_of([2, 2, 1], [1, 1, 1])
        labels = np.array([[0], [1], [1], [0]])  # rows: (0,0,0),(0,1,0),(1,0,0),(1,1,0)
        comp, count = lp.component_ids(labels, grid)
        assert count == 4
        same_code = comp[labels[:, 0] == 0]
        assert same_code[0] != same_code[1]
        assert np.bincount(comp, minlength=count)[same_code].tolist() == [1, 1]

    def test_uniform_block_is_one_component(self):
        grid = grid_of([3, 3, 3], [1, 1, 1])
        labels = np.zeros((27, 1), dtype=np.int64)
        comp, count = lp.component_ids(labels, grid)
        assert count == 1 and comp.tolist() == [0] * 27

    def test_band_splits_same_code_region(self):
        # A different-code slab across the middle severs the outer code.
        grid = grid_of([5, 1, 1], [1, 1, 1])
        labels = np.array([[7], [7], [3], [7], [7]])
        comp, count = lp.component_ids(labels, grid)
        sizes = np.bincount(comp, minlength=count)
        codes = [int(labels[np.flatnonzero(comp == c)[0], 0]) for c in range(count)]
        assert sorted(zip(codes, sizes.tolist())) == [(3, 1), (7, 2), (7, 2)]

    def test_matches_flood_fill_on_random_grids(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            dims = rng.integers(2, 6, 3)
            grid = grid_of(dims.astype(float).tolist(), [1, 1, 1])
            labels = rng.integers(0, 3, (grid.num_active, 2))
            comp, count = lp.component_ids(labels, grid)
            cells = {
                tuple(grid.active_indices[row]): tuple(labels[row])
                for row in range(grid.num_active)
            }
            shuffled = list(cells)
            rng.shuffle(shuffled)
            expected = flood_fill_components(cells, order=shuffled)
            produced = component_sets(comp, count, grid)
            assert set(produced) == set(expected)
            assert len(produced) == len(expected)

    def test_inactive_voxels_never_bridge(self):
        box = lp.Box(minimum=[1, 0, 0], maximum=[2, 1, 1])
        grid = grid_of([3, 1, 1], [1, 1, 1], boxes=(box,))
        assert grid.num_active == 2  # middle voxel excluded
        labels = np.zeros((2, 1), dtype=np.int64)
        _, count = lp.component_ids(labels, grid)
        assert count == 2

    def test_component_ids_deterministic_and_lexicographic(self):
        grid = grid_of([4, 4, 2], [1, 1, 1])
        rng = np.random.default_rng(25)
        labels = rng.integers(0, 2, (grid.num_active, 1))
        comp_a, count_a = lp.component_ids(labels, grid)
        comp_b, count_b = lp.component_ids(labels.copy(), grid)
        assert count_a == count_b
        assert np.array_equal(comp_a, comp_b)
        # id order follows the first (lexicographically smallest) voxel of each
        # component as encountered in grid order
        first_rows = [int(np.flatnonzero(comp_a == c)[0]) for c in range(count_a)]
        assert first_rows == sorted(first_rows)

    def test_partition_covers_active_exactly_once(self):
        grid = grid_of(
            [6, 6, 2], [1, 1, 1], boxes=(lp.Box(minimum=[2, 2, 0], maximum=[4, 4, 2]),)
        )
        rng = np.random.default_rng(26)
        labels = rng.integers(0, 4, (grid.num_active, 1))
        comp, count = lp.component_ids(labels, grid)
        seen = {}
        for cid, cells in enumerate(component_sets(comp, count, grid)):
            for trip in cells:
                assert trip not in seen
                seen[trip] = cid
        assert len(seen) == grid.num_active
        assert_valid_partition(grid, labels, comp, count)

    def test_huge_digit_values_still_partition_correctly(self):
        # digit columns too wide for mixed-radix packing take the row-identity
        # fallback; the partition must come out the same
        grid = grid_of([4, 1, 1], [1, 1, 1])
        labels = np.array([[2**40, 7], [2**40, 7], [5, 2**40], [2**40, 7]])
        comp, count = lp.component_ids(labels, grid)
        assert count == 3
        assert comp.tolist() == [0, 0, 1, 2]
