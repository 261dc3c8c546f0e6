import gc
import math
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lidarplace as lp
from grids import voxel_centers
from lidarplace import segmentation
from oracles import (
    assert_valid_partition,
    beam_digit_ref,
    digit_column_ref,
    flood_fill_components,
    run_components_ref,
)

TWO_BEAM = lp.LidarModel(beam_pitches=[math.radians(-15), math.radians(15)])
SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


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


# Strictly increasing pitches: sorted distinct floats inside (-pi/2, +pi/2).
PITCHES = st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=8, unique=True).map(sorted)
# Planar coordinates: ordinary, zero of either sign, subnormal, tiny and huge
# (x * x stays finite, so r does too).
PLANAR = st.floats(-10.0, 10.0) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e-150, 1e150, -1e150]
)
AXIS_Z = (-0.0, 0.0, 5e-324, -5e-324)
_STEEPEST = math.pi / 2 - 1e-9
# Models at the limits of the bin table: the steepest pitches, a beam at pitch
# exactly 0, one beam and the most beams, and tangents closer than a bin.
EDGE_MODELS = [
    pytest.param(lp.LidarModel.evenly_spaced(255, -_STEEPEST, _STEEPEST), id="255-steepest"),
    pytest.param(lp.LidarModel.evenly_spaced(255, -0.3, 0.2), id="255-narrow"),
    pytest.param(
        lp.LidarModel.evenly_spaced(16, math.radians(-15), math.radians(15)), id="16-beam"
    ),
    pytest.param(lp.LidarModel(beam_pitches=[-_STEEPEST, 0.0, _STEEPEST]), id="3-steepest-and-0"),
    pytest.param(lp.LidarModel(beam_pitches=[-0.3, 0.0, 0.3]), id="3-with-0"),
    pytest.param(lp.LidarModel(beam_pitches=[0.0]), id="1-at-0"),
    pytest.param(lp.LidarModel(beam_pitches=[_STEEPEST]), id="1-steepest"),
    pytest.param(lp.LidarModel(beam_pitches=[-1.0]), id="1-at-minus-1"),
    pytest.param(lp.LidarModel(beam_pitches=[0.5, np.nextafter(0.5, 1.0)]), id="2-one-ulp-apart"),
    pytest.param(lp.LidarModel(beam_pitches=[0.0, 5e-324]), id="2-zero-and-subnormal"),
]
# Planar coordinates x of points (x, 0, z): zero and subnormal (both give
# r = 0), the least that gives r > 0, tiny, ordinary and huge, ending on
# either side of the tiny-r cutoff.
EDGE_PLANAR = (
    0.0,
    5e-324,
    1e-310,
    math.sqrt(5e-324),
    1e-160,
    1e-3,
    1.0,
    3.7,
    1e5,
    1e150,
    segmentation._TINY_R * (1 - 2.0**-20),
    segmentation._TINY_R,
)


class TestBeamDigitEdges:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(pitches=PITCHES, x=PLANAR, y=PLANAR, z=st.floats(-1e6, 1e6))
    def test_matches_oracle_on_and_beside_every_cone(self, pitches, x, y, z):
        model = lp.LidarModel(beam_pitches=pitches)
        tangents = model.beam_tangents.tolist()
        r = math.sqrt(x * x + y * y)
        heights = [z, *AXIS_Z]
        for t in tangents:
            on_cone = t * r
            heights += [on_cone, np.nextafter(on_cone, math.inf), np.nextafter(on_cone, -math.inf)]
        points = [[x, y, h] for h in heights] + [[0.0, 0.0, h] for h in AXIS_Z]
        expected = [beam_digit_ref(tangents, *p) for p in points]
        assert lp.beam_digits(model, np.array(points)).tolist() == expected

    def test_axis_sign_of_zero(self):
        model = lp.LidarModel(beam_pitches=[-0.3, 0.0, 0.3])
        points = [[0.0, 0.0, z] for z in AXIS_Z] + [[-0.0, -0.0, z] for z in AXIS_Z]
        assert lp.beam_digits(model, points).tolist() == [3, 3, 3, 0] * 2

    @pytest.mark.parametrize("model", EDGE_MODELS)
    def test_matches_oracle_at_cones_bin_edges_and_small_r(self, model):
        tangents = model.beam_tangents.tolist()
        table = segmentation._bin_table(model)
        points = []
        for x in EDGE_PLANAR:
            r = math.sqrt(x * x)
            for t in tangents:
                on_cone = t * r
                beside = np.nextafter(on_cone, [math.inf, -math.inf]).tolist()
                points += [[x, 0.0, h] for h in (on_cone, *beside)]
            points += [[x, 0.0, h] for h in (*AXIS_Z, 1e-300, -1e-300, 1.0, -1.0)]
        # Quotients one ulp to each side of every bin edge of the table, at r = 1.
        edges = table.low + np.arange(segmentation._DIGIT_BINS + 1) / table.scale
        for side in (math.inf, -math.inf):
            points += [[1.0, 0.0, q] for q in np.nextafter(edges, side)]
        expected = [beam_digit_ref(tangents, *p) for p in points]
        assert lp.beam_digits(model, np.array(points)).tolist() == expected

    def test_radii_cover_zero_and_straddle_the_tiny_r_cutoff(self):
        radii = [math.sqrt(x * x) for x in EDGE_PLANAR]
        assert radii[:3] == [0.0, 0.0, 0.0]
        assert radii[3] == min(r for r in radii if r > 0.0)
        assert radii[-2] < segmentation._TINY_R == radii[-1]

    def test_quotient_overflow_is_not_an_error(self):
        # z / r overflows to inf; the suite turns that warning into an error.
        model = lp.LidarModel(beam_pitches=[-0.2, 0.2])
        assert lp.beam_digits(model, [[1e-160, 0.0, 1e150]]).tolist() == [2]
        assert lp.beam_digits(model, [[1e-160, 0.0, -1e150]]).tolist() == [0]
        assert lp.beam_digits(model, [[1e-300, 0.0, 1e300]]).tolist() == [2]


def _pose_grid():
    grid = grid_of([8, 8, 4], [1, 1, 1])
    poses = [
        lp.PoseConfig(position=[2.5, 2.5, 3.0], pitch=0.2),
        lp.PoseConfig(position=[5.5, 5.5, 3.0], roll=0.1),
    ]
    return grid, poses


def _uncached_labels(poses, models, grid):
    centers = voxel_centers(grid)
    return np.stack(
        [lp.beam_digits(m, lp.world_to_lidar(p, centers)) for p, m in zip(poses, models)],
        axis=1,
    )


class TestColumnCache:
    def test_cold_warm_and_uncached_runs_agree(self):
        grid, poses = _pose_grid()
        models = [TWO_BEAM, TWO_BEAM]
        columns = lp.ColumnCache(8)
        cold = lp.first_level_labels(poses, models, grid, columns)
        warm = lp.first_level_labels(poses, models, grid, columns)
        uncached = lp.first_level_labels(poses, models, grid)
        assert cold.dtype == warm.dtype == uncached.dtype == np.uint8
        assert cold.max() <= TWO_BEAM.num_beams
        assert np.array_equal(cold, warm) and np.array_equal(cold, uncached)
        assert cold.flags.f_contiguous and uncached.flags.f_contiguous
        assert np.array_equal(cold, _uncached_labels(poses, models, grid))
        # equal pose values hit the cache even through a new PoseConfig
        again = [lp.PoseConfig(position=p.position, pitch=p.pitch, roll=p.roll) for p in poses]
        assert np.array_equal(lp.first_level_labels(again, models, grid, columns), cold)
        info = columns.cache_info()
        assert (info.hits, info.misses) == (4, 2)

    def test_cached_columns_are_read_only_bytes(self):
        grid, poses = _pose_grid()
        columns = lp.ColumnCache(8)
        column = columns(poses[0], TWO_BEAM, grid)
        assert column.dtype == np.uint8 and not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 1
        assert columns(poses[0], TWO_BEAM, grid) is column
        assert np.array_equal(column, _uncached_labels(poses[:1], [TWO_BEAM], grid)[:, 0])

    def test_model_and_grid_are_part_of_the_key(self):
        grid, poses = _pose_grid()
        other_grid = grid_of([8, 8, 4], [1, 1, 1])
        other_model = lp.LidarModel(beam_pitches=[-0.1, 0.05, 0.2])
        columns = lp.ColumnCache(8)
        base = columns(poses[0], TWO_BEAM, grid)
        labels = lp.first_level_labels(poses[:1], [other_model], grid, columns)
        assert np.array_equal(labels, _uncached_labels(poses[:1], [other_model], grid))
        assert columns.cache_info().misses == 2
        other = columns(poses[0], TWO_BEAM, other_grid)
        assert columns.cache_info().misses == 3
        assert other is not base and np.array_equal(other, base)

    def test_never_exceeds_its_capacity(self):
        grid, _ = _pose_grid()
        columns = lp.ColumnCache(5)
        assert columns.cache_info().maxsize == 5
        rng = np.random.default_rng(31)
        for _ in range(60):
            pose = lp.PoseConfig(position=rng.uniform(0, 8, 3), pitch=rng.uniform(-1, 1))
            labels = lp.first_level_labels([pose], [TWO_BEAM], grid, columns)
            assert np.array_equal(labels, _uncached_labels([pose], [TWO_BEAM], grid))
            assert columns.cache_info().currsize <= 5
        assert columns.cache_info().currsize == 5
        # with no room, every column is computed but none kept
        columns = lp.ColumnCache(0)
        for _ in range(2):
            labels = lp.first_level_labels([pose], [TWO_BEAM], grid, columns)
            assert np.array_equal(labels, _uncached_labels([pose], [TWO_BEAM], grid))
        info = columns.cache_info()
        assert (info.maxsize, info.currsize, info.hits, info.misses) == (0, 0, 0, 2)

    def test_concurrent_labelling_keeps_results_and_accounting(self):
        columns = lp.ColumnCache(8)
        grid = grid_of([8, 4, 4], [1, 1, 1])
        rng = np.random.default_rng(33)
        poses = [
            lp.PoseConfig(position=rng.uniform(0, 4, 3), roll=rng.uniform(-1, 1))
            for _ in range(12)
        ]
        expected = [_uncached_labels([p], [TWO_BEAM], grid) for p in poses]
        mismatches = []

        def work(offset):
            for i in range(200):
                k = (offset + 7 * i) % len(poses)
                labels = lp.first_level_labels([poses[k]], [TWO_BEAM], grid, columns)
                if not np.array_equal(labels, expected[k]):
                    mismatches.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert mismatches == []
        info = columns.cache_info()
        assert info.currsize <= info.maxsize == 8
        assert info.hits + info.misses == 4 * 200

    def test_least_recently_used_column_goes_first(self):
        grid, _ = _pose_grid()
        columns = lp.ColumnCache(3)
        poses = [lp.PoseConfig(position=[k + 0.5, 2.5, 3.0]) for k in range(4)]

        def misses_after(k):
            lp.first_level_labels([poses[k]], [TWO_BEAM], grid, columns)
            return columns.cache_info().misses

        assert [misses_after(k) for k in (0, 1, 2)] == [1, 2, 3]
        assert misses_after(0) == 3  # 0 is now the most recent
        assert misses_after(3) == 4  # and 1 the least, so it goes
        assert [misses_after(k) for k in (0, 2, 3)] == [4, 4, 4]
        assert misses_after(1) == 5

    def test_grids_live_no_longer_than_their_cache(self):
        pose = lp.PoseConfig(position=[2.0, 2.0, 1.0])
        columns = lp.ColumnCache(None)
        refs, kept = [], []
        for n in range(30):
            grid = grid_of([4, 4, 2], [1, 1, 1])
            lp.first_level_labels([pose], [TWO_BEAM], grid, columns if n % 2 else None)
            (kept if n % 2 else refs).append(weakref.ref(grid))
            del grid
        gc.collect()
        # labelling without a cache keeps no grid alive; a cache keeps its own
        assert all(ref() is None for ref in refs)
        assert all(ref() is not None for ref in kept)
        del columns
        gc.collect()
        assert all(ref() is None for ref in kept)


def _column_case(name):
    """A grid and the model to label it with, plus poses: random ones and grid-aligned ones."""
    if name == "excluded_box":
        grid = grid_of([7, 5, 3], [0.5, 0.25, 0.5], [lp.Box([1.0, 0.5, 0.0], [3.25, 2.5, 1.5])])
        model = lp.LidarModel.evenly_spaced(8, -0.6, 0.4)
    else:
        scenario = lp.load_scenario(SCENARIO_DIR / f"{name}.json")
        grid, model = scenario.grid, scenario.models["beam16"]
    rng = np.random.default_rng(31)
    extent = grid.extent
    poses = [
        lp.PoseConfig(position=position, yaw=yaw, pitch=pitch, roll=roll)
        for position, (yaw, pitch, roll) in zip(
            rng.uniform(-0.1 * extent, 1.1 * extent, (50, 3)),
            rng.uniform(-math.pi, math.pi, (50, 3)),
        )
    ]
    # Untilted at a voxel center, the voxels straight above and below lie on
    # the sensor axis (r = 0); tilted by a right angle, the axis runs along x.
    for center in voxel_centers(grid)[rng.choice(grid.num_active, 6, replace=False)]:
        poses += [
            lp.PoseConfig(position=center),
            lp.PoseConfig(position=center, pitch=math.pi / 2, yaw=math.pi),
        ]
    return grid, model, poses


@pytest.mark.parametrize("name", ["av_rooftop", "av_rooftop_small", "excluded_box"])
class TestDigitColumns:
    def test_labels_match_the_brute_force_column(self, name):
        grid, model, poses = _column_case(name)
        tangents, centers = model.beam_tangents, voxel_centers(grid)
        for pose in poses:
            labels = lp.first_level_labels([pose], [model], grid)
            expected = digit_column_ref(tangents, lp.world_to_lidar(pose, centers))
            assert np.array_equal(labels[:, 0], expected)

    def test_lattice_matches_the_direct_transform(self, name):
        grid, _, poses = _column_case(name)
        rows, centers = grid.lattice_rows, voxel_centers(grid)
        for pose in poses:
            lattice = segmentation._lattice_points(pose, grid)
            assert np.array_equal(lattice[rows], lp.world_to_lidar(pose, centers))


class TestFirstLevelLabels:
    def test_single_beam_partitions_grid_exhaustively(self):
        grid = grid_of([8, 8, 4], [1, 1, 1])
        model = lp.LidarModel(beam_pitches=[0.0])
        pose = lp.PoseConfig(position=[4.0, 4.0, 4.0])
        labels = lp.first_level_labels([pose], [model], grid)
        assert set(np.unique(labels[:, 0])) <= {0, 1}
        for row, center in enumerate(voxel_centers(grid)):
            local = lp.world_to_lidar(pose, center)
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

    def test_yaw_turns_only_a_tilted_sensor(self):
        # Yaw spins an untilted sensor about its own axis, which leaves every
        # band in place; on a tilted one it turns the direction of the lean.
        grid = grid_of([8, 8, 4], [1, 1, 1])
        model = lp.LidarModel.evenly_spaced(4, -0.5, 0.5)

        def labels(yaw, pitch):
            pose = lp.PoseConfig(position=[4.0, 4.0, 3.0], yaw=yaw, pitch=pitch)
            return lp.first_level_labels([pose], [model], grid)

        assert np.array_equal(labels(0.0, 0.0), labels(1.0, 0.0))
        assert not np.array_equal(labels(0.0, 0.3), labels(1.0, 0.3))

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

    def test_flat_neighbours_that_share_no_face_stay_apart(self):
        # In C order (0, 0, nz-1) is followed by (0, 1, 0) and (0, ny-1, k) by
        # (1, 0, k); equal codes there must not join.
        grid = grid_of([1, 2, 3], [1, 1, 1])
        labels = np.array([[2], [3], [1], [1], [3], [2]])
        comp, count = lp.component_ids(labels, grid)
        assert count == 5
        assert comp.tolist() == [0, 1, 2, 3, 1, 4]
        grid = grid_of([2, 2, 1], [1, 1, 1])
        labels = np.array([[0], [1], [1], [0]])  # (0,1,0) then (1,0,0) in flat order
        assert lp.component_ids(labels, grid)[1] == 4

    @pytest.mark.parametrize("dims", [(1, 4, 5), (4, 1, 5), (4, 5, 1), (1, 1, 6), (1, 1, 1)])
    def test_matches_flood_fill_with_a_unit_axis(self, dims):
        rng = np.random.default_rng(sum(dims))
        grid = grid_of([float(d) for d in dims], [1, 1, 1])
        for _ in range(5):
            labels = rng.integers(0, 2, (grid.num_active, 2))
            comp, count = lp.component_ids(labels, grid)
            cells = {
                tuple(grid.active_indices[row]): tuple(labels[row])
                for row in range(grid.num_active)
            }
            assert set(component_sets(comp, count, grid)) == set(flood_fill_components(cells))
            assert_valid_partition(grid, labels, comp, count)

    def test_huge_digit_values_still_partition_correctly(self):
        # digit columns too wide for mixed-radix packing take the row-identity
        # fallback; the partition must come out the same
        grid = grid_of([4, 1, 1], [1, 1, 1])
        labels = np.array([[2**40, 7], [2**40, 7], [5, 2**40], [2**40, 7]])
        comp, count = lp.component_ids(labels, grid)
        assert count == 3
        assert comp.tolist() == [0, 0, 1, 2]
        # one column wider than 62 bits takes the fallback as well
        comp, count = lp.component_ids(np.array([[2**62], [2**62], [5], [2**62]]), grid)
        assert count == 3
        assert comp.tolist() == [0, 0, 1, 2]

    def test_byte_digits_too_wide_to_pack_partition_correctly(self):
        # eight byte columns holding 255 need 64 bits at radix 256: the
        # row-identity fallback numbers the distinct rows from 0
        grid = grid_of([3, 4, 2], [1, 1, 1])
        rng = np.random.default_rng(255)
        codes = rng.integers(0, 256, (3, 8)).astype(np.uint8)
        codes[:, 0] = 255
        labels = codes[rng.integers(0, 3, grid.num_active)]
        distinct = {tuple(row) for row in labels.tolist()}
        assert set(segmentation._pack_rows(labels).tolist()) == set(range(len(distinct)))
        assert_matches_flood_fill(grid, labels)

    @pytest.mark.parametrize(
        "labels",
        [
            [[0], [0], [-1], [0], [1], [1]],
            [[-1]] * 6,
            [[0, 1], [0, 1], [1, -2], [0, 1], [1, 0], [1, 0]],
            [[0], [0], [0], [0], [0], [-(2**62)]],
        ],
        ids=["one-negative", "all-negative", "negative-second-digit", "huge-negative"],
    )
    def test_negative_digit_rejected(self, labels):
        grid = grid_of([3, 2, 1], [1, 1, 1])
        with pytest.raises(ValueError, match="non-negative"):
            lp.component_ids(np.array(labels), grid)


def assert_matches_flood_fill(grid, labels):
    """``component_ids`` against the flood-fill oracle, with dense lexicographic ids."""
    comp, count = lp.component_ids(labels, grid)
    cells = {
        tuple(index): tuple(code)
        for index, code in zip(grid.active_indices.tolist(), labels.tolist())
    }
    assert set(component_sets(comp, count, grid)) == set(flood_fill_components(cells))
    assert_valid_partition(grid, labels, comp, count)
    first_rows = [int(np.flatnonzero(comp == c)[0]) for c in range(count)]
    assert first_rows == sorted(first_rows)
    return comp, count


@st.composite
def labelled_grids(draw):
    """A small grid, maybe with an excluded box, and per-voxel codes with long y-runs likely."""
    dims = [draw(st.integers(1, 6)), draw(st.integers(1, 9)), draw(st.integers(1, 5))]
    boxes = ()
    if draw(st.booleans()):
        lo = [draw(st.integers(0, d - 1)) for d in dims]
        hi = [draw(st.integers(a + 1, d)) for a, d in zip(lo, dims)]
        # faces a quarter voxel inside the index range: no center lies on a face
        boxes = (lp.Box(minimum=[a + 0.25 for a in lo], maximum=[b - 0.25 for b in hi]),)
    grid = grid_of([float(d) for d in dims], [1, 1, 1], boxes)
    if grid.num_active == 0:
        grid = grid_of([float(d) for d in dims], [1, 1, 1])
    index = grid.active_indices
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "slabs", "blocks", "blocks+noise"]))
    if kind == "random":
        labels = rng.integers(0, draw(st.integers(1, 3)), (grid.num_active, draw(st.integers(1, 3))))
    elif kind == "slabs":
        # constant along y: every row is one run
        axis, width = draw(st.sampled_from([0, 2])), draw(st.integers(1, 3))
        labels = (index[:, [axis]] // width) % 2
    else:
        size = [draw(st.integers(1, 4)) for _ in range(3)]
        labels = ((index // size).sum(axis=1, keepdims=True)) % draw(st.integers(2, 3))
        if kind == "blocks+noise":
            flip = rng.random(grid.num_active) < 0.1
            labels = np.concatenate([labels, flip[:, None].astype(np.int64)], axis=1)
    if draw(st.booleans()):
        # digits too wide for mixed-radix packing: the row-identity fallback
        labels = np.concatenate([labels * 2**40, labels[:, :1]], axis=1)
    return grid, labels.astype(np.int64)


class TestRunContractedLabelling:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=labelled_grids())
    def test_matches_flood_fill(self, case):
        assert_matches_flood_fill(*case)

    def test_different_codes_in_one_row_both_pairing_across_x(self):
        # rows 5 7 / 5 7: the 7-7 pair follows the 5-5 pair along y, but in
        # another run, so it is an edge of its own
        grid = grid_of([2, 2, 1], [1, 1, 1])
        comp, count = assert_matches_flood_fill(grid, np.array([[5], [7], [5], [7]]))
        assert count == 2 and comp.tolist() == [0, 1, 0, 1]

    def test_row_end_and_next_row_start_stay_apart(self):
        # (0, ny-1, 0) and (0, 0, 1) are consecutive along y in memory but
        # share no face; the padding cell between them keeps their runs apart
        grid = grid_of([1, 2, 2], [1, 1, 1])
        labels = np.array([[1], [2], [2], [3]])  # rows: (0,0,0) (0,0,1) (0,1,0) (0,1,1)
        comp, count = assert_matches_flood_fill(grid, labels)
        assert count == 4 and comp.tolist() == [0, 1, 2, 3]

    def test_component_joined_only_at_the_last_cell_of_a_run(self):
        # x = 0 is one run of code 1; x = 1 holds 2 2 2 1, so the only face
        # joining code 1 across x is at y = ny - 1
        grid = grid_of([2, 4, 1], [1, 1, 1])
        labels = np.array([[1], [1], [1], [1], [2], [2], [2], [1]])
        comp, count = assert_matches_flood_fill(grid, labels)
        assert count == 2 and comp.tolist() == [0, 0, 0, 0, 1, 1, 1, 0]

    def test_ids_follow_c_order_not_run_order(self):
        # runs are laid out x, z, y, so the run of (0, 1, 0) comes before the
        # run of (0, 0, 1); in C order (0, 0, 1) comes first
        grid = grid_of([1, 3, 2], [1, 1, 1])
        # rows: (0,0,0) (0,0,1) (0,1,0) (0,1,1) (0,2,0) (0,2,1)
        labels = np.array([[4], [6], [5], [6], [5], [6]])
        comp, count = assert_matches_flood_fill(grid, labels)
        assert count == 3 and comp.tolist() == [0, 1, 2, 1, 2, 1]


@st.composite
def run_graphs(draw):
    """A node count and an edge list in any order and direction.

    Random edges (with duplicates, self-loops and isolated nodes), paths
    numbered in order or at random, or a 2-D lattice with some edges left out.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "paths", "lattice"]))
    if kind == "random":
        n = draw(st.integers(1, 80))
        # nodes at or past `linked` touch no edge
        linked = draw(st.integers(1, n))
        src, dst = rng.integers(0, linked, (2, draw(st.integers(0, 2 * n))))
        repeat = rng.integers(0, max(src.size, 1), src.size // 3) if src.size else []
        loops = rng.integers(0, n, draw(st.integers(0, 3)))
        src = np.concatenate([src, src[repeat], loops])
        dst = np.concatenate([dst, dst[repeat], loops])
    elif kind == "paths":
        n = draw(st.integers(1, 300))
        order = rng.permutation(n) if draw(st.booleans()) else np.arange(n)
        src, dst = order[:-1], order[1:]
        # cut the path into a few pieces
        keep = rng.random(src.size) >= draw(st.sampled_from([0.0, 0.02, 0.2]))
        src, dst = src[keep], dst[keep]
    else:
        w, h = draw(st.integers(1, 40)), draw(st.integers(1, 40))
        n = w * h
        node = np.arange(n).reshape(w, h)
        src = np.concatenate([node[:-1].ravel(), node[:, :-1].ravel()])
        dst = np.concatenate([node[1:].ravel(), node[:, 1:].ravel()])
        keep = rng.random(src.size) >= draw(st.sampled_from([0.0, 0.3, 0.5]))
        src, dst = src[keep], dst[keep]
        if draw(st.booleans()):
            number = rng.permutation(n)
            src, dst = number[src], number[dst]
    shuffle = rng.permutation(src.size)
    flip = rng.random(src.size) < 0.5
    src, dst = src[shuffle], dst[shuffle]
    src, dst = np.where(flip, dst, src), np.where(flip, src, dst)
    return n, src.astype(np.int64), dst.astype(np.int64)


class TestRunComponents:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=run_graphs())
    def test_partition_matches_scipy(self, case):
        n, src, dst = case
        count, comp = segmentation._run_components(n, src, dst)
        ref_count, ref = run_components_ref(n, src, dst)
        assert count == ref_count
        assert comp.shape == (n,)
        # dense ids, each paired with exactly one scipy component and back
        assert np.unique(comp).tolist() == list(range(count))
        assert len(set(zip(comp.tolist(), ref.tolist()))) == count
        # numbered in the order of each component's smallest node
        _, smallest = np.unique(comp, return_index=True)
        assert comp[np.sort(smallest)].tolist() == list(range(count))
