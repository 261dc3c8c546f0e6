import math
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lidarplace as lp
from grids import blob_grid, blob_metrics, single_component_metrics
from lidarplace import cost, odr, segmentation
from oracles import (
    assert_valid_partition,
    brute_force_max_vsr,
    component_vsr,
    exposed_face_area,
    flood_fill_components,
    subspace_rows_ref,
)

RES = np.array([1.0, 0.5, 0.2])
SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


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

    @pytest.mark.parametrize(
        "comp, count",
        [
            ([0, 0, 0, 3, 0, 0], 1),
            ([0, 0, -1, 0, 1, 1], 2),
            ([0] * 6, 2),
            ([0, 0, 0, 0, 0, 2], 3),
        ],
        ids=["id-above-count", "negative-id", "last-component-empty", "middle-component-empty"],
    )
    def test_ids_must_fill_every_component(self, comp, count):
        grid = lp.build_voxel_grid(lp.RoiSpec(extent=[3, 2, 1], resolution=[1, 1, 1]))
        with pytest.raises(ValueError, match="component"):
            lp.component_metrics(np.array(comp), count, grid)


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
        (row,) = subspace_rows_ref(lp.evaluate_placement([pose], [model], grid))
        assert row["vsr"] == pytest.approx(4800.0 / 3040.0, rel=1e-12)
        assert row["inscribed_radius_estimate"] == pytest.approx(3 * 4800.0 / 3040.0, rel=1e-12)
        assert row["vsr"] > 0

    def test_metrics_fields_consistent(self):
        rng = np.random.default_rng(33)
        blob = random_blob(rng)
        vol, sa, ratio = blob_metrics(blob, RES)
        assert ratio == vol / sa


def three_sensor_codes():
    """A grid with an excluded box and the codes of three 9-beam sensors, over 20 subspaces."""
    roi = lp.RoiSpec(
        extent=[6, 4, 2],
        resolution=[0.5, 0.5, 0.25],
        excluded_boxes=(lp.Box(minimum=[2, 1, 0], maximum=[3.5, 2.5, 1]),),
    )
    grid = lp.build_voxel_grid(roi)
    model = lp.LidarModel(beam_pitches=np.radians(np.linspace(-20.0, 20.0, 9)))
    poses = [
        lp.PoseConfig(position=[1.5, 1.0, 1.6], pitch=0.3),
        lp.PoseConfig(position=[4.5, 3.0, 1.4], roll=-0.4),
        lp.PoseConfig(position=[3.0, 0.5, 1.9], pitch=-0.2, roll=0.5),
    ]
    labels = lp.first_level_labels(poses, [model] * 3, grid)
    assert lp.component_ids(labels, grid)[1] > 20 and grid.num_active < grid.num_voxels
    return grid, labels


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
        assert report.vsr.size == 1
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
        rows = subspace_rows_ref(report)
        assert report.objective == max(row["vsr"] for row in rows)
        assert rows[int(np.argmax(report.vsr))]["vsr"] == report.objective
        total = sum(row["voxel_count"] for row in rows)
        assert total == grid.num_active
        for row in rows:
            assert row["vsr"] > 0
            assert row["inscribed_radius_estimate"] == 3.0 * row["vsr"]

    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(case=st.deferred(lambda: coded_grids()))
    @example(case=three_sensor_codes())
    def test_report_columns_share_one_code_rule(self, case):
        grid, labels = case
        pose, model = lp.PoseConfig(position=[0, 0, 0]), lp.LidarModel(beam_pitches=[0.0])
        with mock.patch.object(segmentation, "first_level_labels", lambda *args: labels):
            report = lp.evaluate_placement([pose], [model], grid)
            objective = lp.max_vsr([pose], [model], grid)
        # the reference route: numbered components, then the metric of any partition
        comp, count = lp.component_ids(labels, grid)
        assert np.array_equal(report.component_ids, comp)
        # every voxel carries its component's code
        assert np.array_equal(report.codes[report.component_ids], labels)
        columns = (report.voxel_count, report.volume, report.surface_area, report.vsr)
        for got, expected in zip(columns, lp.component_metrics(comp, count, grid)):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
        cells = grid.active_indices.tolist()
        for c in range(count):
            members = [tuple(cells[i]) for i in np.flatnonzero(report.component_ids == c)]
            assert report.vsr[c] == component_vsr(members, grid.resolution)
        assert report.objective == report.vsr.max()
        assert report.objective.hex() == objective.hex()

    def test_one_segmentation_per_placement(self):
        # A report, the objective, the ids and an ODR estimate each lay the
        # codes on the padded layout, find their runs and join them into
        # components once; the runs are counted through both bindings.
        grid, labels = three_sensor_codes()
        pose, model = lp.PoseConfig(position=[0, 0, 0]), lp.LidarModel(beam_pitches=[0.0])
        odr_settings = lp.OdrSettings(trials=50)
        calls = {
            "evaluate_placement": lambda: lp.evaluate_placement([pose], [model], grid),
            "max_vsr": lambda: lp.max_vsr([pose], [model], grid),
            "component_ids": lambda: lp.component_ids(labels, grid),
            "estimate_odr": lambda: lp.estimate_odr(
                [pose], [model], grid, odr_settings, np.random.default_rng(0)
            ),
        }
        runs = mock.Mock(wraps=segmentation._runs)
        components = mock.Mock(wraps=segmentation._run_components)
        for name, call in calls.items():
            runs.reset_mock()
            components.reset_mock()
            with (
                mock.patch.object(segmentation, "first_level_labels", lambda *args: labels),
                mock.patch.object(odr, "first_level_labels", lambda *args: labels),
                mock.patch.object(segmentation, "_runs", runs),
                mock.patch.object(cost, "_runs", runs),
                mock.patch.object(segmentation, "_run_components", components),
                mock.patch.object(
                    lp.VoxelGrid, "pad", autospec=True, side_effect=lp.VoxelGrid.pad
                ) as pad,
            ):
                call()
            assert (runs.call_count, components.call_count, pad.call_count) == (1, 1, 1), name
        assert not hasattr(cost, "_run_components")


@st.composite
def grids(draw):
    """A small grid: plain, with an excluded box (faces on centers or between them), or a blob."""
    dims = [draw(st.integers(1, 6)), draw(st.integers(1, 9)), draw(st.integers(1, 5))]
    res = [draw(st.sampled_from([0.1, 0.25, 0.3, 0.5, 1.0, 1.7])) for _ in range(3)]
    kind = draw(st.sampled_from(["plain", "excluded", "blob"]))
    if kind == "blob":
        cells = draw(
            st.lists(st.tuples(*(st.integers(0, d - 1) for d in dims)), min_size=1, max_size=60)
        )
        return blob_grid(cells, res)
    boxes = ()
    if kind == "excluded":
        a = [draw(st.integers(0, d - 1)) for d in dims]
        b = [draw(st.integers(0, d - 1)) for d in dims]
        shift = draw(st.sampled_from([0.5, 0.25]))
        lo = [(min(i, j) + shift) * r for i, j, r in zip(a, b, res)]
        hi = [(max(i, j) + 1 - shift) * r for i, j, r in zip(a, b, res)]
        boxes = (lp.Box(minimum=lo, maximum=hi),)
    extent = [d * r for d, r in zip(dims, res)]
    grid = lp.build_voxel_grid(lp.RoiSpec(extent=extent, resolution=res, excluded_boxes=boxes))
    if grid.num_active == 0:
        grid = lp.build_voxel_grid(lp.RoiSpec(extent=extent, resolution=res))
    return grid


@st.composite
def partitioned_grids(draw):
    """A grid and dense ids for its active voxels; one id's voxels need not touch."""
    grid = draw(grids())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        ids = rng.integers(0, draw(st.integers(1, 6)), grid.num_active)
    else:
        # blocks of one id, so that runs are long
        size = [draw(st.integers(1, 4)) for _ in range(3)]
        ids = (grid.active_indices // size).sum(axis=1) % draw(st.integers(1, 3))
    _, comp = np.unique(ids, return_inverse=True)
    return grid, comp.astype(np.int64), int(comp.max()) + 1


@st.composite
def coded_grids(draw):
    """A grid and 1-3 random digit columns for its active voxels, maybe wider than 62 bits."""
    grid = draw(grids())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.integers(1, 3))
    labels = rng.integers(0, draw(st.integers(1, 3)), (grid.num_active, width))
    if draw(st.booleans()):
        # digits too wide for mixed-radix packing: the row-identity fallback
        labels = np.concatenate([labels * 2**40, labels[:, :1]], axis=1)
    return grid, labels


def runs_ref(grid, values):
    """Maximal same-value y-runs by walking every row, each as its list of index triples."""
    at = {tuple(index): v for index, v in zip(grid.active_indices.tolist(), values.tolist())}
    nx, ny, nz = grid.dims
    runs = []
    for i in range(nx):
        for k in range(nz):
            for j in range(ny):
                cell = (i, j, k)
                if cell not in at:
                    continue
                if j > 0 and at.get((i, j - 1, k)) == at[cell]:
                    runs[-1].append(cell)
                else:
                    runs.append([cell])
    return at, runs


class TestRunMetrics:
    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(case=partitioned_grids())
    def test_runs_match_a_row_walk(self, case):
        grid, comp, _ = case
        values, strides = grid.pad(comp), grid.padded_strides
        r = segmentation._runs(values, strides)
        at, expected = runs_ref(grid, comp)
        run_of = {cell: n for n, cells in enumerate(expected) for cell in cells}
        sx, sy, sz = strides
        assert r.start.tolist() == [i * sx + j * sy + k * sz for i, j, k in (c[0] for c in expected)]
        assert r.length.tolist() == [len(cells) for cells in expected]
        for edge, (dx, dz) in ((slice(None, r.num_x), (1, 0)), (slice(r.num_x, None), (0, 1))):
            # one segment per stretch of consecutive pairing cells in a run
            walked = []
            for n, cells in enumerate(expected):
                length = 0
                for cell in [*cells, None]:
                    nbr = None if cell is None else (cell[0] + dx, cell[1], cell[2] + dz)
                    if cell is not None and at.get(nbr) == at[cell]:
                        if not length:
                            other = run_of[nbr]
                        length += 1
                    elif length:
                        walked.append((n, other, length))
                        length = 0
            src, dst, segment = r.src[edge], r.dst[edge], r.segment[edge]
            assert sorted(zip(src.tolist(), dst.tolist(), segment.tolist())) == sorted(walked)
            # summed per run, the segment lengths are the run's face pairs
            assert np.bincount(src, segment, minlength=len(expected)).tolist() == [
                sum(at.get((i + dx, j, k + dz)) == at[i, j, k] for i, j, k in cells)
                for cells in expected
            ]
        # each voxel's run is the last one starting at or before its cell
        # (its padded cell, where padded_rows holds its active row)
        cells = np.flatnonzero(grid.padded_rows >= 0)
        cells = cells[np.argsort(grid.padded_rows[cells])]
        voxel_run = np.searchsorted(r.start, cells, side="right") - 1
        assert voxel_run.tolist() == [run_of[tuple(c)] for c in grid.active_indices.tolist()]
        # one edge per pair of runs joined by an x or z face pair
        edges = {
            (run_of[cell], run_of[other])
            for cell in at
            for other in ((cell[0] + 1, cell[1], cell[2]), (cell[0], cell[1], cell[2] + 1))
            if at.get(other) == at[cell]
        }
        got = list(zip(r.src.tolist(), r.dst.tolist()))
        assert sorted(got) == sorted(edges)

    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(case=partitioned_grids())
    def test_component_metrics_match_the_face_oracle(self, case):
        grid, comp, count = case
        sizes, vol, sa, vsr = lp.component_metrics(comp, count, grid)
        ex, ey, ez = grid.resolution.tolist()
        for c in range(count):
            cells = [tuple(index) for index in grid.active_indices[comp == c].tolist()]
            assert sizes[c] == len(cells)
            assert vol[c] == ex * ey * ez * len(cells)
            assert sa[c] == exposed_face_area(cells, grid.resolution)
            assert vsr[c] == component_vsr(cells, grid.resolution)

    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(case=coded_grids())
    def test_max_vsr_matches_the_oracle_on_random_codes(self, case):
        grid, labels = case
        cells = {
            tuple(index): tuple(code)
            for index, code in zip(grid.active_indices.tolist(), labels.tolist())
        }
        expected = max(component_vsr(c, grid.resolution) for c in flood_fill_components(cells))
        pose, model = lp.PoseConfig(position=[0, 0, 0]), lp.LidarModel(beam_pitches=[0.0])
        with mock.patch.object(segmentation, "first_level_labels", lambda *args: labels):
            assert lp.max_vsr([pose], [model], grid) == expected

    def test_max_vsr_labels_once(self):
        # The benchmark stamps the end of set-up on the first labelling call
        # and counts pose repeats per labelling; one objective call labels once.
        grid = lp.build_voxel_grid(lp.RoiSpec(extent=[8, 8, 4], resolution=[1, 1, 1]))
        model = lp.LidarModel(beam_pitches=[-0.2, 0.2])
        poses = [lp.PoseConfig(position=[4.0, 4.0, 3.0], pitch=0.1)]
        counted = mock.Mock(wraps=segmentation.first_level_labels)
        with mock.patch.object(segmentation, "first_level_labels", counted):
            value = lp.max_vsr(poses, [model], grid)
        assert counted.call_count == 1
        assert value == lp.evaluate_placement(poses, [model], grid).objective


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

    @pytest.mark.parametrize("yaw", [(0.5, 1.0), (-1.0, -0.5)])
    def test_bounds_reject_a_yaw_range_excluding_zero(self, yaw):
        bounds = lp.PoseBounds(
            lower=lp.PoseConfig(position=[28, 9, 2.2], yaw=yaw[0]),
            upper=lp.PoseConfig(position=[31, 11, 3], yaw=yaw[1]),
        )
        with pytest.raises(ValueError, match="yaw"):
            lp.decision_bounds(bounds, 1)

    def test_search_placement_cost_is_max_vsr_of_its_poses(self):
        grid = lp.build_voxel_grid(lp.RoiSpec(extent=[4, 4, 2], resolution=[1, 1, 1]))
        models = [lp.LidarModel(beam_pitches=[0.0]), lp.LidarModel(beam_pitches=[-0.3, 0.3])]
        bounds = lp.PoseBounds(
            lower=lp.PoseConfig(position=[1, 1, 0.5]),
            upper=lp.PoseConfig(position=[3, 3, 1.5], pitch=0.6, roll=0.3),
        )
        params = lp.AbcParams(num_bees=4, max_iterations=3, rng_seed=2)
        poses, result = lp.search_placement(models, grid, bounds, params)
        decoded = lp.poses_from_vector(result.best_solution, 2)
        assert [p.as_vector().tolist() for p in poses] == [p.as_vector().tolist() for p in decoded]
        assert result.best_cost.hex() == lp.max_vsr(poses, models, grid).hex()


class TestColonyColumns:
    def test_capacity_follows_the_rule_within_the_byte_ceiling(self, monkeypatch):
        grid = lp.build_voxel_grid(lp.RoiSpec(extent=[8, 8, 4], resolution=[1, 1, 1]))
        assert lp.cost._colony_columns(200, 4, grid) == 200 * (4 + 3)
        assert lp.cost._colony_columns(2, 1, grid) == 2 * (1 + 3)
        # the paper's colony on av_rooftop keeps its whole working set
        full = lp.load_scenario(SCENARIO_DIR / "av_rooftop.json").grid
        assert lp.cost._colony_columns(200, 4, full) == 1400
        assert 1400 * full.num_active <= lp.cost.COLONY_COLUMN_BYTES
        # columns that would pass the ceiling are left out
        largest = SimpleNamespace(num_active=lp.geometry.MAX_VOXELS)
        assert lp.cost._colony_columns(200, 4, largest) == 16
        monkeypatch.setattr(lp.cost, "COLONY_COLUMN_BYTES", 100 * grid.num_active + 255)
        assert lp.cost._colony_columns(200, 4, grid) == 100
        assert lp.cost._colony_columns(10, 4, grid) == 70

    @staticmethod
    def search(unbounded=False):
        """A 50-bee, 6-iteration colony on av_rooftop_small, and the column cache it used."""
        scenario = lp.load_scenario(SCENARIO_DIR / "av_rooftop_small.json")
        models = scenario.model_sequence()
        params = lp.AbcParams(num_bees=50, max_iterations=6)
        caches = []

        def cache(size):
            caches.append(lp.ColumnCache(None if unbounded else size))
            return caches[-1]

        with mock.patch.object(segmentation, "ColumnCache", cache):
            _, result = lp.search_placement(models, scenario.grid, scenario.bounds, params)
        assert len(caches) == 1
        return result, caches[0].cache_info(), len(models)

    def test_sized_cache_matches_an_unbounded_one(self):
        sized, info, num_lidars = self.search()
        unbounded, free, _ = self.search(unbounded=True)
        assert info.maxsize == 50 * (num_lidars + 3) < free.currsize
        assert sized.best_cost.hex() == unbounded.best_cost.hex()
        for name in ("best_solution", "history", "solutions", "costs", "stagnation", "scout_counts"):
            assert np.array_equal(getattr(sized, name), getattr(unbounded, name)), name
        assert info.hits + info.misses == free.hits + free.misses
        # the colony misses a few more columns than with room for every one
        assert free.misses <= info.misses <= 1.05 * free.misses
