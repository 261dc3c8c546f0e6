import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lidarplace as lp
from grids import blob_grid, voxel_centers
from lidarplace import odr, segmentation
from oracles import occupied_subspaces_ref, vsr_odr_scatter_ref

GRID = lp.build_voxel_grid(lp.RoiSpec(extent=[8, 8, 4], resolution=[1, 1, 1]))
MODEL = lp.LidarModel(beam_pitches=[math.radians(-15), math.radians(15)])
POSE = lp.PoseConfig(position=[4.0, 4.0, 3.0])


def labeled_grid():
    comp, count = lp.component_ids(lp.first_level_labels([POSE], [MODEL], GRID), GRID)
    return GRID, comp, count


class TestOdrSettings:
    def test_requires_positive_dims(self):
        with pytest.raises(ValueError):
            lp.OdrSettings(object_dims=[0.0, 1.0, 1.0])

    def test_default_region_keeps_object_inside(self):
        region = lp.OdrSettings(object_dims=[2, 2, 2]).corner_region([8, 8, 4])
        assert region.minimum.tolist() == [0, 0, 0]
        assert region.maximum.tolist() == [6, 6, 2]

    def test_oversized_object_rejected(self):
        with pytest.raises(ValueError):
            lp.OdrSettings(object_dims=[9, 1, 1]).corner_region([8, 8, 4])

    def test_region_may_end_at_the_grid_extent(self):
        # 3 * 0.3 is 0.8999999999999999, below the written extent 0.9: a
        # region that ends at 0.9 - dims must pass against both extents.
        grid = lp.build_voxel_grid(lp.RoiSpec(extent=[0.9, 0.9, 0.9], resolution=[0.3, 0.3, 0.3]))
        assert grid.extent[0] < 0.9
        region = lp.Box(minimum=[0, 0, 0], maximum=[0.6, 0.6, 0.6])
        spec = lp.OdrSettings(object_dims=[0.3, 0.3, 0.3], placement_region=region)
        for extent in ([0.9, 0.9, 0.9], grid.extent):
            assert spec.corner_region(extent) is spec.placement_region
        # an object as large as the ROI fits, and its default region is one point
        whole = lp.OdrSettings(object_dims=[0.9, 0.9, 0.9])
        assert whole.corner_region(grid.extent).maximum.tolist() == [0.0, 0.0, 0.0]
        # the slack is EXTENT_TOLERANCE of the extent, not more
        region = lp.Box(minimum=[0, 0, 0], maximum=[0.6 + 1e-6] * 3)
        over = lp.OdrSettings(object_dims=[0.3, 0.3, 0.3], placement_region=region)
        with pytest.raises(ValueError):
            over.corner_region(grid.extent)

    def test_custom_region_validated(self):
        spec = lp.OdrSettings(
            object_dims=[2, 2, 2], placement_region=lp.Box(minimum=[0, 0, 0], maximum=[7, 6, 2])
        )
        with pytest.raises(ValueError):
            spec.corner_region([8, 8, 4])


def occupied_counts(boxes, comp, grid):
    """Batched occupancy counts of ``(lo, hi)`` boxes, as ``estimate_odr`` computes them."""
    lo = np.array([b[0] for b in boxes], dtype=float)
    hi = np.array([b[1] for b in boxes], dtype=float)
    return odr._occupied_counts(comp, grid, lo, hi).tolist()


class TestCountOccupiedSubspaces:
    # Each batch mixes a one-voxel box with wider ones, so its short blocks
    # are padded out to the widest.

    def test_box_inside_single_voxel(self):
        grid, comp, _ = labeled_grid()
        # strictly inside voxel (0, 0, 0), wrapped around its center
        inside = ([0.3, 0.3, 0.3], [0.7, 0.7, 0.7])
        assert occupied_counts([inside, ([0, 0, 0], [3, 3, 3])], comp, grid)[0] == 1

    def test_box_covering_roi_sees_every_component(self):
        grid, comp, count = labeled_grid()
        boxes = [([0.3, 0.3, 0.3], [0.7, 0.7, 0.7]), ([0, 0, 0], [8, 8, 4])]
        assert occupied_counts(boxes, comp, grid)[1] == count

    def test_box_between_centers_sees_nothing(self):
        grid, comp, _ = labeled_grid()
        between = ([0.6, 0.6, 0.6], [0.9, 0.9, 0.9])
        assert occupied_counts([between, ([0, 0, 0], [8, 8, 4])], comp, grid)[0] == 0

    def test_matches_containment_scan(self):
        grid, comp, _ = labeled_grid()
        rng = np.random.default_rng(51)
        boxes = [([0.3, 0.3, 0.3], [0.7, 0.7, 0.7])]
        for _ in range(50):
            lo = rng.uniform(0, [6, 6, 2])
            boxes.append((lo, lo + rng.uniform(0.5, 2.0, 3)))
        centers = voxel_centers(grid)
        expected = [occupied_subspaces_ref(centers, comp, lo, hi) for lo, hi in boxes]
        assert occupied_counts(boxes, comp, grid) == expected


RESOLUTIONS = st.sampled_from([0.1, 0.25, 0.3, 0.5, 1.0, 1.7])


@st.composite
def id_grids(draw):
    """A small grid (plain, with an excluded box, or a blob) and arbitrary ids on its active voxels."""
    dims = [draw(st.integers(1, 6)) for _ in range(3)]
    res = [draw(RESOLUTIONS) for _ in range(3)]
    kind = draw(st.sampled_from(["plain", "excluded", "blob"]))
    if kind == "blob":
        cells = draw(
            st.lists(st.tuples(*(st.integers(0, d - 1) for d in dims)), min_size=1, max_size=40)
        )
        grid = blob_grid(cells, res)
    else:
        excluded = ()
        if kind == "excluded":
            a = [draw(st.integers(0, d - 1)) for d in dims]
            b = [draw(st.integers(0, d - 1)) for d in dims]
            lo = [(min(i, j) + 0.5) * r for i, j, r in zip(a, b, res)]
            hi = [(max(i, j) + 0.5) * r for i, j, r in zip(a, b, res)]
            excluded = (lp.Box(minimum=lo, maximum=hi),)
        extent = [d * r for d, r in zip(dims, res)]
        grid = lp.build_voxel_grid(lp.RoiSpec(extent=extent, resolution=res, excluded_boxes=excluded))
    num_ids = draw(st.integers(1, 6))
    comp = np.array(
        draw(st.lists(st.integers(0, num_ids - 1), min_size=grid.num_active, max_size=grid.num_active)),
        dtype=np.int64,
    )
    return grid, comp


def box_faces(draw, grid):
    """One box ``(lo, hi)`` whose faces sit on centers, between centers, on the ROI or beyond it."""
    lo, hi = [], []
    for n, r in zip(grid.dims, grid.resolution):
        faces = []
        for _ in range(2):
            kind = draw(st.sampled_from(["center", "center", "between", "roi", "outside"]))
            if kind == "center":
                faces.append((draw(st.integers(0, n - 1)) + 0.5) * r)
            elif kind == "between":
                faces.append(draw(st.floats(0.0, n * r)))
            elif kind == "roi":
                faces.append(draw(st.sampled_from([0.0, n * r])))
            else:
                faces.append(draw(st.sampled_from([-r, (n + 1) * r])))
        lo.append(min(faces))
        hi.append(max(faces))
    return lo, hi


class TestBatchedOccupancy:
    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_batched_counts_match_containment_scan(self, data):
        grid, comp = data.draw(id_grids())
        boxes = [box_faces(data.draw, grid) for _ in range(data.draw(st.integers(1, 12)))]
        extent = grid.extent.tolist()
        boxes += [([0.0, 0.0, 0.0], extent), ([-1.0, -1.0, -1.0], [e + 1.0 for e in extent])]
        lo = np.array([b[0] for b in boxes])
        hi = np.array([b[1] for b in boxes])
        centers = voxel_centers(grid)
        expected = [occupied_subspaces_ref(centers, comp, a, b) for a, b in boxes]
        assert odr._occupied_counts(comp, grid, lo, hi).tolist() == expected
        # one box per gathered batch, and a few per batch
        for cells in (1, 7):
            with mock.patch.object(odr, "_GATHER_CELLS", cells):
                assert odr._occupied_counts(comp, grid, lo, hi).tolist() == expected


def estimate_odr_ref(configs, models, grid, settings, rng):
    """Detections of the same trials as :func:`lp.estimate_odr`, scanning every center per trial."""
    comp, _ = lp.component_ids(lp.first_level_labels(configs, models, grid), grid)
    region = settings.corner_region(grid.extent)
    corners = rng.uniform(region.minimum, region.maximum, (settings.trials, 3))
    centers = voxel_centers(grid)
    return sum(
        occupied_subspaces_ref(centers, comp, lo, lo + settings.object_dims) > settings.threshold
        for lo in corners
    )


class TestEstimateOdr:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_trial_reference(self, seed):
        roi = lp.RoiSpec(
            extent=[8.0, 6.0, 3.0],
            resolution=[1.0, 0.5, 0.3],
            excluded_boxes=[lp.Box(minimum=[3.0, 2.0, 0.0], maximum=[5.0, 4.0, 3.0])],
        )
        models = [MODEL, lp.LidarModel(beam_pitches=np.radians([-12.0, -4.0, 4.0, 12.0]))]
        poses = [
            lp.PoseConfig(position=[3.5, 2.5, 2.6], pitch=0.1 * seed),
            lp.PoseConfig(position=[4.5, 3.5, 2.4], roll=0.2),
        ]
        # min corners drawn anywhere, or pinned to center coordinates on
        # some axes, so that box faces land exactly on centers
        center = lambda index: (np.asarray(index) + 0.5) * roi.resolution  # noqa: E731
        objects = [
            dict(object_dims=[0.5, 0.5, 1.7]),
            dict(object_dims=[2.0, 1.0, 0.9]),
            dict(
                object_dims=[2.0, 1.5, 0.6],
                placement_region=lp.Box(minimum=center([0, 0, 0]), maximum=center([5, 0, 0])),
            ),
            dict(
                object_dims=[1.0, 1.0, 1.2],
                placement_region=lp.Box(minimum=center([1, 0, 1]), maximum=center([1, 8, 1])),
            ),
        ]
        grid = lp.build_voxel_grid(roi)
        for obj in objects:
            for threshold in (0, 1, 2, 4):
                settings = lp.OdrSettings(**obj, trials=100, threshold=threshold)
                report = lp.estimate_odr(poses, models, grid, settings, np.random.default_rng(seed))
                expected = estimate_odr_ref(poses, models, grid, settings, np.random.default_rng(seed))
                assert report.detections == expected
                assert report.odr == expected / 100

    def test_object_between_two_center_layers_detects_nothing(self):
        # Thinner than the 1 m spacing and held between the z = 0.5 and z = 1.5
        # center layers, every trial's box holds no center at all.
        region = lp.Box(minimum=[0.0, 0.0, 0.6], maximum=[7.8, 7.8, 0.7])
        settings = lp.OdrSettings(object_dims=[0.2, 0.2, 0.2], placement_region=region, trials=200,
                                  threshold=0)
        report = lp.estimate_odr([POSE], [MODEL], GRID, settings, np.random.default_rng(57))
        expected = estimate_odr_ref([POSE], [MODEL], GRID, settings, np.random.default_rng(57))
        assert report.detections == expected == 0
        assert report.odr == 0.0

    def test_threshold_zero_with_full_coverage(self):
        settings = lp.OdrSettings(object_dims=[2, 2, 2], trials=200, threshold=0)
        report = lp.estimate_odr([POSE], [MODEL], GRID, settings, np.random.default_rng(52))
        assert report.odr == 1.0
        assert report.detections == report.trials == 200

    def test_threshold_at_component_count_gives_zero(self):
        _, _, count = labeled_grid()
        settings = lp.OdrSettings(object_dims=[2, 2, 2], trials=200, threshold=count)
        report = lp.estimate_odr([POSE], [MODEL], GRID, settings, np.random.default_rng(53))
        assert report.odr == 0.0

    def test_monotone_in_threshold(self):
        rates = [
            lp.estimate_odr(
                [POSE], [MODEL], GRID, lp.OdrSettings(object_dims=[2, 2, 2], trials=300, threshold=thr),
                np.random.default_rng(54),
            ).odr
            for thr in range(0, 4)
        ]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert all(0.0 <= r <= 1.0 for r in rates)

    def test_deterministic_for_fixed_seed(self):
        settings = lp.OdrSettings(object_dims=[1.5, 1.5, 1.5], trials=250, threshold=1)
        a = lp.estimate_odr([POSE], [MODEL], GRID, settings, np.random.default_rng(55))
        b = lp.estimate_odr([POSE], [MODEL], GRID, settings, np.random.default_rng(55))
        assert a == b

    def test_report_invariants(self):
        settings = lp.OdrSettings(object_dims=[2, 2, 2], trials=123, threshold=1)
        report = lp.estimate_odr([POSE], [MODEL], GRID, settings, np.random.default_rng(56))
        assert report.detections <= report.trials
        assert report.odr == report.detections / report.trials

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            lp.OdrSettings(object_dims=[1, 1, 1], trials=0, threshold=1)
        with pytest.raises(ValueError):
            lp.OdrSettings(object_dims=[1, 1, 1], trials=10, threshold=-1)

    def test_roi_without_active_voxels_rejected(self):
        roi = lp.RoiSpec(
            extent=[4, 4, 2],
            resolution=[1, 1, 1],
            excluded_boxes=[lp.Box(minimum=[0, 0, 0], maximum=[4, 4, 2])],
        )
        grid = lp.build_voxel_grid(roi)
        settings = lp.OdrSettings(object_dims=[1, 1, 1], trials=10, threshold=1)
        with pytest.raises(ValueError, match="no active voxels"):
            lp.estimate_odr([POSE], [MODEL], grid, settings, np.random.default_rng(0))


class TestVsrOdrScatter:
    MODELS = (MODEL, lp.LidarModel.evenly_spaced(4, -0.5, 0.5))
    BOUNDS = lp.PoseBounds(
        lower=lp.PoseConfig(position=[2, 2, 2.5]),
        upper=lp.PoseConfig(position=[6, 6, 3.8], pitch=0.8, roll=0.3),
    )
    SETTINGS = lp.OdrSettings(object_dims=[2.0, 2.0, 2.0], trials=60, threshold=1)

    @pytest.mark.parametrize("samples", [0, 1, 5])
    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    def test_matches_the_loop_it_replaces(self, seed, samples):
        args = self.MODELS, GRID, self.BOUNDS, self.SETTINGS, seed, samples
        points = lp.vsr_odr_scatter(*args)
        expected = vsr_odr_scatter_ref(*args)
        # bit for bit: the same floats, not just equal within rounding
        assert [(v.hex(), o.hex()) for v, o in points] == [(v.hex(), o.hex()) for v, o in expected]

    def test_each_sample_computes_its_columns_once(self):
        # a sample's max VSR and its ODR estimate share its digit columns
        counted = mock.Mock(wraps=segmentation.beam_digits)
        with mock.patch.object(segmentation, "beam_digits", counted):
            points = lp.vsr_odr_scatter(self.MODELS, GRID, self.BOUNDS, self.SETTINGS, 3, 4)
        assert len(points) == 4
        assert counted.call_count == len(self.MODELS) * 4
