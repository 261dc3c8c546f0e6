"""Monte Carlo object detection rate for a fixed sensor configuration.

A cuboid object is dropped uniformly at random inside the ROI many times.  A
trial counts as a detection when the object's box overlaps more than
``threshold`` distinct subspaces: crossing a subspace boundary means at
least one beam surface passes through the object.  The detection rate over
all trials (ODR) is what the max-VSR objective stands in for: configurations
with smaller worst-case subspaces detect random objects more often.

Occupancy is tested with voxel centers inside the object box, the same
membership rule used everywhere else in the package; objects smaller than the
voxel spacing can therefore fall between centers and go undetected.

All trials are counted in one batched pass.  The grid is regular, so the
centers inside a box ``[lo, hi]`` form an index block: per axis, from the
first center ``>= lo`` to the last center ``<= hi``, found by binary search
in the grid's own center coordinates (``VoxelGrid.axis_centers``).  Each
box's block is gathered from the component ids laid on the grid (``-1``
where no active voxel is) and its distinct ids are counted after a row-wise
sort.  :func:`vsr_odr_scatter` pairs the max VSR and the ODR of random
placements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import cost
from .geometry import EXTENT_TOLERANCE, Box, LidarModel, PoseBounds, PoseConfig, VoxelGrid, as_vec3
from .segmentation import ColumnCache, component_ids, first_level_labels

__all__ = [
    "OdrSettings",
    "OdrReport",
    "estimate_odr",
    "vsr_odr_scatter",
]


# Most trials one estimate may draw, ~1 000x the paper's 1 000: corners, the
# boxes' far corners and their index blocks take 105 bytes a trial, so an
# estimate's per-trial arrays stay under 128 MiB.
MAX_TRIALS = 2**20


@dataclass(frozen=True, eq=False)
class OdrSettings:
    """Detection-trial settings: the cuboid test object, trial count, and threshold.

    ``placement_region`` bounds the object's minimum corner; ``None`` means
    anywhere that keeps the object fully inside the ROI.  Dimensions are
    meters and axis-aligned in the ROI frame.
    """

    object_dims: np.ndarray = (0.5, 0.5, 1.7)
    placement_region: Box | None = None
    trials: int = 1000
    threshold: int = 1

    def __post_init__(self):
        object.__setattr__(self, "object_dims", as_vec3(self.object_dims))
        if np.any(self.object_dims <= 0.0):
            raise ValueError("object dimensions must be positive")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ValueError(f"odr trials must lie in [1, {MAX_TRIALS}]")
        if self.threshold < 0:
            raise ValueError("odr threshold must be >= 0")

    def corner_region(self, roi_extent) -> Box:
        """Resolved min-corner placement box, validated against the ROI.

        The object may overshoot the ROI by ``EXTENT_TOLERANCE`` of its
        extent, the slack an extent written in a scenario may have against
        the grid's ``dims * resolution``; both therefore accept the same
        placements.  The default region is ``[0, extent - object_dims]``.
        """
        extent = np.asarray(roi_extent, dtype=float)
        limit = extent - self.object_dims
        slack = EXTENT_TOLERANCE * extent
        if np.any(limit < -slack):
            raise ValueError("object does not fit inside the ROI")
        if self.placement_region is None:
            return Box(minimum=np.zeros(3), maximum=np.maximum(limit, 0.0))
        region = self.placement_region
        if np.any(region.minimum < 0.0) or np.any(region.maximum > limit + slack):
            raise ValueError(
                "placement region must keep the object fully inside the ROI"
            )
        return region


@dataclass(frozen=True)
class OdrReport:
    """Outcome of an ODR estimate: ``odr = detections / trials``."""

    trials: int
    detections: int
    odr: float
    threshold: int


# Grid cells gathered at once when counting many boxes, which bounds the
# batch's flat indices and gathered ids to 8 MiB each.
_GATHER_CELLS = 2**20


def _occupied_counts(comp: np.ndarray, grid: VoxelGrid, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Distinct component ids among the active centers inside each box ``[lo[k], hi[k]]``.

    ``lo`` and ``hi`` are ``(K, 3)`` with ``lo <= hi``; returns ``K``
    counts.  A center ``c`` is inside when ``lo <= c <= hi`` on every axis.
    """
    ids, strides = grid.pad(comp), grid.padded_strides
    first = np.empty(lo.shape, dtype=np.int64)
    size = np.empty(lo.shape, dtype=np.int64)
    for a, axis in enumerate(grid.axis_centers):
        first[:, a] = np.searchsorted(axis, lo[:, a], side="left")
        size[:, a] = np.searchsorted(axis, hi[:, a], side="right") - first[:, a]
    # A box smaller than the widest one repeats its last index, which leaves
    # its distinct ids unchanged; an empty axis reads the -1 padding layer.
    widths = size.max(axis=0)
    counts = np.zeros(lo.shape[0], dtype=np.int64)
    if not widths.all():
        return counts
    batch = max(1, _GATHER_CELLS // int(widths.prod()))
    for start in range(0, lo.shape[0], batch):
        rows = slice(start, start + batch)
        # Flat index of each cell of each box's (padded-out) block, built
        # axis by axis by broadcasting: (boxes, wx, wy, wz).
        flat = np.zeros((1, 1, 1, 1), dtype=np.int64)
        for a, width in enumerate(widths):
            n_a = size[rows, a, None]
            offsets = np.minimum(np.arange(width), n_a - 1)
            index = np.where(n_a > 0, first[rows, a, None] + offsets, grid.dims[a])
            shape = [-1, 1, 1, 1]
            shape[a + 1] = width
            flat = flat + (index * strides[a]).reshape(shape)
        cells = ids[flat.reshape(flat.shape[0], -1)]
        cells.sort(axis=1)
        # -1 sorts first, so every change along a sorted row steps onto an id >= 0.
        counts[rows] = (cells[:, 0] >= 0) + np.count_nonzero(cells[:, 1:] != cells[:, :-1], axis=1)
    return counts


def estimate_odr(
    configs: Sequence[PoseConfig],
    models: Sequence[LidarModel],
    grid: VoxelGrid,
    settings: OdrSettings,
    rng: np.random.Generator,
    columns: ColumnCache | None = None,
) -> OdrReport:
    """Estimate the detection rate of ``configs`` by random object placement.

    Each of ``settings.trials`` placements draws the object's min corner
    uniformly from its placement region; the trial detects when the object
    occupies more than ``settings.threshold`` subspaces.  Deterministic for
    a fixed ``rng`` state, and always returns a rate in [0, 1].  ``columns``
    is passed on to ``first_level_labels``.
    """
    region = settings.corner_region(grid.extent)
    comp, _ = component_ids(first_level_labels(configs, models, grid, columns), grid)

    corners = rng.uniform(region.minimum, region.maximum, (settings.trials, 3))
    counts = _occupied_counts(comp, grid, corners, corners + settings.object_dims)
    detections = int(np.count_nonzero(counts > settings.threshold))
    return OdrReport(
        trials=settings.trials,
        detections=detections,
        odr=detections / settings.trials,
        threshold=settings.threshold,
    )


def vsr_odr_scatter(
    models: Sequence[LidarModel], grid: VoxelGrid, bounds: PoseBounds, settings: OdrSettings,
    seed: int, samples: int,
) -> list[tuple[float, float]]:
    """``(max_vsr, odr)`` of ``samples`` placements drawn uniformly from ``bounds``.

    Child 0 of ``SeedSequence(seed)`` draws the placements and child ``i + 1``
    sample ``i``'s trials; each child is built only when it is needed.  A
    sample's max VSR and ODR share its digit columns through one cache of
    ``len(models)`` columns.
    """
    def child_rng(i):
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))

    config_rng = child_rng(0)
    lower, upper = cost.decision_bounds(bounds, len(models))
    columns = ColumnCache(len(models))
    points = []
    for i in range(samples):
        poses = cost.poses_from_vector(config_rng.uniform(lower, upper), len(models))
        vsr = cost.max_vsr(poses, models, grid, columns)
        report = estimate_odr(poses, models, grid, settings, child_rng(i + 1), columns)
        points.append((vsr, report.odr))
    return points
