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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Box, LidarModel, PoseConfig, VoxelGrid, build_voxel_grid
from .segmentation import component_ids, first_level_labels

__all__ = [
    "ObjectSpec",
    "OdrReport",
    "count_occupied_subspaces",
    "estimate_odr",
]


@dataclass(frozen=True, eq=False)
class ObjectSpec:
    """A cuboid test object and, optionally, where it may be placed.

    ``placement_region`` bounds the object's minimum corner; ``None`` means
    anywhere that keeps the object fully inside the ROI.  Dimensions are
    meters and axis-aligned in the ROI frame.
    """

    dims: np.ndarray
    placement_region: Box | None = None

    def __post_init__(self):
        from .geometry import as_vec3

        object.__setattr__(self, "dims", as_vec3(self.dims))
        if np.any(self.dims <= 0.0):
            raise ValueError("object dimensions must be positive")

    def corner_region(self, roi_extent) -> Box:
        """Resolved min-corner placement box, validated against the ROI."""
        extent = np.asarray(roi_extent, dtype=float)
        if np.any(self.dims > extent):
            raise ValueError("object does not fit inside the ROI")
        limit = extent - self.dims
        if self.placement_region is None:
            return Box(minimum=np.zeros(3), maximum=limit)
        region = self.placement_region
        if np.any(region.minimum < 0.0) or np.any(region.maximum > limit):
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


def _occupied(centers: np.ndarray, comp: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> int:
    """Number of distinct component ids among the centers inside ``[lo, hi]``."""
    inside = np.all((centers >= lo) & (centers <= hi), axis=1)
    return int(np.unique(comp[inside]).size) if inside.any() else 0


def count_occupied_subspaces(box: Box, component_ids_per_voxel, grid: VoxelGrid) -> int:
    """Number of distinct subspaces whose voxel centers lie inside ``box``.

    ``component_ids_per_voxel`` is the second-level component id of each
    active voxel, aligned with ``grid.active_centers``.
    """
    comp = np.asarray(component_ids_per_voxel)
    if comp.shape != (grid.num_active,):
        raise ValueError("component ids must align with the grid's active voxels")
    return _occupied(grid.active_centers, comp, box.minimum, box.maximum)


def estimate_odr(
    configs: Sequence[PoseConfig],
    models: Sequence[LidarModel],
    roi,
    obj: ObjectSpec,
    trials: int,
    threshold: int,
    rng: np.random.Generator,
) -> OdrReport:
    """Estimate the detection rate of ``configs`` by random object placement.

    Each of ``trials`` placements draws the object's min corner uniformly
    from its placement region; the trial detects when the object occupies
    more than ``threshold`` subspaces.  Deterministic for a fixed ``rng``
    state, and always returns a rate in [0, 1].
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    grid = roi if isinstance(roi, VoxelGrid) else build_voxel_grid(roi)
    extent = grid.extent if isinstance(roi, VoxelGrid) else np.asarray(roi.extent, float)
    region = obj.corner_region(extent)

    labels = first_level_labels(configs, models, grid)
    comp, _ = component_ids(labels, grid)

    corners = rng.uniform(region.minimum, region.maximum, (trials, 3))
    centers = grid.active_centers
    detections = sum(_occupied(centers, comp, lo, lo + obj.dims) > threshold for lo in corners)
    return OdrReport(
        trials=trials,
        detections=detections,
        odr=detections / trials,
        threshold=threshold,
    )
