"""Subspace size metrics and the worst-subspace objective.

A subspace's volume is its voxel count times the voxel volume.  Its surface
area is counted per face orientation on the voxel grid: every face shared by
two voxels of the same component is interior, and each voxel's two faces
along an axis are exposed unless paired that way.  A face is "surface"
whenever the face-adjacent voxel is not in the same component; ROI boundary,
excluded region, and other-subspace neighbors all count identically.

The placement objective is the maximum volume-to-surface-area ratio (VSR)
over all subspaces; ``3 * VSR`` estimates the radius of the largest sphere
that fits inside, so minimizing the maximum VSR shrinks the worst blind spot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .geometry import LidarModel, PoseBounds, PoseConfig, VoxelGrid
from .segmentation import _face_pairs, _padded, segment

__all__ = [
    "SubspaceRecord",
    "PlacementReport",
    "component_metrics",
    "max_vsr",
    "evaluate_placement",
    "poses_from_vector",
    "decision_bounds",
    "make_objective",
]


@dataclass(frozen=True)
class SubspaceRecord:
    """One row of a placement's per-subspace metrics table."""

    component_id: int
    code: tuple[int, ...]
    voxel_count: int
    volume: float
    surface_area: float
    vsr: float
    inscribed_radius_estimate: float


@dataclass(frozen=True, eq=False)
class PlacementReport:
    """Objective value plus the full per-subspace metrics table.

    ``labels`` and ``component_ids`` are the per-active-voxel codes and
    component ids the table was computed from.
    """

    objective: float
    subspaces: tuple[SubspaceRecord, ...]
    labels: np.ndarray = field(repr=False)
    component_ids: np.ndarray = field(repr=False)

    @property
    def worst(self) -> SubspaceRecord:
        return max(self.subspaces, key=lambda rec: rec.vsr)


def component_metrics(comp: np.ndarray, count: int, grid: VoxelGrid):
    """Per-component ``(sizes, volume, surface_area, vsr)`` arrays.

    ``comp`` holds a component id in ``[0, count)`` for every active voxel of
    ``grid``, aligned with ``grid.active_indices``.  Row ``c`` of each array
    describes component ``c``: its voxel count, volume in m^3, surface area in
    m^2, and volume-to-surface-area ratio in meters.
    """
    flat, strides = _padded(comp, grid)
    sizes = np.bincount(comp, minlength=count)
    pairs_x, pairs_y, pairs_z = (
        np.bincount(flat[:-stride][_face_pairs(flat, stride)], minlength=count)
        for stride in strides
    )

    ex, ey, ez = (float(c) for c in grid.resolution)
    sa = (
        (2 * (sizes - pairs_z)) * (ex * ey)
        + (2 * (sizes - pairs_y)) * (ex * ez)
        + (2 * (sizes - pairs_x)) * (ey * ez)
    )
    vol = (ex * ey * ez) * sizes
    return sizes, vol, sa, vol / sa


def max_vsr(
    configs: Sequence[PoseConfig], models: Sequence[LidarModel], grid: VoxelGrid
) -> float:
    """Objective value of a configuration set: the largest subspace VSR.

    Runs the pipeline on the prebuilt ``grid`` (per-voxel codes,
    face-connected components, per-component VSR).  A labeling that leaves
    everything in one subspace is valid and returns that block's VSR.
    Deterministic: identical inputs give bit-identical values.  See
    :func:`evaluate_placement` for the per-subspace table.
    """
    _, comp, count = segment(configs, models, grid)
    return float(component_metrics(comp, count, grid)[3].max())


def evaluate_placement(
    configs: Sequence[PoseConfig], models: Sequence[LidarModel], grid: VoxelGrid
) -> PlacementReport:
    """Per-subspace metrics table plus the max-VSR objective."""
    labels, comp, count = segment(configs, models, grid)
    sizes, vol, sa, ratios = component_metrics(comp, count, grid)
    _, first_rows = np.unique(comp, return_index=True)
    records = tuple(
        SubspaceRecord(
            component_id=cid,
            code=tuple(int(d) for d in labels[first_rows[cid]]),
            voxel_count=int(sizes[cid]),
            volume=float(vol[cid]),
            surface_area=float(sa[cid]),
            vsr=float(ratios[cid]),
            inscribed_radius_estimate=float(3.0 * ratios[cid]),
        )
        for cid in range(count)
    )
    return PlacementReport(
        objective=float(ratios.max()), subspaces=records, labels=labels, component_ids=comp
    )


def poses_from_vector(vector, num_lidars: int) -> tuple[PoseConfig, ...]:
    """Decode an optimizer decision vector into poses.

    Each LiDAR contributes five variables ``(x, y, z, pitch, roll)``; yaw is
    fixed at zero because a spinning sensor covers all azimuths anyway.
    """
    vec = np.asarray(vector, dtype=float)
    if vec.shape != (5 * num_lidars,):
        raise ValueError(f"expected a {5 * num_lidars}-vector for {num_lidars} LiDARs")
    return tuple(
        PoseConfig(
            position=vec[5 * i : 5 * i + 3],
            yaw=0.0,
            pitch=float(vec[5 * i + 3]),
            roll=float(vec[5 * i + 4]),
        )
        for i in range(num_lidars)
    )


def decision_bounds(bounds: PoseBounds, num_lidars: int) -> tuple[np.ndarray, np.ndarray]:
    """Box bounds for the stacked ``(x, y, z, pitch, roll)`` decision vector.

    The yaw components of ``bounds`` are ignored (yaw is not optimized).
    """
    if num_lidars < 1:
        raise ValueError("num_lidars must be >= 1")
    lo = np.concatenate([bounds.lower.position, [bounds.lower.pitch, bounds.lower.roll]])
    hi = np.concatenate([bounds.upper.position, [bounds.upper.pitch, bounds.upper.roll]])
    return np.tile(lo, num_lidars), np.tile(hi, num_lidars)


def make_objective(
    models: Sequence[LidarModel], grid: VoxelGrid
) -> Callable[[np.ndarray], float]:
    """Pure objective ``vector -> max VSR`` over a prebuilt grid."""
    models = tuple(models)

    def objective(vector: np.ndarray) -> float:
        return max_vsr(poses_from_vector(vector, len(models)), models, grid)

    return objective
