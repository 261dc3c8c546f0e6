"""Subspace size metrics and the worst-subspace objective.

A subspace's volume is its voxel count times the voxel volume.  Its surface
area is counted per face orientation on the voxel grid: every face shared by
two voxels of the same component is interior, and each voxel's two faces
along an axis are exposed unless paired that way.  A face is "surface"
whenever the face-adjacent voxel is not in the same component; ROI boundary,
excluded region, and other-subspace neighbors all count identically.  The
counts come from the y-runs of the segmentation's run helper: a component's
voxels and x/z face pairs are the sums over its runs, and each run of ``n``
voxels holds ``n - 1`` y face pairs.

The placement objective is the maximum volume-to-surface-area ratio (VSR)
over all subspaces; ``3 * VSR`` estimates the radius of the largest sphere
that fits inside, so minimizing the maximum VSR shrinks the worst blind spot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import segmentation
from .geometry import LidarModel, PoseBounds, PoseConfig, VoxelGrid
from .segmentation import _code_runs, _run_components, _runs, segment

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
    ``grid``, aligned with ``grid.active_indices``; any partition will do,
    face-connected or not.  Row ``c`` of each array describes component
    ``c``: its voxel count, volume in m^3, surface area in m^2, and
    volume-to-surface-area ratio in meters.
    """
    values = grid.pad(comp)
    r = _runs(values, grid.padded_strides)
    return _metrics(values[r.start], count, r, grid)


def _metrics(group: np.ndarray, count: int, r, grid: VoxelGrid):
    """:func:`component_metrics` of components made of the runs ``r``, run ``n`` in ``group[n]``."""
    sizes, pairs_x, pairs_z = (
        np.bincount(group, weights, minlength=count).astype(np.int64)
        for weights in (r.length, r.pairs_x, r.pairs_z)
    )
    pairs_y = sizes - np.bincount(group, minlength=count)

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

    Labels the prebuilt ``grid`` (per-voxel codes), joins the codes' y-runs
    into face-connected components and scores each component from its runs'
    counts; the components are never numbered voxel by voxel, since the
    maximum does not depend on their order.  A labeling that leaves
    everything in one subspace is valid and returns that block's VSR.
    Deterministic: identical inputs give bit-identical values.  See
    :func:`evaluate_placement` for the per-subspace table.
    """
    r = _code_runs(segmentation.first_level_labels(configs, models, grid), grid)
    count, run_comp = _run_components(r.start.size, r.src, r.dst)
    return float(_metrics(run_comp, count, r, grid)[3].max())


def evaluate_placement(
    configs: Sequence[PoseConfig], models: Sequence[LidarModel], grid: VoxelGrid
) -> PlacementReport:
    """Per-subspace metrics table plus the max-VSR objective."""
    labels, comp, count = segment(configs, models, grid)
    sizes, vol, sa, ratios = component_metrics(comp, count, grid)
    # Every voxel of a component carries its code, so any member will do.
    member = np.empty(count, dtype=np.int64)
    member[comp] = np.arange(comp.size)
    records = tuple(
        SubspaceRecord(cid, tuple(code), size, volume, area, ratio, 3.0 * ratio)
        for cid, (code, size, volume, area, ratio) in enumerate(
            zip(labels[member].tolist(), sizes.tolist(), vol.tolist(), sa.tolist(), ratios.tolist())
        )
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
