"""Subspace size metrics and the worst-subspace objective.

A subspace's volume is its voxel count times the voxel volume.  Its surface
area is counted per face orientation on the voxel grid: every face shared by
two voxels of the same component is interior, and each voxel's two faces
along an axis are exposed unless paired that way.  A face is "surface"
whenever the face-adjacent voxel is not in the same component; ROI boundary,
excluded region, and other-subspace neighbors all count identically.  The
counts come from the y-runs of the segmentation's run helper: a component's
voxels are the sum over its runs, each run of ``n`` voxels holds ``n - 1``
y face pairs, and its x/z face pairs are the sums of the segment lengths of
the edges leaving its runs, since a face pair never joins two components.

The placement objective is the maximum volume-to-surface-area ratio (VSR)
over all subspaces; ``3 * VSR`` estimates the radius of the largest sphere
that fits inside, so minimizing the maximum VSR, as :func:`search_placement`
does, shrinks the worst blind spot.  :func:`evaluate_placement` returns the
whole subspace table as the columns of a :class:`PlacementReport`: each
component's code plus the :func:`component_metrics` rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import bees, segmentation
from .geometry import LidarModel, PoseBounds, PoseConfig, VoxelGrid
from .segmentation import _code_runs, _run_components, _runs

__all__ = [
    "PlacementReport",
    "component_metrics",
    "max_vsr",
    "evaluate_placement",
    "poses_from_vector",
    "decision_bounds",
    "search_placement",
]


@dataclass(frozen=True, eq=False)
class PlacementReport:
    """A placement's objective and its subspace table, held as columns.

    Row ``c`` of every column describes component ``c``: ``codes[c]`` is its
    subspace code (one digit per sensor), and ``voxel_count``, ``volume``,
    ``surface_area`` and ``vsr`` are the rows of :func:`component_metrics`.
    ``component_ids`` holds the component of every active voxel.
    """

    objective: float
    component_ids: np.ndarray = field(repr=False)
    codes: np.ndarray = field(repr=False)
    voxel_count: np.ndarray = field(repr=False)
    volume: np.ndarray = field(repr=False)
    surface_area: np.ndarray = field(repr=False)
    vsr: np.ndarray = field(repr=False)


def component_metrics(comp: np.ndarray, count: int, grid: VoxelGrid):
    """Per-component ``(sizes, volume, surface_area, vsr)`` arrays.

    ``comp`` holds a component id in ``[0, count)`` for every active voxel of
    ``grid``, aligned with ``grid.active_indices``; any partition will do,
    face-connected or not.  Row ``c`` of each array describes component
    ``c``: its voxel count, volume in m^3, surface area in m^2, and
    volume-to-surface-area ratio in meters.  Raises ``ValueError`` when an
    id lies outside ``[0, count)`` or a component holds no voxel.
    """
    comp = np.asarray(comp)
    if comp.size and not 0 <= comp.min() <= comp.max() < count:
        raise ValueError(f"component ids must lie in [0, {count})")
    if not np.bincount(comp, minlength=count).all():
        raise ValueError(f"each of the {count} components must hold a voxel")
    values = grid.pad(comp)
    r = _runs(values, grid.padded_strides)
    return _metrics(values[r.start], count, r, grid)


def _metrics(group: np.ndarray, count: int, r, grid: VoxelGrid):
    """:func:`component_metrics` of components made of the runs ``r``, run ``n`` in ``group[n]``."""
    # Each face pair lies in one segment, and both its voxels in one component.
    edge_group = group[r.src]
    x, z = slice(None, r.num_x), slice(r.num_x, None)
    sizes, pairs_x, pairs_z = (
        np.bincount(g, weights, minlength=count).astype(np.int64)
        for g, weights in (
            (group, r.length), (edge_group[x], r.segment[x]), (edge_group[z], r.segment[z])
        )
    )
    pairs_y = sizes - np.bincount(group, minlength=count)

    ex, ey, ez = (float(c) for c in grid.resolution)
    sa = (
        (2 * (sizes - pairs_z)) * (ex * ey)
        + (2 * (sizes - pairs_y)) * (ex * ez)
        + (2 * (sizes - pairs_x)) * (ey * ez)
    )
    vol = grid.voxel_volume * sizes
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
    labels = segmentation.first_level_labels(configs, models, grid)
    comp, count = segmentation.component_ids(labels, grid)
    sizes, vol, sa, ratios = component_metrics(comp, count, grid)
    # Every voxel of a component carries its code, so any member will do.
    member = np.empty(count, dtype=np.int64)
    member[comp] = np.arange(comp.size)
    return PlacementReport(float(ratios.max()), comp, labels[member], sizes, vol, sa, ratios)


# Where each of a sensor's decision variables sits in ``PoseConfig.as_vector()``
# order ``[x, y, z, yaw, pitch, roll]``: the decision vector holds
# ``(x, y, z, pitch, roll)`` per sensor.  Yaw, left out, is held at zero: it
# turns the direction a tilted sensor leans, but pitch and roll together
# already reach every tilt direction.
_DECISION_SLOTS = np.array([0, 1, 2, 4, 5])


def poses_from_vector(vector, num_lidars: int) -> tuple[PoseConfig, ...]:
    """Decode an optimizer decision vector (see ``_DECISION_SLOTS``) into poses."""
    width = len(_DECISION_SLOTS)
    vec = np.asarray(vector, dtype=float)
    if vec.shape != (width * num_lidars,):
        raise ValueError(f"expected a {width * num_lidars}-vector for {num_lidars} LiDARs")
    rows = np.zeros((num_lidars, 6))
    rows[:, _DECISION_SLOTS] = vec.reshape(num_lidars, width)
    return tuple(PoseConfig(row[:3], *row[3:].tolist()) for row in rows)


def decision_bounds(bounds: PoseBounds, num_lidars: int) -> tuple[np.ndarray, np.ndarray]:
    """Box bounds for the stacked decision vector (see ``_DECISION_SLOTS``).

    Yaw is not optimized but held at 0, so the yaw range of ``bounds`` must
    include 0.
    """
    if num_lidars < 1:
        raise ValueError("num_lidars must be >= 1")
    if not bounds.lower.yaw <= 0.0 <= bounds.upper.yaw:
        raise ValueError("yaw is held at 0, so the yaw range must include 0")
    lo, hi = (limit.as_vector()[_DECISION_SLOTS] for limit in (bounds.lower, bounds.upper))
    return np.tile(lo, num_lidars), np.tile(hi, num_lidars)


def search_placement(
    models: Sequence[LidarModel], grid: VoxelGrid, bounds: PoseBounds, params: bees.AbcParams
) -> tuple[tuple[PoseConfig, ...], bees.SolveResult]:
    """Bee-colony search for the poses of ``models`` with the smallest :func:`max_vsr`.

    The colony searches the :func:`decision_bounds` box of ``bounds``.
    Returns the best poses and the colony's result, whose ``best_cost`` is
    the max VSR of those poses.
    """
    models = tuple(models)

    def objective(vector: np.ndarray) -> float:
        return max_vsr(poses_from_vector(vector, len(models)), models, grid)

    result = bees.optimize(objective, decision_bounds(bounds, len(models)), params)
    return poses_from_vector(result.best_solution, len(models)), result
