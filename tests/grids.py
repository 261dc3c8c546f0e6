"""Voxel grids built around a given voxel set, for testing per-component metrics."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

import lidarplace as lp


def blob_grid(cells, resolution) -> lp.VoxelGrid:
    """Smallest grid holding ``cells`` (shifted to start at index 0), active exactly there.

    The builder voxelizes the bounding box; the blob keeps its voxels.
    """
    idx = np.asarray(cells, dtype=np.int64)
    idx = idx - idx.min(axis=0)
    res = np.asarray(resolution, dtype=float)
    full = lp.build_voxel_grid(lp.RoiSpec(extent=(idx.max(axis=0) + 1) * res, resolution=res))
    keep = np.zeros(full.dims, dtype=bool)
    keep[tuple(idx.T)] = True
    keep = keep.ravel()  # C order, as the full grid lists its voxels
    return replace(full, active_indices=full.active_indices[keep])


def voxel_centers(grid: lp.VoxelGrid) -> np.ndarray:
    """``(num_active, 3)`` centers of ``grid``'s active voxels, read from ``axis_centers``."""
    return np.column_stack([c[i] for c, i in zip(grid.axis_centers, grid.active_indices.T)])


def single_component_metrics(grid: lp.VoxelGrid) -> tuple[float, float, float]:
    """``(volume, surface area, vsr)`` of all active voxels taken as one component."""
    _, vol, sa, ratio = lp.component_metrics(np.zeros(grid.num_active, dtype=np.int64), 1, grid)
    return float(vol[0]), float(sa[0]), float(ratio[0])


def blob_metrics(cells, resolution) -> tuple[float, float, float]:
    """``(volume, surface area, vsr)`` of one voxel set."""
    return single_component_metrics(blob_grid(cells, resolution))
