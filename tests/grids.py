"""Voxel grids built around a given voxel set, for testing per-component metrics."""

from __future__ import annotations

import numpy as np

import lidarplace as lp


def blob_grid(cells, resolution) -> lp.VoxelGrid:
    """Smallest grid holding ``cells`` (shifted to start at index 0), active exactly there."""
    idx = np.asarray(cells, dtype=np.int64)
    idx = idx - idx.min(axis=0)
    active = np.zeros(tuple(int(d) for d in idx.max(axis=0) + 1), dtype=bool)
    active[tuple(idx.T)] = True
    res = np.asarray(resolution, dtype=float)
    active_indices = np.argwhere(active).astype(np.int64)
    return lp.VoxelGrid(
        dims=active.shape,
        resolution=res,
        active=active,
        active_indices=active_indices,
        active_centers=(active_indices + 0.5) * res,
    )


def single_component_metrics(grid: lp.VoxelGrid) -> tuple[float, float, float]:
    """``(volume, surface area, vsr)`` of all active voxels taken as one component."""
    _, vol, sa, ratio = lp.component_metrics(np.zeros(grid.num_active, dtype=np.int64), 1, grid)
    return float(vol[0]), float(sa[0]), float(ratio[0])


def blob_metrics(cells, resolution) -> tuple[float, float, float]:
    """``(volume, surface area, vsr)`` of one voxel set."""
    return single_component_metrics(blob_grid(cells, resolution))
